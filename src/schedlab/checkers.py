"""Decision procedures for the correctness criteria.

All checkers are pure functions over histories.  The LS-linearizability
checkers are adapters over cores that take no history: ``unit_checker``
over per-attempt units, ``linearize`` over operations and their
precedence relation, and ``ls_linearizable``, which joins the two.  The
walk's LSL verdicts (``metric``) use the same cores.  Real time enters
linearizability and strict serializability only as the precedence
relation (Herlihy & Wing): the pairs (a, b) where operation a responds
before b is invoked, which ``precedence`` reads off an exported history
in one scan.  They order only what it orders, and the dependency cycles'
real-time edges are its pairs.  (Safe-strictness's condition (2) reads
the raw history: which operations completed before an attempt's last
event.)  Positive verdicts carry a
replayable witness (a linearization order, per-operation sequential runs,
or nothing to prove); negative strict-serializability verdicts carry a
dependency cycle whose edges are re-derivable from the history.  Bounded
searches that hit their caps report `inconclusive` (verdict None), never a
false negative; local serializability's optional `max_ops` is such a
checked bound, never a cut of the sequential state space.

Read/write payloads are the JSON event values: a read returns the node's
full record {"key", "val", "edges"}, a write carries an outgoing-edge
patch.  Node references inside records are "n<id>" tokens; checkers match
local traces up to a bijective renaming of those tokens, assigned by first
appearance (sequential witnesses allocate their own nodes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (ABORTED, OI, OR, RR, WI, Event, History,
                    OperationInstance, trim_aborted)
from .seqspec import (BudgetExceeded, Operation, SearchStructureDef,
                      canonical_steps, dec_key, dictionary_apply, token_node)


@dataclass
class CheckResult:
    verdict: bool | None  # None = inconclusive (bounds hit)
    witness: object = None
    violation: object = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.verdict is True


# -- shared event plumbing ----------------------------------------------------


def precedence(hx: History) -> frozenset[tuple[int, int]]:
    """The real-time order of an exported history, from one scan: (a, b)
    for each operation a that responds before operation b is invoked."""
    done, prec = [], set()
    for e in hx.events:
        if e.kind == OI:
            prec.update((a, e.op) for a in done)
        elif e.kind == OR:
            done.append(e.op)
    return frozenset(prec)


def _rw(events: list[Event]) -> list[tuple]:
    """[("r", nid, record) | ("w", nid, edge_patch)] of the events: the
    steps ``seqspec.run_operation`` records."""
    out = []
    for e in events:
        if e.kind == RR:
            out.append(("r", e.nid, e.value))
        elif e.kind == WI:
            out.append(("w", e.nid, e.value["edges"]))
    return out


def _attempt_index(h: History) -> dict[int, dict[int, list[Event]]]:
    """op id -> attempt -> that attempt's events in history order, from one
    scan of the history."""
    out: dict[int, dict[int, list[Event]]] = {}
    for e in h.events:
        out.setdefault(e.op, {}).setdefault(e.attempt, []).append(e)
    return out


def _op_traces(hx: History) -> dict[int, list[tuple]]:
    """op id -> the read/write trace of an operation of an exported
    history, which holds one attempt per operation and no abort-marked
    event: its one attempt's events, read by ``_rw``."""
    return {i: _rw(evs) for i, atts in _attempt_index(hx).items() for evs in atts.values()}


def abstract_state(initial: dict[int, dict]) -> dict:
    """Reachable key->value view of a store snapshot (root is node 0)."""
    if not initial:
        return {}
    out, seen, stack = {}, set(), [0]
    while stack:
        nid = stack.pop()
        if nid in seen or nid not in initial:
            continue
        seen.add(nid)
        rec = initial[nid]
        key = dec_key(rec["key"])
        if key not in (float("-inf"), float("inf")):
            out[key] = rec["val"]
        for t in rec["edges"].values():
            if t is not None:
                stack.append(token_node(t))
    return out


# -- linearizability ----------------------------------------------------------


def _default_apply(state: frozenset, op: OperationInstance):
    q = dict(state)
    q2, resp = dictionary_apply(q, Operation(op.name, op.key, op.val))
    return frozenset(q2.items()), resp


# the most operations the exact searches take on, a longer history is
# inconclusive: (safe-)strict serializability counts the complete ones
LINEARIZABLE_CAP = 12
STRICT_CAP = 8


def check_linearizable(h: History) -> CheckResult:
    """``linearize`` over a history: the operations its exported view
    invokes but the aborted ones, its precedence relation, and the
    abstract state of its initial store."""
    hx = h.exported()
    invoked = {e.op for e in hx.events if e.kind == OI}
    return linearize({i: o for i, o in hx.ops.items()
                      if i in invoked and o.status != ABORTED},
                     precedence(hx), frozenset(abstract_state(hx.initial).items()))


def linearize(ops: dict[int, OperationInstance], prec: frozenset[tuple[int, int]],
              q0: frozenset) -> CheckResult:
    """Exact decision by DFS with state memoization, over the operations
    `ops` (none aborted) under the precedence relation `prec` ((a, b): a
    responds before b is invoked; a pair naming an operation outside `ops`
    constrains nothing) from abstract state `q0`, the dictionary's (key,
    value) items.

    Every operation in `ops` takes part.  Incomplete ones may be completed
    (their response is whatever the specification yields) or dropped.
    More than ``LINEARIZABLE_CAP`` operations are inconclusive.
    """
    if len(ops) > LINEARIZABLE_CAP:
        return CheckResult(None, reason=f"more than {LINEARIZABLE_CAP} operations")
    order = sorted(ops)
    complete_ids = [i for i in order if ops[i].is_complete()]
    after = {i: {a for a, b in prec if b == i and a in ops} for i in order}
    seen: set[tuple] = set()
    witness: list[tuple[int, object]] = []

    def available(done: frozenset):
        for i in order:
            if i not in done and after[i] <= done:
                yield i

    def dfs(state, done: frozenset) -> bool:
        if all(i in done for i in complete_ids):
            return True
        key = (state, done)
        if key in seen:
            return False
        seen.add(key)
        for i in available(done):
            st2, resp = _default_apply(state, ops[i])
            if ops[i].is_complete() and resp != ops[i].response:
                continue
            witness.append((i, resp))
            if dfs(st2, done | {i}):
                return True
            witness.pop()
        # incomplete ops may also be dropped: allowed implicitly because the
        # success condition only requires the complete ones to be placed
        return False

    if dfs(q0, frozenset()):
        lin = [(i, ops[i].describe(), resp) for i, resp in witness]
        return CheckResult(True, witness=lin)
    return CheckResult(False, reason="no legal linearization")


# -- local serializability ----------------------------------------------------


def unit_checker(def_: SearchStructureDef, keys: tuple[int, ...],
                 max_ops: int | None = None):
    """Local serializability over `keys`, as a function of an iterable of
    units.  A unit is (operation instance, attempt, canonical steps,
    whether it completes the operation).  It holds when the sequential
    implementation has a history in which the operation takes exactly
    those steps and returns its response, or, for a unit that does not
    complete the operation, takes them as a prefix; a unit with no steps
    that does not complete it holds.  The function stops at the first unit
    that fails.  A sequential state space past ``seqspec.STATE_CAP``
    states, or one that needs more operations than a given `max_ops`,
    makes every verdict inconclusive."""
    space = def_.space()
    try:
        states = space.states(keys)
        need = len(states[-1][2])
        if max_ops is not None and need > max_ops:
            raise BudgetExceeded(f"the sequential state space needs {need} "
                                 f"operations, more than max_ops={max_ops}")
    except BudgetExceeded as e:
        res = CheckResult(None, reason=str(e))
        return lambda units: res

    def check(units) -> CheckResult:
        witnesses = {}
        for op_inst, attempt, steps, complete in units:
            if not steps and not complete:
                witnesses[op_inst.id] = "no events"
                continue
            found = space.witness(states,
                                  Operation(op_inst.name, op_inst.key, op_inst.val),
                                  steps, op_inst.response if complete else None)
            if found is None:
                return CheckResult(False, violation={"op": op_inst.id, "attempt": attempt,
                                                     "trace": steps},
                                   reason=f"operation {op_inst.describe()} has no "
                                          f"sequential witness")
            witnesses[op_inst.id] = found
        return CheckResult(True, witness=witnesses)
    return check


def _history_units(h: History):
    """A history's units in operation order: each attempt of a restarted
    operation is its own unit, and only the final attempt of a complete
    operation completes it."""
    index = _attempt_index(h)
    for i, op_inst in sorted(h.ops.items()):
        by_attempt = index.get(i, {})
        attempts = sorted(by_attempt) or [0]
        for attempt in attempts:
            steps = canonical_steps(_rw(trim_aborted(by_attempt.get(attempt, []))))
            yield op_inst, attempt, steps, attempt == attempts[-1] and op_inst.is_complete()


def check_locally_serializable(h: History, def_: SearchStructureDef,
                               keys: tuple[int, ...],
                               max_ops: int | None = None) -> CheckResult:
    """``unit_checker`` over the history's units: each attempt of a
    restarted operation is its own unit, so an aborted or incomplete
    attempt must match a prefix of a sequential trace, and the completed
    final attempt must match one fully, response included."""
    return unit_checker(def_, keys, max_ops)(_history_units(h))


def ls_linearizable(ls: CheckResult, lin) -> CheckResult:
    """LS-linearizability from its parts: the local serializability
    result `ls`, then, only if it holds, ``lin()``, the linearizability
    result.  The first that is not True is the result."""
    if ls.verdict is not True:
        return ls
    res = lin()
    if res.verdict is not True:
        return res
    return CheckResult(True, witness={"local": ls.witness, "linearization": res.witness})


def check_ls_linearizable(h: History, def_: SearchStructureDef,
                          keys: tuple[int, ...],
                          max_ops: int | None = None) -> CheckResult:
    return ls_linearizable(check_locally_serializable(h, def_, keys, max_ops),
                           lambda: check_linearizable(h))


# -- strict serializability ---------------------------------------------------


class _Replay:
    """Record-level replay of operation traces in a candidate order.

    Nodes created during the history are undefined until some applied write
    links them; their first read then fixes their record.
    """

    def __init__(self, initial: dict[int, dict]):
        self.store = {nid: {"key": rec["key"], "val": rec["val"],
                            "edges": dict(rec["edges"])}
                      for nid, rec in initial.items()}
        self.introduced = set(self.store)
        for rec in initial.values():
            self.introduced.update(token_node(t) for t in rec["edges"].values() if t)

    def fork(self) -> _Replay:
        rp = _Replay.__new__(_Replay)
        rp.store = {nid: {"key": r["key"], "val": r["val"], "edges": dict(r["edges"])}
                    for nid, r in self.store.items()}
        rp.introduced = set(self.introduced)
        return rp

    def apply(self, trace: list[tuple]) -> bool:
        for kind, nid, payload in trace:
            if kind == "r":
                if nid not in self.store:
                    if nid not in self.introduced:
                        return False
                    self.store[nid] = {"key": payload["key"], "val": payload["val"],
                                       "edges": dict(payload["edges"])}
                elif self.store[nid] != payload:
                    return False
                self.introduced.update(token_node(t)
                                       for t in payload["edges"].values() if t)
            else:
                if nid not in self.store:
                    return False
                self.store[nid]["edges"].update(payload)
                self.introduced.update(token_node(t) for t in payload.values() if t)
        return True


def check_strictly_serializable(h: History) -> CheckResult:
    """Search permutations of the complete operations respecting real time
    for one whose read/write replay is legal; on failure return a
    dependency cycle (real-time, read-from, and anti-dependency edges).  A
    history with more than ``STRICT_CAP`` complete operations is
    inconclusive."""
    hx = h.exported()
    comp = sorted(i for i, o in hx.ops.items() if o.is_complete())
    if len(comp) > STRICT_CAP:
        return CheckResult(None, reason=f"more than {STRICT_CAP} complete operations")
    prec = precedence(hx)
    op_traces = _op_traces(hx)
    traces = {i: op_traces.get(i, []) for i in comp}

    found: list[int] = []

    def dfs(order: list[int], rp: _Replay) -> bool:
        if len(order) == len(comp):
            found.extend(order)
            return True
        rest = [i for i in comp if i not in order]
        for i in rest:
            if any((j, i) in prec for j in rest):
                continue
            rp2 = rp.fork()
            if not rp2.apply(traces[i]):
                continue
            if dfs(order + [i], rp2):
                return True
        return False

    if dfs([], _Replay(hx.initial)):
        return CheckResult(True, witness=[(i, hx.ops[i].describe()) for i in found])
    cycle = _dependency_cycle(hx, comp, traces, prec)
    return CheckResult(False, violation=cycle,
                       reason="no real-time-respecting legal permutation")


def _dependency_edges(hx: History, comp: list[int], traces, prec):
    """Edges a -> b with reasons, derived from the recorded values.

    read-from: b read an edge value that a wrote (matched by value, ties
    broken by history position).  anti-dependency: b read a value that a
    later overwrote, so b must be serialized before a."""
    writes: dict[tuple[int, str], list[tuple[int, int, object]]] = {}
    for e in hx.events:
        if e.kind == WI and e.op in traces:
            for lab, val in e.value["edges"].items():
                writes.setdefault((e.nid, lab), []).append((e.seq, e.op, val))
    initial_edges = {(nid, lab): val
                     for nid, rec in hx.initial.items()
                     for lab, val in rec["edges"].items()}
    edges: dict[tuple[int, int], dict] = {}

    def add(a, b, kind, detail):
        if a != b and (a, b) not in edges:
            edges[(a, b)] = {"kind": kind, "detail": detail}

    for b in comp:
        for kind, nid, payload in traces[b]:
            if kind != "r":
                continue
            for lab, val in payload["edges"].items():
                slot = writes.get((nid, lab), [])
                matches = [(seq, a) for seq, a, v in slot if v == val and a != b]
                if matches:
                    src_seq, src = matches[-1]
                    add(src, b, "read-from",
                        f"{hx.ops[b].describe()} read n{nid}.{lab}={val} written "
                        f"by {hx.ops[src].describe()}")
                elif initial_edges.get((nid, lab)) == val:
                    src_seq = -1
                else:
                    continue  # private initialization of a created node
                for seq, a, v in slot:
                    if a != b and v != val and seq > src_seq:
                        add(b, a, "anti-dependency",
                            f"{hx.ops[b].describe()} read n{nid}.{lab}={val} "
                            f"that {hx.ops[a].describe()} overwrites")
    for a, b in itertools.permutations(comp, 2):
        if (a, b) in prec:
            add(a, b, "real-time", f"{hx.ops[a].describe()} returns before "
                                   f"{hx.ops[b].describe()} starts")
    return edges


def _dependency_cycle(hx, comp, traces, prec):
    edges = _dependency_edges(hx, comp, traces, prec)
    adj: dict[int, list[int]] = {i: [] for i in comp}
    for (a, b) in sorted(edges):
        adj[a].append(b)
    best = None
    for start in comp:  # shortest cycle via BFS from each node
        parent = {start: None}
        queue = [start]
        while queue:
            n = queue.pop(0)
            for t in adj[n]:
                if t == start:
                    path = [n]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    cyc = path + [start]
                    if best is None or len(cyc) < len(best):
                        best = cyc
                    queue = []
                    break
                if t not in parent:
                    parent[t] = n
                    queue.append(t)
    if best is None:
        return None
    steps = []
    for a, b in zip(best, best[1:]):
        e = edges[(a, b)]
        steps.append({"from": a, "from_op": hx.ops[a].describe(),
                      "to": b, "to_op": hx.ops[b].describe(),
                      "kind": e["kind"], "detail": e["detail"]})
    return steps


# -- safe-strict serializability ----------------------------------------------


def check_safe_strict(h: History) -> CheckResult:
    """Strict serializability of the complete operations, plus: every
    operation execution (aborted and incomplete attempts included) observes
    a legal sequential execution over some subset of the operations
    completed by its last event, with every participant's recorded trace
    replaying exactly.

    Each restart attempt is its own unit for condition (2): an aborted
    attempt must have observed a committed-prefix state even though a later
    attempt completed the operation.  Condition (2) searches subsets of
    the complete operations, which condition (1) has already capped at
    ``STRICT_CAP``."""
    strict = check_strictly_serializable(h)
    if strict.verdict is not True:
        return CheckResult(strict.verdict, violation=strict.violation,
                           reason=strict.reason or "condition (1) fails")
    hx_traces = _op_traces(h.exported())
    or_seq = {e.op: e.seq for e in h.events
              if e.kind == OR and not e.is_abort()}
    index = _attempt_index(h)
    checked = []
    for k in sorted(h.ops):
        by_attempt = index.get(k, {})
        for attempt in sorted(by_attempt):
            evs = by_attempt[attempt]
            trace_k = _rw([e for e in evs if not e.is_abort()])
            last = evs[-1].seq
            completed = [i for i, o in h.ops.items()
                         if i != k and o.is_complete() and or_seq.get(i, 1 << 60) <= last]
            traces = {i: hx_traces.get(i, []) for i in completed}
            if not _prefix_witness(h.initial, trace_k, completed, traces):
                return CheckResult(
                    False,
                    violation={"op": k, "attempt": attempt,
                               "op_desc": h.ops[k].describe()},
                    reason=f"{h.ops[k].describe()} (attempt {attempt}) observes "
                           f"no committed-prefix state (condition 2)")
            checked.append((k, attempt))
    return CheckResult(True, witness=checked)


def _prefix_witness(initial, k_trace, completed, traces) -> bool:
    """DFS over sequences of distinct completed ops with replay pruning,
    terminating with the checked operation's trace."""

    def dfs(used: frozenset, rp: _Replay) -> bool:
        tail = rp.fork()
        if tail.apply(k_trace):
            return True
        for i in completed:
            if i in used:
                continue
            rp2 = rp.fork()
            if rp2.apply(traces[i]) and dfs(used | {i}, rp2):
                return True
        return False

    return dfs(frozenset(), _Replay(initial))

