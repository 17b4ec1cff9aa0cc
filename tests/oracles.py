"""Reference oracles that only the tests use.

Each is an independent, slower statement of something the library does
fast: the brute-force linearizability search, history well-formedness,
the dictionary fold, the sequential interpreter's recorded runs with
their legality replay (`sequential_run`, `assert_legal`), the
sequential-history enumeration, the state space as a BFS cut at a depth
that runs insert and delete of every key from every state, a store's
canonical tuple from a BFS whose queue holds duplicates
(`reference_canonical_bfs`), an operation's solo step list, the schedule
walk that steps every prefix (not every configuration) once, the walk's
configuration key with every field a step reads (`full_config_key`), the
per-leaf LSL signature rebuilt from a replay's events, the checkers that
scan every event once per operation with no cache, and the free-run loop
that re-sorts its live processes at every step and probes for deadlock
in process order (`reference_free_run`).  A few small helpers only tests
call live here too: history projections and comparisons (`render_json`,
`project_process`, `restrict_to_operation`, `precedes`), real time as
intervals (`op_intervals`, and `interval_precedence`, the pairs they
order), store and lock
audits (`reachable`, `alive_keys`, `lock_audit`, `release_holder`), a
key's relevant set and graph, `scenario_path`, `ALL_IMPLS` (every
implementation name) and `schedule_trie`, the library's walk with every
leaf wanted.  So does the locality harness: two histories over
independent objects merged into one, whose composition must be
linearizable when both are LSL.  The tests compare the library against
them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, replace
from importlib import resources

from schedlab import scheduler

from schedlab.checkers import (STRICT_CAP, CheckResult, _default_apply,
                               _dependency_cycle, _prefix_witness, _Replay,
                               abstract_state, check_ls_linearizable,
                               linearize, precedence)
from schedlab.model import (ABORTED, COMPLETE, OI, OR, RI, RR, WI, WR, Event,
                            History, InvariantError, OperationInstance,
                            Schedule, Slot, slot_of, trim_aborted)
from schedlab.scheduler import (LivelockError, MalformedScheduleError, Tally,
                                Workload, _concurrent_history, _fork,
                                _rec_key, _step_slot, _store_layout,
                                audit_finds, build_world, walk)
from schedlab.seqspec import (BudgetExceeded, DagState, Operation,
                              SearchStructureDef, canonical_steps,
                              dictionary_apply, enc_key, local_trace,
                              run_operation)
from schedlab.sync import (ABORT_OUT, BLOCKED, FINISHED, PROGRESSED,
                           LockManager, World, restart)

# every implementation ``make_machine`` builds, the unsynchronized one too
ALL_IMPLS = ("hoh", "stm", "stm-commit-only", "unsync")


def scenario_path(name: str) -> str:
    """Path of a canned scenario shipped with the package."""
    return str(resources.files("schedlab").joinpath("scenarios", name))


# -- linearizability ----------------------------------------------------------


def op_intervals(h: History) -> dict[int, tuple[int, float]]:
    """op id -> (invocation seq, response seq or +inf): the real-time order
    as intervals, where the library keeps it as pairs
    (``checkers.precedence``)."""
    inv: dict[int, int] = {}
    resp: dict[int, int] = {}
    for e in h.events:
        if e.kind == OI:
            inv.setdefault(e.op, e.seq)
        elif e.kind == OR and not e.is_abort():
            resp.setdefault(e.op, e.seq)
    return {i: (inv[i], resp.get(i, float("inf"))) for i in h.ops if i in inv}


def interval_precedence(iv: dict[int, tuple]) -> frozenset[tuple[int, int]]:
    """The pairs (a, b) whose intervals put a's response before b's
    invocation."""
    return frozenset((a, b) for a in iv for b in iv if iv[a][1] < iv[b][0])


def naive_linearizable(h: History) -> bool:
    """Brute-force oracle: all drop-subsets of incomplete operations, all
    permutations, respecting real time.  Independent of check_linearizable's
    search order and memoization."""
    hx = h.exported()
    ops = {i: o for i, o in hx.ops.items() if o.status != ABORTED}
    iv = op_intervals(hx)
    ops = {i: o for i, o in ops.items() if i in iv}
    q0 = frozenset(abstract_state(hx.initial).items())
    comp = [i for i, o in ops.items() if o.is_complete()]
    inc = [i for i, o in ops.items() if not o.is_complete()]
    for r in range(len(inc) + 1):
        for keep in itertools.combinations(inc, r):
            pool = comp + list(keep)
            for perm in itertools.permutations(pool):
                ok = True
                for a, b in itertools.combinations(range(len(perm)), 2):
                    if iv[perm[b]][1] < iv[perm[a]][0]:
                        ok = False
                        break
                if not ok:
                    continue
                state = q0
                for i in perm:
                    state, resp = _default_apply(state, ops[i])
                    if ops[i].is_complete() and resp != ops[i].response:
                        ok = False
                        break
                if ok:
                    return True
    return False


# -- locality -----------------------------------------------------------------


def compose_histories(h1: History, h2: History, interleave):
    """Merge two histories over independent objects: their events, in each
    one's order, interleaved by `interleave` (a random.Random, or a list of
    0/1 pulls read cyclically; 1 takes the next event of `h2`), with `h2`'s
    operation ids and processes shifted past `h1`'s.  Returns (the merged
    history, the parts (h1, h2), the merged ids of `h2`'s operations)."""
    off_op = max(h1.ops, default=-1) + 1
    off_proc = max((o.proc for o in h1.ops.values()), default=0) + 1
    parts = (h1.events, [replace(e, op=e.op + off_op, proc=e.proc + off_proc)
                         for e in h2.events])
    merged: list = []
    at = [0, 0]
    while at[0] < len(parts[0]) or at[1] < len(parts[1]):
        if at[0] == len(parts[0]):
            pick = 1
        elif at[1] == len(parts[1]):
            pick = 0
        elif isinstance(interleave, list):
            pick = interleave[len(merged) % len(interleave)]
        else:
            pick = interleave.choice((0, 1))
        merged.append(replace(parts[pick][at[pick]], seq=len(merged)))
        at[pick] += 1
    ops = dict(h1.ops)
    ops.update((i + off_op, replace(o, id=i + off_op, proc=o.proc + off_proc))
               for i, o in h2.ops.items())
    return History(merged, ops), (h1, h2), frozenset(i + off_op for i in h2.ops)


VACUOUS = "vacuous: a component is not LSL"


def check_compositionality(composed, defs, keys: tuple[int, ...]) -> CheckResult:
    """Falsifier for locality (Herlihy & Wing): True, with witness
    ``VACUOUS``, unless both parts of `composed` (``compose_histories``) are
    LSL under `defs`; then the merged history's linearizability against the
    product of the two dictionaries, each operation applied to its own
    part's."""
    merged, parts, second = composed
    if not all(check_ls_linearizable(h, d, keys).verdict is True
               for h, d in zip(parts, defs)):
        return CheckResult(True, witness=VACUOUS)
    # the product of the two dictionaries is one dictionary over keys
    # tagged by part: key k of part s is (s, k)
    hx = merged.exported()
    iv = op_intervals(hx)
    ops = {i: replace(o, key=(int(i in second), o.key))
           for i, o in hx.ops.items() if i in iv and o.status != ABORTED}
    q0 = frozenset(((side, k), v) for side, h in enumerate(parts)
                   for k, v in abstract_state(h.initial).items())
    return linearize(ops, precedence(hx), q0)


# -- histories ----------------------------------------------------------------


def render_json(h: History) -> str:
    """The history's events as compact ASCII JSON, for byte comparisons."""
    return json.dumps(h.events_json(), ensure_ascii=True, separators=(",", ":"))


def project_process(h: History, proc: int) -> History:
    """Subsequence of h restricted to one process's events."""
    sub = [e for e in h.events if e.proc == proc]
    ops = {i: o for i, o in h.ops.items() if o.proc == proc}
    return History(sub, ops, h.initial)


def restrict_to_operation(h: History, op_id: int,
                          attempt: int | None = None) -> list[Event]:
    """The events of one operation (of one attempt of it, if given), minus
    its final aborted read/write (``trim_aborted``)."""
    return trim_aborted([e for e in h.events if e.op == op_id
                         and (attempt is None or e.attempt == attempt)])


def precedes(h: History, op_a: int, op_b: int) -> bool:
    """True iff op_a's response occurs before op_b's invocation in h.  An
    aborted attempt's abort response is no response of the operation."""
    if op_a == op_b:
        return False
    resp_a = next((e.seq for e in h.events
                   if e.op == op_a and e.kind == OR and not e.is_abort()), None)
    inv_b = next((e.seq for e in h.events if e.op == op_b and e.kind == OI), None)
    return resp_a is not None and inv_b is not None and resp_a < inv_b


def well_formed(h: History) -> bool:
    """No process invokes a read/write/operation before the previous returns."""
    open_op: dict[int, int | None] = {}
    open_rw: dict[int, bool] = {}
    for e in h.events:
        cur = open_op.setdefault(e.proc, None)
        busy = open_rw.setdefault(e.proc, False)
        if e.kind == OI:
            if cur is not None:
                return False
            open_op[e.proc] = e.op
        elif e.kind == OR:
            if cur != e.op or busy:
                return False
            open_op[e.proc] = None
        elif e.kind in (RI, WI):
            if cur != e.op or busy:
                return False
            open_rw[e.proc] = True
        elif e.kind in (RR, WR):
            if cur != e.op or not busy:
                return False
            open_rw[e.proc] = False
        else:
            return False
    return True


# -- the sequential side ------------------------------------------------------


def fold_dictionary(ops, q0: dict | None = None) -> tuple[dict, list[bool]]:
    q = dict(q0 or {})
    out = []
    for op in ops:
        q, r = dictionary_apply(q, op)
        out.append(r)
    return q, out


def sequential_run(def_: SearchStructureDef, ops: list[Operation],
                   proc: int = 0) -> tuple[DagState, list[bool], History]:
    """Run ops one at a time from the empty structure, recording a history.

    The produced history is legal by construction (reads return the store's
    current record); an explicit legality replay checks it on top."""
    state = def_.new_state()
    events: list[Event] = []
    registry: dict[int, OperationInstance] = {}
    initial = state.snapshot()
    seq = 0

    def emit(**kw):
        nonlocal seq
        events.append(Event(seq=seq, **kw))
        seq += 1

    responses = []
    for i, op in enumerate(ops):
        inst = OperationInstance(id=i, proc=proc, name=op.name, key=op.key, val=op.val)
        registry[i] = inst
        emit(proc=proc, op=i, kind=OI, value=[op.name, op.key])
        trace: list = []
        resp = run_operation(def_, state, op, trace)
        wrote = False
        for kind, nid, payload in trace:
            role = state.role_of(nid)
            if kind == "r":
                if wrote:
                    raise InvariantError(f"{op.describe()} reads after a write")
                emit(proc=proc, op=i, kind=RI, elem=role, nid=nid)
                emit(proc=proc, op=i, kind=RR, elem=role, value=payload, nid=nid)
            else:
                wrote = True
                emit(proc=proc, op=i, kind=WI, elem=role, value={"edges": payload},
                     nid=nid)
                emit(proc=proc, op=i, kind=WR, elem=role, value="ok", nid=nid)
        emit(proc=proc, op=i, kind=OR, value=resp)
        inst.status, inst.response = COMPLETE, resp
        responses.append(resp)
        def_.audit(state)

    hist = History(events, registry, initial)
    assert_legal(hist)
    return state, responses, hist


def assert_legal(h: History) -> None:
    """Every read returns the latest written record of its node; raises
    InvariantError otherwise.

    Nodes created during the history are private until linked; their first
    read defines their record for the rest of the replay."""
    store = {nid: dict(snap) for nid, snap in h.initial.items()}
    for e in h.events:
        if e.kind == RR and not e.is_abort():
            if e.nid not in store:
                store[e.nid] = dict(e.value)
            elif store[e.nid] != e.value:
                raise InvariantError(f"illegal read of n{e.nid} at seq {e.seq}")
        elif e.kind == WI:
            store[e.nid]["edges"] = {**store[e.nid]["edges"], **e.value["edges"]}


def reachable(state: DagState) -> set[int]:
    """The nodes reachable from the root."""
    seen, stack = set(), [state.root]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(t for t in state.nodes[n].edges.values()
                     if t is not None and t not in seen)
    return seen


def reference_canonical_bfs(state: DagState) -> tuple:
    """``DagState._canonical_bfs`` as it was before its one-pass form: a
    queue that may hold a node more than once, a node numbered when first
    popped, each node's edges sorted twice."""
    order, seen, queue = [], set(), [state.root]
    while queue:
        n = queue.pop(0)
        if n in seen or n is None:
            continue
        seen.add(n)
        order.append(n)
        rec = state.nodes[n]
        queue.extend(rec.edges[lab] for lab in sorted(rec.edges))
    remap = {n: i for i, n in enumerate(order)}
    return tuple(
        (remap[n], enc_key(state.nodes[n].key), state.nodes[n].val,
         tuple((lab, remap.get(t)) for lab, t in sorted(state.nodes[n].edges.items())))
        for n in order)


def alive_keys(state: DagState) -> dict:
    """key -> value of the reachable nodes but the sentinels."""
    reach = reachable(state)
    return {n.key: n.val for n in state.nodes.values()
            if n.nid in reach and n.nid not in (state.root, state.tail)}


def bounded_reachable_states(def_: SearchStructureDef, keys: tuple[int, ...],
                             max_ops: int, state_cap: int = 4000):
    """The states reachable by <= max_ops inserts and deletes of `keys`,
    one per canonical shape, as [(state, ops_path)] in BFS order: the BFS
    ``seqspec.reachable_states`` runs, cut after `max_ops` levels, that
    runs both operations of every key from every state."""
    base = def_.new_state()
    out = [(base, [])]
    seen = {base.canonical()}
    frontier = [(base, [])]
    for _ in range(max_ops):
        nxt = []
        for state, path in frontier:
            for key in keys:
                for op in (Operation("insert", key), Operation("delete", key)):
                    st = state.clone()
                    run_operation(def_, st, op)
                    canon = st.canonical()
                    if canon in seen:
                        continue
                    if len(out) >= state_cap:
                        raise BudgetExceeded(f"state cap {state_cap} hit")
                    seen.add(canon)
                    entry = (st, path + [op])
                    out.append(entry)
                    nxt.append(entry)
        frontier = nxt
    return out


def enumerate_sequential_histories(def_: SearchStructureDef, keys: tuple[int, ...],
                                   max_ops: int, state_cap: int = 4000):
    """Stream the histories of IS over op sequences of length <= max_ops.

    Sequences whose end state was already visited are emitted but not
    extended (state memoization prunes the search without collapsing
    distinct histories).  Raises BudgetExceeded past `state_cap` states."""
    alphabet = [Operation(name, key) for key in keys
                for name in ("insert", "delete", "find")]
    base = def_.new_state()
    seen = {base.canonical()}
    _, _, hist0 = sequential_run(def_, [])
    yield hist0

    def extend(state, path):
        if len(path) >= max_ops:
            return
        for op in alphabet:
            st = state.clone()
            run_operation(def_, st, op)
            _, _, hist = sequential_run(def_, path + [op])
            yield hist
            canon = st.canonical()
            if canon in seen:
                continue
            if len(seen) >= state_cap:
                raise BudgetExceeded(f"state cap {state_cap} hit")
            seen.add(canon)
            yield from extend(st, path + [op])

    yield from extend(base, [])


# -- locks --------------------------------------------------------------------


def release_holder(lm: LockManager, holder: int) -> None:
    """Drop every lock `holder` holds and every queue entry it has."""
    for nid in list(lm.exclusive):
        if lm.exclusive[nid] == holder:
            del lm.exclusive[nid]
    for readers in lm.shared.values():
        readers.discard(holder)
    for q in lm.queues.values():
        try:
            q.remove(holder)
        except ValueError:
            pass


def lock_audit(lm: LockManager) -> None:
    """Raise InvariantError where a node is held shared beside another
    holder's exclusive lock."""
    for nid, holder in lm.exclusive.items():
        if lm.shared.get(nid, set()) - {holder}:
            raise InvariantError(f"shared and exclusive coexist on n{nid}")


# -- step programs ------------------------------------------------------------


@dataclass
class StepProgram:
    """An operation compiled against a structure: the traverse loop plus
    the update plan, materializable against any concrete state."""

    def_: SearchStructureDef
    op: Operation

    def steps_against(self, state: DagState) -> tuple[list[tuple], bool]:
        """(abstract steps, response) when run alone on a copy of `state`."""
        st = state.clone()
        trace: list = []
        resp = run_operation(self.def_, st, self.op, trace)
        steps = []
        for entry in trace:
            role = st.role_of(entry[1])
            steps.append(("read", role) if entry[0] == "r"
                         else ("write", role, entry[2]))
        return steps, resp


def compile_program(def_: SearchStructureDef, op: Operation) -> StepProgram:
    if op.name not in ("insert", "delete", "find"):
        raise ValueError(f"unknown operation {op.name!r}")
    return StepProgram(def_, op)


# -- relevant sets and graphs ----------------------------------------------------


def absent_anchors(def_: SearchStructureDef, state: DagState, key: int) -> set[int]:
    """The frontier an insert of the absent `key` would link in front of:
    the nodes holding the smallest key ordered after it (sorted list,
    skiplist), or the node whose empty child the key would hang from
    (BST)."""
    if def_.name == "bst":
        pos = state.root
        while True:
            rec = state.nodes[pos]
            t = rec.edges.get(def_._dir(rec.key, key))
            if t is None:
                return {pos}
            pos = t
    cands = [n for n in reachable(state) if state.nodes[n].key > key]
    best = min(state.nodes[n].key for n in cands)
    return {n for n in cands if state.nodes[n].key == best}


def relevant_set(def_: SearchStructureDef, state: DagState, key: int) -> set[int]:
    """V_k: the key's node plus graph neighbours, or the frontier the
    key would be inserted at plus its in-neighbours."""
    hit = state.find_alive(key)
    reach = reachable(state)
    if hit is not None:
        out = {hit}
        out.update(t for t in state.nodes[hit].edges.values() if t is not None)
        out.update(n for n in reach if hit in state.nodes[n].edges.values())
        return out
    anchors = absent_anchors(def_, state, key)
    out = set(anchors)
    for a in anchors:
        out.update(n for n in reach if a in state.nodes[n].edges.values())
    return out


def relevant_graph(state: DagState, def_: SearchStructureDef, key: int):
    """R_k: the union of all root paths to the k-relevant nodes, returned
    as (nodes, edges)."""
    targets = relevant_set(def_, state, key)
    nodes: set[int] = set()
    edges: set[tuple[int, str, int]] = set()

    def walk(n, path, path_edges):
        if n in targets:
            nodes.update(path + [n])
            edges.update(path_edges)
        for lab, t in sorted(state.nodes[n].edges.items()):
            if t is not None and t not in path:
                walk(t, path + [n], path_edges + [(n, lab, t)])

    walk(state.root, [], [])
    return nodes, edges


# -- the per-prefix schedule walk and the LSL memo key --------------------------


@dataclass
class PrefixLeaf:
    """One leaf of ``prefix_walk``: the schedule, its digest, the
    rejections, and the unsynchronized world at its end (its legal replay),
    which belongs to this leaf alone."""

    schedule: Schedule
    digest: str
    rejected: dict[str, tuple[str, int]]
    world: World
    start: int  # index of the first concurrent event in world.events
    initial: dict  # store snapshot the concurrent part starts from

    def audited(self, w: Workload) -> History:
        """The legal replay plus the audit finds, run in the leaf's world."""
        audit_finds(self.world, w)
        return _concurrent_history(self.world, w, self.start, self.initial)

    def signature(self) -> tuple:
        return events_signature(self.world, self.start)


def schedule_trie(w: Workload, impls: tuple[str, ...] = ()):
    """Every schedule of the workload, classified under each of `impls`,
    in the DFS order of the trie of the unsynchronized machines'
    next-step choices, in process order: the library's walk with no
    budget, no verdict and every leaf wanted."""
    return walk(w, impls, None, None, None, Tally())


def prefix_walk(w: Workload, impls: tuple[str, ...] = ()):
    """``schedule_trie`` as a walk over the trie of schedule prefixes: the
    unsynchronized machines and each implementation's are forked at every
    prefix and stepped once per prefix, DFS in process order; an
    implementation that rejects a slot is dropped for the subtree below it,
    with that slot's index and reason.  A step it accepts must export
    exactly its slot; one still present at a leaf must have finished every
    operation there."""
    world, machines, start = build_world("unsync", w)
    initial = world.state.snapshot()
    runs = {impl: build_world(impl, w)[:2] for impl in impls}
    slots: list[Slot] = []

    def rec(world, machines, runs, rejected, sha):
        live = sorted(p for p, m in machines.items() if not m.finished)
        if not live:
            for _, im in runs.values():
                if not all(m.finished for m in im.values()):
                    raise MalformedScheduleError("schedule leaves operations incomplete")
            sha = sha.copy()
            sha.update(b"]")
            yield PrefixLeaf(Schedule(tuple(slots)), sha.hexdigest()[:16], rejected,
                             world, start, initial)
            return
        for proc in live:
            w2, m2 = _fork(world, machines)
            out = m2[proc].step(w2)
            if out.kind not in (PROGRESSED, FINISHED):
                raise InvariantError(f"unsync machine of process {proc} {out.kind}")
            # the first slot the step's events occupy
            slot = next(s for s in map(slot_of, out.events) if s is not None)
            idx = len(slots)
            runs2, rejected2 = {}, rejected
            for impl, (iw, im) in runs.items():
                iw, im = _fork(iw, im)
                n = len(iw.events)
                reason = _step_slot(iw, im[proc], idx, slot)
                if reason == slot:
                    got = [slot_of(e) for e in iw.events[n:] if not e.is_abort()]
                    if [s for s in got if s is not None] != [slot]:
                        raise InvariantError(
                            f"accepted history does not export the schedule: "
                            f"{impl} at slot {idx}")
                    runs2[impl] = (iw, im)
                else:
                    rejected2 = {**rejected2, impl: (reason, idx)}
            sha2 = sha.copy()
            sha2.update((b"," if idx else b"")
                        + json.dumps(slot.canon(), separators=(",", ":")).encode())
            slots.append(slot)
            yield from rec(w2, m2, runs2, rejected2, sha2)
            slots.pop()

    yield from rec(world, machines, runs, {}, hashlib.sha256(b"["))


def full_config_key(world: World, machines: dict, runs: dict) -> tuple:
    """``scheduler._config_key`` with every field a step reads, those the
    machines and the store determine included: each world's store, its
    lock tables (sorted by node, empty holder sets and queues dropped, as
    ``LockManager`` reads them only by node with an empty default) and its
    versions (sorted by node), and every machine field but ``def_``, its
    operation's status and response and its attempt among them.  The walk
    keys the same configurations apart when its key is exact and holds
    nothing redundant."""
    def world_key(x: World) -> tuple:
        lm = x.locks
        return (_store_layout(x.state),
                tuple(sorted((n, tuple(sorted(s))) for n, s in lm.shared.items() if s)),
                tuple(sorted(lm.exclusive.items())),
                tuple(sorted((n, tuple(q)) for n, q in lm.queues.items() if q)),
                tuple(sorted(x.versions.items())))

    def machine_key(m) -> tuple:
        o, plan = m.op, m.plan
        return (type(m), o.id, o.proc, o.name, o.key, o.val, o.status, o.response,
                m.attempt, m.invoked, m.write_idx,
                tuple(_rec_key(r) for r in m.gop.values()),
                None if plan is None else
                (plan.response, tuple(plan.new_nodes), tuple(plan.unlink),
                 tuple((n, tuple(patch.items())) for n, patch in plan.writes)),
                tuple(getattr(m, "read_set", {}).items()))

    def machines_key(ms: dict) -> tuple:
        return tuple((p, machine_key(m)) for p, m in ms.items())

    return (world_key(world), machines_key(machines),
            tuple((impl, world_key(iw), machines_key(im))
                  for impl, (iw, im) in runs.items()))


def events_signature(world: World, start: int) -> tuple:
    """``Leaf.signature`` rebuilt from the events of a world that ran a
    schedule: each concurrent operation's id, status, response and
    canonical read/write trace, in id order; the precedence relation of
    the operations' intervals; the final store's reachable part.  Raises
    InvariantError on an abort event or a restarted attempt."""
    traces: dict[int, list[tuple]] = {}
    for e in world.events[start:]:
        if e.attempt != 0 or e.is_abort():
            raise InvariantError(f"leaf history has an abort or a restart: {e}")
        if e.kind == OI:
            traces[e.op] = []
        elif e.kind == RR:
            traces[e.op].append(("r", e.nid, e.value))
        elif e.kind == WI:
            traces[e.op].append(("w", e.nid, e.value["edges"]))
    ops = world.ops
    iv = op_intervals(History(world.events[start:], ops))
    return (tuple((i, ops[i].status, ops[i].response, canonical_steps(traces[i]))
                  for i in sorted(traces)),
            interval_precedence(iv), reference_canonical_bfs(world.state))


def leaf_signature(w: Workload, leaf) -> tuple:
    """``Leaf.signature`` rebuilt from a replay of the leaf's schedule by
    the unsynchronized machines."""
    world, machines, start = build_world("unsync", w)
    for slot in leaf.schedule.slots:
        machines[slot.proc].step(world)
    return events_signature(world, start)


# -- checkers that scan every event once per operation -------------------------


def rw_trace(h: History, op_id: int, attempt: int | None = None) -> list[tuple]:
    """[("r", nid, record) | ("w", nid, edge_patch)] for one operation, or
    for one attempt of it."""
    out = []
    for e in restrict_to_operation(h, op_id, attempt):
        if e.kind == RR:
            out.append(("r", e.nid, e.value))
        elif e.kind == WI:
            out.append(("w", e.nid, e.value["edges"]))
    return out


def _local_witness(def_, states, op: Operation, steps: tuple, resp) -> list | None:
    """The first-match scan of ``SequentialSpace.witness``, running the
    sequential code of `op` afresh on every state it tries."""
    for state, path in states:
        c_steps, c_resp = local_trace(def_, state, op)
        if resp is None:
            match = steps == c_steps[:len(steps)]
        else:
            match = steps == c_steps and resp == c_resp
        if match:
            return [o.describe() for o in path]
    return None


def check_locally_serializable(h: History, def_: SearchStructureDef,
                               keys: tuple[int, ...], max_ops: int,
                               state_cap: int = 4000) -> CheckResult:
    """The library check over the BFS cut at `max_ops`, with no cache;
    it equals the library's when `max_ops` covers the fixpoint."""
    try:
        states = bounded_reachable_states(def_, keys, max_ops, state_cap)
    except BudgetExceeded as e:
        return CheckResult(None, reason=str(e))
    witnesses = {}
    for i, op_inst in sorted(h.ops.items()):
        attempts = sorted({e.attempt for e in h.events if e.op == i}) or [0]
        op = Operation(op_inst.name, op_inst.key, op_inst.val)
        for attempt in attempts:
            complete = attempt == attempts[-1] and op_inst.is_complete()
            trace = rw_trace(h, i, attempt)
            if not trace and not complete:
                witnesses[i] = "no events"
                continue
            steps = canonical_steps(trace)
            found = _local_witness(def_, states, op, steps,
                                   op_inst.response if complete else None)
            if found is None:
                return CheckResult(False, violation={"op": i, "attempt": attempt,
                                                     "trace": steps},
                                   reason=f"operation {op_inst.describe()} has no "
                                          f"sequential witness")
            witnesses[i] = found
    return CheckResult(True, witness=witnesses)


def check_strictly_serializable(h: History) -> CheckResult:
    hx = h.exported()
    comp = sorted(i for i, o in hx.ops.items() if o.is_complete())
    if len(comp) > STRICT_CAP:
        return CheckResult(None, reason=f"more than {STRICT_CAP} complete operations")
    iv = op_intervals(hx)
    traces = {i: rw_trace(hx, i) for i in comp}

    found: list[int] = []

    def dfs(order: list[int], rp: _Replay) -> bool:
        if len(order) == len(comp):
            found.extend(order)
            return True
        rest = [i for i in comp if i not in order]
        for i in rest:
            if any(iv[j][1] < iv[i][0] for j in rest if j != i):
                continue
            rp2 = rp.fork()
            if not rp2.apply(traces[i]):
                continue
            if dfs(order + [i], rp2):
                return True
        return False

    if dfs([], _Replay(hx.initial)):
        return CheckResult(True, witness=[(i, hx.ops[i].describe()) for i in found])
    cycle = _dependency_cycle(hx, comp, traces, interval_precedence(iv))
    return CheckResult(False, violation=cycle,
                       reason="no real-time-respecting legal permutation")


def _attempt_trace(evs: list) -> list[tuple]:
    out = []
    for e in evs:
        if e.kind == RR and not e.is_abort():
            out.append(("r", e.nid, e.value))
        elif e.kind == WI:
            out.append(("w", e.nid, e.value["edges"]))
    return out


def check_safe_strict(h: History) -> CheckResult:
    strict = check_strictly_serializable(h)
    if strict.verdict is not True:
        return CheckResult(strict.verdict, violation=strict.violation,
                           reason=strict.reason or "condition (1) fails")
    hx = h.exported()
    or_seq = {e.op: e.seq for e in h.events
              if e.kind == OR and not e.is_abort()}
    checked = []
    for k in sorted(h.ops):
        for attempt in sorted({e.attempt for e in h.events if e.op == k}):
            evs = [e for e in h.events if e.op == k and e.attempt == attempt]
            trace_k = _attempt_trace(evs)
            last = evs[-1].seq
            completed = [i for i, o in h.ops.items()
                         if i != k and o.is_complete() and or_seq.get(i, 1 << 60) <= last]
            traces = {i: rw_trace(hx, i) for i in completed}
            if not _prefix_witness(h.initial, trace_k, completed, traces):
                return CheckResult(
                    False,
                    violation={"op": k, "attempt": attempt,
                               "op_desc": h.ops[k].describe()},
                    reason=f"{h.ops[k].describe()} (attempt {attempt}) observes "
                           f"no committed-prefix state (condition 2)")
            checked.append((k, attempt))
    return CheckResult(True, witness=checked)


# -- the free-run loop that recomputes its live list ----------------------------


def reference_free_run(impl: str, w: Workload, seed: int = 0) -> History:
    """``scheduler.free_run`` as a loop that re-sorts the live processes at
    every step and, after a blocked step, asks every machine in process
    order whether its next step would block.  The caps are read from
    ``scheduler`` at each call, so a test may lower them for both loops."""
    world, machines, _ = build_world(impl, w)
    initial = w.structure.new_state().snapshot()
    rng = random.Random(seed)
    restarts = 0
    steps = 0
    while True:
        live = sorted(p for p, m in machines.items() if not m.finished)
        if not live:
            break
        proc = rng.choice(live)
        out = machines[proc].step(world)
        steps += 1
        if steps > scheduler.FREE_RUN_STEP_CAP:
            raise LivelockError(f"no progress after {scheduler.FREE_RUN_STEP_CAP} steps")
        if out.kind == BLOCKED:
            blocked_everywhere = all(m.finished or m.would_block(world)
                                     for m in machines.values())
            if blocked_everywhere:
                raise LivelockError("all machines blocked: deadlock")
            continue
        if out.kind == ABORT_OUT:
            restarts += 1
            if restarts > scheduler.FREE_RUN_RESTART_CAP:
                raise LivelockError(
                    f"restart budget {scheduler.FREE_RUN_RESTART_CAP} exhausted")
            machines[proc] = restart(machines[proc])
    return History(list(world.events), dict(world.ops), initial)
