"""Checker behavior on the canonical histories plus hand-built edge cases."""

import random
from dataclasses import replace

from schedlab import seqspec
from schedlab.checkers import (check_linearizable, check_locally_serializable,
                               check_ls_linearizable, check_safe_strict,
                               check_strictly_serializable)
from schedlab.model import (COMPLETE, OI, OR, RR, WI, Event, History,
                            OperationInstance)
from schedlab.metric import workload_keys
from schedlab.scheduler import Workload, drive, free_run
from schedlab.seqspec import Operation, dictionary_apply, make_structure

import oracles
from oracles import (VACUOUS, check_compositionality, compose_histories,
                     naive_linearizable, sequential_run)
from test_acceptance import STRUCTURES, random_workload


def hl_history(ops, events, initial=None):
    return History(events, ops, initial or {})


def mk_op(i, proc, name, key, resp=None):
    status = COMPLETE if resp is not None else "incomplete"
    return OperationInstance(i, proc, name, key, key if name == "insert" else None,
                             status, resp)


def seq_events(spec):
    """spec: list of (proc, op, kind, value) in order."""
    return [Event(seq, proc, op, kind, value=value)
            for seq, (proc, op, kind, value) in enumerate(spec)]


# -- linearizability -------------------------------------------------------------


def test_fig3_high_level_linearizable(fig3_history):
    res = check_linearizable(fig3_history)
    assert res.verdict is True
    # witness validity: replay the linearization through the dictionary
    from schedlab.checkers import abstract_state
    q = abstract_state(fig3_history.initial)
    for op_id, desc, resp in res.witness:
        inst = fig3_history.ops[op_id]
        q, want = dictionary_apply(q, Operation(inst.name, inst.key, inst.val))
        assert want == inst.response == resp


def test_thm2_contradiction_history_not_linearizable():
    """Both identical inserts succeed, then a find misses the key: the
    extension the suboptimality proof uses."""
    ops = {0: mk_op(0, 1, "insert", 1, True), 1: mk_op(1, 2, "insert", 1, True),
           2: mk_op(2, 3, "find", 1, False)}
    events = seq_events([
        (1, 0, OI, ["insert", 1]), (2, 1, OI, ["insert", 1]),
        (1, 0, OR, True), (2, 1, OR, True),
        (3, 2, OI, ["find", 1]), (3, 2, OR, False),
    ])
    h = hl_history(ops, events)
    assert check_linearizable(h).verdict is False
    assert naive_linearizable(h) is False


def test_both_true_alone_is_linearizable_with_distinct_keys():
    ops = {0: mk_op(0, 1, "insert", 1, True), 1: mk_op(1, 2, "insert", 2, True)}
    events = seq_events([
        (1, 0, OI, ["insert", 1]), (2, 1, OI, ["insert", 2]),
        (1, 0, OR, True), (2, 1, OR, True),
    ])
    assert check_linearizable(hl_history(ops, events)).verdict is True


def test_single_op_correct_response():
    ops = {0: mk_op(0, 1, "find", 3, False)}
    events = seq_events([(1, 0, OI, ["find", 3]), (1, 0, OR, False)])
    assert check_linearizable(hl_history(ops, events)).verdict is True
    ops = {0: mk_op(0, 1, "find", 3, True)}
    events = seq_events([(1, 0, OI, ["find", 3]), (1, 0, OR, True)])
    assert check_linearizable(hl_history(ops, events)).verdict is False


def test_incomplete_op_may_be_completed_or_dropped():
    ops = {0: mk_op(0, 1, "insert", 1, True), 1: mk_op(1, 2, "find", 1, None)}
    events = seq_events([
        (2, 1, OI, ["find", 1]), (1, 0, OI, ["insert", 1]), (1, 0, OR, True)])
    assert check_linearizable(hl_history(ops, events)).verdict is True


def test_checker_matches_naive_on_random_histories():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 3)
        ops, events, t = {}, [], 0
        open_ops = []
        for i in range(n):
            name = rng.choice(["insert", "delete", "find"])
            key = rng.randint(1, 2)
            resp = rng.choice([True, False, None])
            ops[i] = mk_op(i, i + 1, name, key, resp)
        order = []
        for i in range(n):
            order.append((i, OI))
            if ops[i].response is not None:
                order.append((i, OR))
        rng.shuffle(order)
        fixed = []
        seen_inv = set()
        for i, kind in order:
            if kind == OR and i not in seen_inv:
                fixed.append((i, OI))
                seen_inv.add(i)
                fixed.append((i, OR))
            elif kind == OI and i not in seen_inv:
                seen_inv.add(i)
                fixed.append((i, kind))
            elif kind == OR:
                fixed.append((i, kind))
        events = seq_events([
            (ops[i].proc, i, kind,
             ["x", ops[i].key] if kind == OI else ops[i].response)
            for i, kind in fixed])
        h = hl_history(ops, events)
        assert (check_linearizable(h).verdict is True) == naive_linearizable(h)


# -- local serializability --------------------------------------------------------


def test_fig3_locally_serializable(fig3_history):
    res = check_locally_serializable(fig3_history, make_structure("sorted-list"),
                                     (1, 2, 3, 4, 5), 5)
    assert res.verdict is True
    find_id = next(i for i, o in fig3_history.ops.items() if o.name == "find")
    # the witness state for find(5) contains key 5
    assert any("insert(5)" in w for w in res.witness[find_id])


def test_impossible_read_is_not_locally_serializable(fig3_history):
    h = fig3_history
    bent_events = []
    for e in h.events:
        if e.kind == RR and e.elem == "key:1" and e.op == min(h.ops):
            e = Event(e.seq, e.proc, e.op, e.kind, e.elem,
                      {"key": 1, "val": 1, "edges": {"next": None}}, e.nid)
        bent_events.append(e)
    bent = History(bent_events, h.ops, h.initial)
    res = check_locally_serializable(bent, make_structure("sorted-list"),
                                     (1, 2, 3, 4, 5), 5)
    assert res.verdict is False


def test_sequential_history_is_its_own_witness(structure):
    _, _, h = sequential_run(structure, [Operation("insert", 1),
                                         Operation("find", 1),
                                         Operation("delete", 1)])
    res = check_locally_serializable(h, structure, (1, 2), 3)
    assert res.verdict is True


def test_bounds_exhaustion_is_inconclusive(fig3_history, monkeypatch):
    monkeypatch.setattr(seqspec, "STATE_CAP", 2)
    res = check_locally_serializable(fig3_history, make_structure("sorted-list"),
                                     (1, 2, 3, 4, 5), 5)
    assert res.verdict is None


def test_max_ops_below_the_fixpoint_is_inconclusive(fig3_history):
    """`max_ops` is a checked bound.  find(5)'s witness state holds five
    keys; a scan cut at three operations found none and returned False."""
    d = make_structure("sorted-list")
    res = check_locally_serializable(fig3_history, d, (1, 2, 3, 4, 5), 3)
    assert res.verdict is None
    assert "max_ops=3" in res.reason and "needs 5 operations" in res.reason
    assert check_ls_linearizable(fig3_history, d, (1, 2, 3, 4, 5), 3).verdict is None
    for max_ops in (None, 5, 6):
        assert check_locally_serializable(fig3_history, d, (1, 2, 3, 4, 5),
                                          max_ops).verdict is True


def test_histories_past_the_caps_are_inconclusive():
    """The exact searches report a history past their caps as
    inconclusive, with the reason, and decide one at the cap."""
    d = make_structure("sorted-list")
    ops = [Operation(("insert", "find", "delete")[k % 3], k % 4) for k in range(13)]
    res = check_linearizable(sequential_run(d, ops)[2])
    assert res.verdict is None and res.reason == "more than 12 operations"
    assert check_linearizable(sequential_run(d, ops[:12])[2]).verdict is True
    nine = sequential_run(d, ops[:9])[2]
    for check in (check_strictly_serializable, check_safe_strict):
        res = check(nine)
        assert res.verdict is None, check
        assert res.reason == "more than 8 complete operations", check
        assert check(sequential_run(d, ops[:8])[2]).verdict is True, check


# -- LS-linearizability ------------------------------------------------------------


def test_fig3_ls_linearizable(fig3_history):
    res = check_ls_linearizable(fig3_history, make_structure("sorted-list"),
                                (1, 2, 3, 4, 5), 5)
    assert res.verdict is True


def test_empty_history_is_lsl(structure):
    h = History()
    assert check_ls_linearizable(h, structure, (1,), 1).verdict is True


def test_raw_stm_history_with_restarts_is_lsl():
    """Each attempt is its own unit: an aborted attempt prefix-matches a
    sequential trace, the final one matches fully.  Concatenating the
    attempts made the raw history of every run with an abort fail."""
    d = make_structure("sorted-list")
    w = Workload(d, [], [(1, Operation("insert", 1)), (2, Operation("insert", 1))])
    with_abort = 0
    for seed in range(200):
        h = free_run("stm", w, seed=seed)
        with_abort += any(e.is_abort() for e in h.events)
        res = check_ls_linearizable(h, d, (1,), 2)
        assert res.verdict is True, (seed, res.reason)
        assert res.verdict == check_ls_linearizable(h.exported(), d, (1,), 2).verdict
    assert with_abort >= 100


def test_bent_read_in_aborted_attempt_is_not_locally_serializable():
    d = make_structure("sorted-list")
    w = Workload(d, [], [(1, Operation("insert", 1)), (2, Operation("insert", 1))])
    h = free_run("stm", w, seed=1)
    assert any(e.attempt > 0 for e in h.events)  # a restart happened
    bent = next(e for e in h.events
                if e.attempt == 0 and e.kind == RR and not e.is_abort()
                and h.ops[e.op].is_complete()
                and any(f.op == e.op and f.attempt > 0 for f in h.events))
    events = [replace(e, value={**e.value, "val": "bent"}) if e is bent else e
              for e in h.events]
    res = check_locally_serializable(History(events, h.ops, h.initial), d, (1,), 2)
    assert res.verdict is False
    assert res.violation["op"] == bent.op and res.violation["attempt"] == 0


# -- strict serializability ---------------------------------------------------------


def test_sequential_history_strictly_serializable(structure):
    _, _, h = sequential_run(structure, [Operation("insert", 2),
                                         Operation("delete", 2),
                                         Operation("insert", 1)])
    res = check_strictly_serializable(h)
    assert res.verdict is True


def test_fig3_not_strictly_serializable(fig3_history):
    res = check_strictly_serializable(fig3_history)
    assert res.verdict is False
    cycle = res.violation
    assert len(cycle) == 3
    kinds = [e["kind"] for e in cycle]
    assert kinds.count("read-from") == 2 and kinds.count("anti-dependency") == 1


def test_cycle_edges_are_genuine(fig3_history):
    """Each reported edge is re-derivable from the history."""
    h = fig3_history
    res = check_strictly_serializable(h)
    for edge in res.violation:
        a, b = edge["from"], edge["to"]
        if edge["kind"] == "real-time":
            resp_a = next(e.seq for e in h.events if e.op == a and e.kind == OR)
            inv_b = next(e.seq for e in h.events if e.op == b and e.kind == OI)
            assert resp_a < inv_b
        elif edge["kind"] == "read-from":
            # b read some edge value that only a wrote
            writes_a = {(e.nid, lab, val) for e in h.events
                        if e.op == a and e.kind == WI
                        for lab, val in e.value["edges"].items()}
            reads_b = {(e.nid, lab, val) for e in h.events
                       if e.op == b and e.kind == RR
                       for lab, val in e.value["edges"].items()}
            assert writes_a & reads_b
        else:  # anti-dependency: the reader (from) read a slot the writer
            # (to) overwrote, so the reader must come first
            reads_a = {(e.nid, lab): val for e in h.events
                       if e.op == a and e.kind == RR
                       for lab, val in e.value["edges"].items()}
            writes_b = {(e.nid, lab): val for e in h.events
                        if e.op == b and e.kind == WI
                        for lab, val in e.value["edges"].items()}
            assert any(slot in reads_a and reads_a[slot] != val
                       for slot, val in writes_b.items())


# -- safe-strict serializability ------------------------------------------------------


def test_stm_executions_safe_strict(fig2a_case, fig2b_case):
    for case in (fig2a_case, fig2b_case):
        w, s = case
        res = drive("stm", w, s)
        assert check_safe_strict(res.history).verdict is True


def test_commit_only_mode_violates_condition_two(fig3_case):
    w, s = fig3_case
    res = drive("stm-commit-only", w, s)
    assert not res.accepted and res.reason == "aborted"
    verdict = check_safe_strict(res.history)
    assert verdict.verdict is False
    assert "condition 2" in verdict.reason
    # the per-read-validating mode rejects the same schedule earlier and
    # stays safe-strict
    res2 = drive("stm", w, s)
    assert check_safe_strict(res2.history).verdict is True


def test_safe_strict_exports_the_history_once(fig3_case, monkeypatch):
    """Condition (1) and condition (2) read one exported view of the
    history and its traces: one ``History.exported`` call per
    ``check_safe_strict``, on the Fig. 3 ``stm`` history."""
    w, s = fig3_case
    h = drive("stm", w, s).history
    exported = History.exported
    calls = []

    def counting(self):
        calls.append(self)
        return exported(self)

    monkeypatch.setattr(History, "exported", counting)
    assert check_safe_strict(h).verdict is True
    assert calls == [h]


def test_aborted_attempt_checked_separately(structure):
    w = Workload(structure, [], [(1, Operation("insert", 1)),
                                 (2, Operation("insert", 1))])
    h = free_run("stm", w, seed=1)
    assert any(e.attempt > 0 for e in h.events)  # a restart happened
    res = check_safe_strict(h)
    assert res.verdict is True
    assert any(attempt > 0 for _, attempt in res.witness)


# -- one scan per history, against the per-operation checkers -------------------------


def bend_one_read(h, rng):
    """`h` with the value of one concurrent read forged."""
    reads = [j for j, e in enumerate(h.events)
             if e.kind == RR and not e.is_abort() and e.proc != 0]
    j = rng.choice(reads)
    events = list(h.events)
    events[j] = replace(events[j], value={**events[j].value, "val": "forged"})
    return History(events, h.ops, h.initial)


def test_indexed_checkers_match_the_per_operation_scans():
    """Local, strict and safe-strict serializability index each history's
    events by (operation, attempt) once.  On seeded hoh and stm free runs
    (restarts and aborted attempts included) on every structure, and on
    each run with one read forged, verdict, witness, violation and reason
    equal those of the checkers that scan every event once per operation
    (``oracles``).  Local serializability's reference also runs the
    sequential code afresh for every state it tries, so the witnesses of
    the structure-owned ``SequentialSpace`` are checked against no cache."""
    runs, outcomes = 0, set()
    structures = []
    for name in STRUCTURES:
        d = make_structure(name)
        structures.append(d)
        rng = random.Random(f"index:{name}")
        for i in range(350):
            w = random_workload(d, rng)
            keys = workload_keys(w)
            for impl in ("hoh", "stm"):
                run = free_run(impl, w, seed=i)
                runs += 1
                for h in (run, bend_one_read(run, rng)):
                    pairs = {
                        "local": (check_locally_serializable(h, d, keys, len(keys) + 1),
                                  oracles.check_locally_serializable(
                                      h, d, keys, len(keys) + 1)),
                        "strict": (check_strictly_serializable(h),
                                   oracles.check_strictly_serializable(h)),
                        "safe-strict": (check_safe_strict(h),
                                        oracles.check_safe_strict(h)),
                    }
                    for checker, (got, want) in pairs.items():
                        assert got == want, (name, i, impl, checker)
                        outcomes.add((checker, got.verdict,
                                      "condition 2" in (got.reason or "")))
    assert runs >= 2000
    # one structure object served many key sets, which share its traces
    assert all(len(d.space()._states) > 1 for d in structures)
    # every branch was compared: both verdicts, and condition (2) failing alone
    assert outcomes >= {("local", True, False), ("local", False, False),
                        ("strict", True, False), ("strict", False, False),
                        ("safe-strict", True, False), ("safe-strict", False, False),
                        ("safe-strict", False, True)}


# -- compositionality -----------------------------------------------------------------


def test_composed_hoh_histories_stay_lsl():
    d1, d2 = make_structure("sorted-list"), make_structure("bst")
    w1 = Workload(d1, [Operation("insert", 1)],
                  [(1, Operation("insert", 2)), (2, Operation("find", 1))])
    w2 = Workload(d2, [Operation("insert", 3)],
                  [(1, Operation("delete", 3)), (2, Operation("find", 3))])
    rng = random.Random(0)
    for seed in range(12):
        h1 = free_run("hoh", w1, seed=seed)
        h2 = free_run("hoh", w2, seed=seed + 100)
        composed = compose_histories(h1, h2, rng)
        res = check_compositionality(composed, (d1, d2), (1, 2, 3))
        assert res.verdict is True


def test_non_lsl_component_makes_implication_vacuous():
    d = make_structure("sorted-list")
    ops = {0: mk_op(0, 1, "find", 1, True)}
    # a find that claims true on an empty structure: not linearizable
    events = seq_events([(1, 0, OI, ["find", 1]), (1, 0, OR, True)])
    bad = History(events, ops, {})
    w2 = Workload(d, [Operation("insert", 1)], [(1, Operation("find", 1))])
    good = free_run("hoh", w2, seed=0)
    composed = compose_histories(bad, good, [0, 1])
    res = check_compositionality(composed, (d, d), (1, 2))
    assert res.verdict is True and res.witness == VACUOUS
