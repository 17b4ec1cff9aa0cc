"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (verdict equality); the enumerative
criteria state their coverage in the printed line.
"""

import itertools
import random

import pytest

from schedlab.checkers import (check_linearizable, check_ls_linearizable,
                               check_safe_strict, check_strictly_serializable)
from schedlab.cli import main as cli_main
from schedlab.fixtures import fig2a, fig2b, fig3, thm2_bundle, thm3_bundle
from schedlab.metric import (accepted_set, incomparability, lsl_set,
                             workload_keys)
from schedlab.model import (COMPLETE, OI, OR, Event, History,
                            OperationInstance)
from schedlab.scheduler import Workload, drive, free_run, universe
from schedlab.seqspec import Operation, make_structure

from oracles import (VACUOUS, check_compositionality, compose_histories,
                     naive_linearizable, scenario_path)

STRUCTURES = ("sorted-list", "bst", "skiplist")


def ok(name, detail=""):
    print(f"PASS {name}" + (f"  [{detail}]" if detail else ""))


def test_criterion_1_thm2_reproduction():
    """Fig. 2 verdicts plus the identical-insert construction everywhere."""
    w, sigma = fig2a()
    r_hoh = drive("hoh", w, sigma)
    assert not r_hoh.accepted and r_hoh.reason == "blocked"
    r_stm = drive("stm", w, sigma)
    assert r_stm.accepted
    assert sorted(r_stm.responses.values()) == [False, False]
    w2, sigma_p = fig2b()
    r_sp = drive("stm", w2, sigma_p)
    assert not r_sp.accepted and r_sp.reason == "aborted"
    for name in STRUCTURES:
        b = thm2_bundle(make_structure(name))
        assert drive("hoh", b.w_present, b.sigma).reason == "blocked"
        r = drive("stm", b.w_present, b.sigma)
        assert r.accepted and sorted(r.responses.values()) == [False, False]
        assert drive("stm", b.w_absent, b.sigma_prime).reason == "aborted"
        assert drive("hoh", b.w_absent, b.sigma_prime).reason == "blocked"
    ok("criterion 1: Thm. 2 reproduction",
       "fig2a/fig2b exact verdicts; construction on all three structures")


def test_criterion_2_thm3_reproduction():
    """Fig. 3 acceptance with the 3-edge cycle, and the general
    find/delete/delete construction everywhere."""
    w, sigma0 = fig3()
    r = drive("hoh", w, sigma0)
    assert r.accepted
    resp = {o.describe(): o.response for o in r.history.ops.values()}
    assert resp == {"find(5)": True, "insert(2)": True, "insert(5)": True}
    ss = check_strictly_serializable(r.history)
    assert ss.verdict is False and len(ss.violation) == 3
    keys = workload_keys(w)
    assert check_ls_linearizable(r.history, w.structure, keys,
                                 len(keys) + 1).verdict is True
    for name in STRUCTURES:
        t = thm3_bundle(make_structure(name))
        r3 = drive("hoh", t.workload, t.sigma0)
        assert r3.accepted
        find_resp = next(o.response for o in r3.history.ops.values()
                         if o.name == "find")
        assert find_resp is False
        ss3 = check_strictly_serializable(r3.history)
        assert ss3.verdict is False and len(ss3.violation) == 3
        keys3 = workload_keys(t.workload)
        assert check_ls_linearizable(r3.history, t.structure, keys3,
                                     len(keys3) + 1).verdict is True
    ok("criterion 2: Thm. 3 reproduction",
       "fig3 responses exact; 3-edge cycle; construction on all three structures")


def test_criterion_3_incomparability():
    b2 = thm2_bundle(make_structure("sorted-list"))
    b3 = thm3_bundle(make_structure("sorted-list"))
    rep = incomparability(b2.w_present, b2.sigma, b3.workload, b3.sigma0)
    assert rep.verdict == "incomparable"
    assert rep.sigma_verified, "sigma must re-drive: stm accepts, hoh rejects"
    assert rep.sigma0_verified, "sigma0 must re-drive: hoh accepts, stm rejects"
    ok("criterion 3: incomparability",
       "sigma in stm-only on W1, sigma0 in hoh-only on W2, both re-driven")


def sweep_workloads():
    """Deterministic workload family: sorted list, keys {1..4}, up to 3
    concurrent operations."""
    keys = (1, 2, 3, 4)
    kinds = ("insert", "delete", "find")
    ops = [Operation(n, k) for k in keys for n in kinds]
    setups = [(), (2,), (1, 3), (1, 2, 3, 4)]
    d = make_structure("sorted-list")
    for size in (1, 2, 3):
        for setup in setups:
            for combo in itertools.combinations_with_replacement(ops, size):
                yield Workload(d, [Operation("insert", k) for k in setup],
                               [(i + 1, op) for i, op in enumerate(combo)])


def test_criterion_4_soundness_sweep():
    """accepted_set(impl) ⊆ lsl_set over the enumerated family, stopping at
    a global schedule budget."""
    budget = 6000
    processed_schedules = 0
    processed_workloads = 0
    violations = []
    for w in sweep_workloads():
        scheds, truncated = universe(w, budget=400)
        keys = workload_keys(w)
        oracle = lsl_set(w, budget=400)
        for s in scheds:
            d = s.digest()
            for impl in ("hoh", "stm"):
                if drive(impl, w, s).accepted and d not in oracle.digests:
                    if d not in oracle.inconclusive:
                        violations.append((impl, w.fingerprint(), d))
        processed_schedules += len(scheds)
        processed_workloads += 1
        if processed_schedules >= budget:
            break
    assert not violations, violations
    assert processed_workloads >= 48  # at least every 1-op workload
    ok("criterion 4: soundness sweep",
       f"{processed_workloads} workloads, {processed_schedules} schedules, "
       f"0 accepted-but-not-LSL")


def random_workload(structure, rng):
    keys = (1, 2, 3, 4)
    setup = [Operation("insert", k) for k in
             rng.sample(keys, rng.randint(0, 3))]
    n = rng.randint(2, 3)
    concurrent = [(i + 1, Operation(rng.choice(("insert", "delete", "find")),
                                    rng.choice(keys)))
                  for i in range(n)]
    return Workload(structure, setup, concurrent)


def test_criterion_5_hoh_correctness():
    """1000 seeded free runs per structure: all LSL, zero aborts."""
    per_structure = 1000
    for name in STRUCTURES:
        d = make_structure(name)
        rng = random.Random(hash(name) & 0xffff)
        aborts = 0
        for i in range(per_structure):
            w = random_workload(d, rng)
            h = free_run("hoh", w, seed=i)
            aborts += sum(1 for e in h.events if e.is_abort())
            keys = workload_keys(w)
            res = check_ls_linearizable(h, d, keys, len(keys) + 1)
            assert res.verdict is True, (name, i, res.reason)
        assert aborts == 0
    ok("criterion 5: HOH correctness",
       f"{per_structure} free runs x {len(STRUCTURES)} structures LSL, 0 aborts")


def test_criterion_6_sm_correctness():
    """Safe-strictness of stm executions, the implication safe-strict =>
    LSL, and the commit-only counterexample."""
    checked = 0
    budget = 150
    for w in sweep_workloads():
        if checked >= budget:
            break
        scheds, _ = universe(w, budget=40)
        keys = workload_keys(w)
        for s in scheds[:6]:
            res = drive("stm", w, s)
            sst = check_safe_strict(res.history)
            assert sst.verdict is True, (w.fingerprint(), s.digest(), sst.reason)
            lsl = check_ls_linearizable(res.history, w.structure, keys,
                                        len(keys) + 1)
            assert lsl.verdict is True, "safe-strict execution must be LSL"
            checked += 1
    # seeded free runs with restarts keep the property on aborted attempts
    d = make_structure("sorted-list")
    w_tw = Workload(d, [], [(1, Operation("insert", 1)), (2, Operation("insert", 1))])
    for seed in range(20):
        h = free_run("stm", w_tw, seed=seed)
        assert check_safe_strict(h).verdict is True
        # LSL on the raw history, aborted attempts included
        assert check_ls_linearizable(h, d, (1,), 2).verdict is True
    # the commit-only mode observes a doomed state on the fig3 schedule
    w3, sigma0 = fig3()
    r = drive("stm-commit-only", w3, sigma0)
    bad = check_safe_strict(r.history)
    assert bad.verdict is False and "condition 2" in bad.reason
    ok("criterion 6: SM correctness",
       f"{checked} driven executions + 20 free runs safe-strict and LSL; "
       f"commit-only mode fails condition (2)")


def test_criterion_7_compositionality():
    """500 randomized composed histories from independent HOH runs, each
    with both components LSL, so that every check is of the composition."""
    d1, d2 = make_structure("sorted-list"), make_structure("bst")
    rng = random.Random(77)
    failures = checked = 0
    for i in range(500):
        w1 = random_workload(d1, rng)
        w2 = random_workload(d2, rng)
        h1 = free_run("hoh", w1, seed=i)
        h2 = free_run("hoh", w2, seed=i + 10000)
        composed = compose_histories(h1, h2, rng)
        keys = tuple(sorted(set(workload_keys(w1)) | set(workload_keys(w2))))
        res = check_compositionality(composed, (d1, d2), keys)
        if res.verdict is not True:
            failures += 1
        checked += res.witness != VACUOUS
    assert failures == 0 and checked == 500
    ok("criterion 7: compositionality",
       f"500 composed histories, {checked} with LSL components, 0 failures")


def interval_orders(n):
    """All orderings of n invocation/response pairs with inv before resp."""
    events = [(i, "inv") for i in range(n)] + [(i, "resp") for i in range(n)]

    def rec(sofar, remaining, opened):
        if not remaining:
            yield tuple(sofar)
            return
        seen = set()
        for idx, (i, kind) in enumerate(remaining):
            if (i, kind) in seen:
                continue
            seen.add((i, kind))
            if kind == "resp" and i not in opened:
                continue
            if kind == "inv" and any(j == i for j, k in sofar):
                continue
            yield from rec(sofar + [(i, kind)],
                           remaining[:idx] + remaining[idx + 1:],
                           opened | ({i} if kind == "inv" else set()))

    yield from rec([], events, set())


def synth_history(op_specs, order, responses):
    ops, events, seq = {}, [], 0
    for i, (name, key) in enumerate(op_specs):
        ops[i] = OperationInstance(i, i + 1, name, key,
                                   key if name == "insert" else None)
    for i, resp in enumerate(responses):
        if resp is not None:
            ops[i].status, ops[i].response = COMPLETE, resp
    for i, kind in order:
        if kind == "inv":
            events.append(Event(seq, i + 1, i, OI, value=[ops[i].name, ops[i].key]))
            seq += 1
        elif responses[i] is not None:
            events.append(Event(seq, i + 1, i, OR, value=responses[i]))
            seq += 1
    return History(events, ops)


def test_criterion_8_checker_exactness():
    """check_linearizable vs the all-permutations oracle, exhaustively for
    <=2 ops over 3 keys and 3 ops over 2 keys (all interval orderings, all
    response assignments including omitted ones), plus every 4-op interval
    ordering for a representative op family; multinomial counts exact."""
    kinds = ("insert", "delete", "find")
    compared = 0

    def sweep(op_space, n, response_choices):
        nonlocal compared
        orders = list(interval_orders(n))
        for specs in itertools.product(op_space, repeat=n):
            for order in orders:
                for responses in itertools.product(response_choices, repeat=n):
                    h = synth_history(list(specs), order, list(responses))
                    fast = check_linearizable(h).verdict is True
                    slow = naive_linearizable(h)
                    assert fast == slow, (specs, order, responses)
                    compared += 1

    sweep([(k, key) for k in kinds for key in (1, 2, 3)], 1, (True, False, None))
    sweep([(k, key) for k in kinds for key in (1, 2, 3)], 2, (True, False, None))
    sweep([(k, key) for k in kinds for key in (1, 2)], 3, (True, False))
    four_op_families = [
        [("insert", 1), ("insert", 1), ("delete", 1), ("find", 1)],
        [("insert", 1), ("delete", 1), ("find", 1), ("insert", 2)],
    ]
    orders4 = list(interval_orders(4))
    for family in four_op_families:
        for order in orders4:
            for responses in itertools.product((True, False), repeat=4):
                h = synth_history(family, order, list(responses))
                assert (check_linearizable(h).verdict is True) \
                    == naive_linearizable(h)
                compared += 1
    # enumeration closed forms
    import math
    d = make_structure("bst")
    w = Workload(d, [], [(1, Operation("find", 1)), (2, Operation("find", 2))])
    scheds, _ = universe(w)
    assert len(scheds) == math.comb(6, 3)
    assert math.comb(5, 2) == 10
    ok("criterion 8: checker exactness",
       f"{compared} histories checker==oracle; multinomial counts exact")


def test_criterion_9_determinism(tmp_path):
    """Byte-identical JSON reports for every canned scenario, twice."""
    scenarios = ["fig2a_hoh.json", "fig2a_stm.json", "fig2b_stm.json",
                 "fig3_hoh.json", "fig3_stm.json"]
    for name in scenarios:
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{name}.{attempt}.json"
            cli_main(["--json", "--out", str(out), "run", scenario_path(name)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], name
    blobs = []
    for attempt in range(2):
        out = tmp_path / f"explore.{attempt}.json"
        cli_main(["--json", "--out", str(out), "explore",
                  scenario_path("explore_fig2a_hoh.json")])
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    ok("criterion 9: determinism",
       "5 run scenarios + 1 explore scenario byte-identical across runs")
