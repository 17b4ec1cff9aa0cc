"""The one-pass classification against the reference path.

`schedule_trie` (through `classify`, `universe` and the metric functions)
must give every schedule the verdicts the reference path gives it: `drive`
per implementation, with the same rejection reason and failing slot, and
`check_ls_linearizable(audited_history(...))` for the LSL oracle.  The
leaves must come in the order of a plain recursive universe DFS.
"""

import itertools

import pytest

from schedlab import metric
from schedlab.checkers import check_ls_linearizable
from schedlab.fixtures import thm2_bundle, thm3_bundle
from schedlab.metric import (audited_history, classify, optimality_gap,
                             workload_keys)
from schedlab.model import History, schedule_of
from schedlab.scheduler import build_world, drive, schedule_trie, universe
from schedlab.seqspec import make_structure

from test_acceptance import sweep_workloads

IMPLS = ("hoh", "stm")


def reference_universe(w, budget):
    """The first `budget` schedules of a DFS that forks the unsynchronized
    machines at every node and steps one live process, in process order."""
    world, machines, start = build_world("unsync", w)
    out = []

    def rec(world, machines):
        if len(out) >= budget:
            return
        live = sorted(p for p, m in machines.items() if not m.finished)
        if not live:
            out.append(schedule_of(History(world.events[start:], world.ops)))
            return
        for proc in live:
            w2 = world.clone()
            m2 = {p: m.clone(w2.ops) for p, m in machines.items()}
            m2[proc].step(w2)
            rec(w2, m2)

    rec(world, machines)
    return out


def reference_verdicts(w, s):
    """(per-implementation (accepted, reason, failing slot), LSL verdict)
    by the reference path."""
    drives = {}
    for impl in IMPLS:
        r = drive(impl, w, s)
        drives[impl] = (r.accepted, r.reason, r.failing_slot)
    keys = workload_keys(w)
    lsl = check_ls_linearizable(audited_history(w, s), w.structure, keys,
                                len(keys) + 1).verdict
    return drives, lsl


def assert_pass_matches_reference(w, budget, extras=()):
    schedules = reference_universe(w, budget)
    leaves = list(itertools.islice(schedule_trie(w, IMPLS), budget))
    assert [leaf.schedule for leaf in leaves] == schedules
    sets = classify(w, IMPLS, lsl=True, budget=budget, extras=extras)
    visited = {s.digest() for s in schedules}
    new_extras = list({s.digest(): s for s in extras
                       if s.digest() not in visited}.values())
    for s, leaf in itertools.zip_longest(schedules + new_extras, leaves):
        drives, lsl = reference_verdicts(w, s)
        d = s.digest()
        for impl in IMPLS:
            accepted, reason, slot = drives[impl]
            assert (d in sets[impl].digests) == accepted, (impl, d)
            if leaf is not None:
                got = leaf.rejected.get(impl)
                assert got == (None if accepted else (reason, slot)), (impl, d)
        assert (d in sets["lsl"].digests) == (lsl is True), d
        assert (d in sets["lsl"].inconclusive) == (lsl is None), d
    total = len(schedules) + len(new_extras)
    for ss in sets.values():
        assert ss.total == total
        assert ss.partial == (len(schedules) >= budget)
    return sets


def test_pass_matches_reference_on_sweep_workloads():
    """Criterion 4's workloads and budgets."""
    processed = 0
    for w in sweep_workloads():
        processed += assert_pass_matches_reference(w, budget=400)["lsl"].total
        if processed >= 6000:
            break


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_pass_matches_reference_on_thm2(structure, instance):
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    sets = assert_pass_matches_reference(w, budget=20000)
    assert not sets["lsl"].partial


def test_pass_matches_reference_under_truncated_budget():
    """Thm. 3 at budget 250: the same first 250 leaves, a partial result,
    and sigma0, which lies outside them, classified by the reference path."""
    t = thm3_bundle(make_structure("sorted-list"))
    scheds, truncated = universe(t.workload, budget=250)
    assert truncated and len(scheds) == 250
    assert t.sigma0 not in scheds
    sets = assert_pass_matches_reference(t.workload, budget=250,
                                         extras=[t.sigma0, t.sigma0])
    assert sets["hoh"].total == 251 and sets["hoh"].partial
    assert t.sigma0 in sets["hoh"] and t.sigma0 not in sets["stm"]
    gap = optimality_gap("stm", t.workload, budget=250, extras=[t.sigma0])
    assert gap.total == 251 and gap.partial
    assert gap.accepted == len(sets["stm"].digests)
    assert gap.lsl == len(sets["lsl"].digests)


def test_leaf_audit_equals_audited_history():
    """The leaf's own world, audited in place, is the history that
    `audited_history` rebuilds by replaying the schedule."""
    w = thm2_bundle(make_structure("bst")).w_absent
    for leaf in itertools.islice(schedule_trie(w), 200):
        audited = leaf.audited(w)
        ref = audited_history(w, leaf.schedule)
        assert audited.render_json() == ref.render_json()
        assert audited.initial == ref.initial
        assert sorted(audited.ops) == sorted(ref.ops)


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_lsl_set_checks_once_per_leaf_signature(monkeypatch, structure, instance):
    """The memoized pass runs the LSL checker once per distinct leaf
    signature - at most 20 times on a Thm. 2 workload, against 924-3432
    schedules - and yields the set the unmemoized reference path gives."""
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return check_ls_linearizable(*args, **kwargs)

    monkeypatch.setattr(metric, "check_ls_linearizable", counting)
    got = metric.lsl_set(w)
    assert len(calls) <= 20
    monkeypatch.undo()
    keys = workload_keys(w)
    want = {leaf.schedule.digest() for leaf in schedule_trie(w)
            if check_ls_linearizable(leaf.audited(w), w.structure, keys,
                                     len(keys) + 1).verdict is True}
    assert got.digests == want
    assert got.total > 20 and not got.inconclusive
