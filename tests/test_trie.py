"""The one-pass classification against the reference path.

`schedule_trie` (through `classify`, `universe` and the metric functions)
must give every schedule the verdicts the reference path gives it: `drive`
per implementation, with the same rejection reason and failing slot, and
`check_ls_linearizable(audited_history(...))` for the LSL oracle.  The
leaves must come in the order of a plain recursive universe DFS, and carry
the digest and the LSL signature that are rebuilt from the leaf itself.
Forks share records and operations copy-on-write.
"""

import itertools
import random

import pytest

from schedlab import metric
from schedlab.checkers import check_ls_linearizable
from schedlab.fixtures import thm2_bundle, thm3_bundle
from schedlab.metric import (audited_history, classify, optimality_gap,
                             workload_keys)
from schedlab.model import ABORTED, COMPLETE, History, schedule_of
from schedlab.scheduler import (Workload, _fork, build_world, drive,
                                schedule_trie, universe)
from schedlab.seqspec import Operation, make_structure
from schedlab.sync import BLOCKED, restart

from oracles import leaf_signature
from test_acceptance import STRUCTURES, random_workload, sweep_workloads

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
    for leaf in leaves:
        assert leaf.digest == leaf.schedule.digest()
        assert leaf.signature() == leaf_signature(leaf)
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


# -- copy-on-write forks ------------------------------------------------------


def store_record(state):
    return (state.snapshot(), state.canonical(), state._canonical_bfs(),
            {n: r.alive for n, r in state.nodes.items()}, state.counter)


def gop_records(machines):
    return {p: {n: (r.snap(), r.alive) for n, r in m.gop.recs.items()}
            for p, m in machines.items()}


def mutate(state, rng):
    """One write, unlink or alloc on a random node of the store."""
    nid = rng.choice(sorted(state.nodes))
    kind = rng.choice(("write", "unlink", "alloc"))
    if kind == "write":
        labels = sorted(state.nodes[nid].edges) or ["next"]
        state.write_edges(nid, {rng.choice(labels):
                                rng.choice(sorted(state.nodes) + [None])})
    elif kind == "unlink":
        state.unlink(nid)
    else:
        state.alloc(99, 99, {"next": nid})


@pytest.mark.parametrize("structure", STRUCTURES)
def test_forks_are_isolated_copy_on_write(structure):
    """Random walks of every implementation's machines, forking at each
    step: a write, unlink or alloc in either world after a fork leaves the
    other world's store (records, liveness, ``canonical()``, whose memo
    both shared) unchanged, and no step changes a record a machine's G_op
    already holds."""
    rng = random.Random(f"cow:{structure}")
    d = make_structure(structure)
    for _ in range(60):
        world, machines, _ = build_world(rng.choice(("unsync", "hoh", "stm")),
                                         random_workload(d, rng))
        while True:
            world.state.canonical()
            w2, m2 = _fork(world, machines)
            w2.state.canonical()  # the memo shared with `world`
            (side, sm), (other, om) = rng.sample([(world, machines), (w2, m2)], 2)
            before, gops = store_record(other.state), gop_records(om)
            mutate(side.state, rng)
            assert store_record(other.state) == before
            assert gop_records(om) == gops
            assert side.state.canonical() == side.state._canonical_bfs()
            # walk on in the world that was not mutated
            live = [p for p, m in sorted(om.items()) if not m.finished]
            rng.shuffle(live)
            stepped = False
            for p in live:
                gops = gop_records(om)
                if om[p].step(other).kind == BLOCKED:
                    continue
                stepped = True
                after = gop_records(om)
                for q, recs in gops.items():
                    assert {n: after[q][n] for n in recs} == recs
                break
            if not stepped:
                break
            world, machines = other, om


def test_a_fork_restarts_an_aborted_operation_alone():
    """A fork shares a complete operation and its finished machine, but
    not an aborted one: restarting it in the fork leaves the original
    world's operation and machine aborted."""
    w = Workload(make_structure("sorted-list"), [Operation("insert", 1)],
                 [(1, Operation("insert", 2)), (2, Operation("insert", 2))])
    world, machines, _ = build_world("stm", w)
    while not all(m.finished for m in machines.values()):
        for m in machines.values():
            if not m.finished:
                m.step(world)
    loser = next(p for p, m in machines.items() if m.op.status == ABORTED)
    winner = 3 - loser
    w2, m2 = _fork(world, machines)
    assert m2[winner] is machines[winner]
    assert w2.ops[machines[winner].op.id] is world.ops[machines[winner].op.id]
    fresh = restart(m2[loser])
    while not fresh.finished:
        fresh.step(w2)
    assert fresh.op is w2.ops[fresh.op.id] and fresh.op.status == COMPLETE
    assert machines[loser].finished and machines[loser].op.status == ABORTED
    assert world.ops[fresh.op.id].status == ABORTED
