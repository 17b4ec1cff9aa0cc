"""Lock manager, version store, and the step machines' protocols."""

import json
import random
from dataclasses import FrozenInstanceError
from importlib import resources

import pytest

from schedlab import scheduler
from schedlab.cli import parse_scenario
from schedlab.model import ABORTED, INCOMPLETE, OI, RR, WR, OperationInstance
from schedlab.scheduler import (Workload, build_world, drive, free_run,
                                universe)
from schedlab.seqspec import Operation, make_structure
from schedlab.sync import (ABORT_OUT, BLOCKED, EXCLUSIVE, FINISHED,
                           PROGRESSED, SHARED, LockManager, StepMachine,
                           StepOutcome, World, make_machine, restart)
from schedlab.checkers import _Replay

from oracles import lock_audit, release_holder, rw_trace
from test_acceptance import random_workload


# -- lock manager ---------------------------------------------------------------


def test_shared_locks_coexist():
    lm = LockManager()
    assert lm.try_acquire(1, SHARED, 10)
    assert lm.try_acquire(1, SHARED, 11)
    lock_audit(lm)


def test_exclusive_excludes_everyone():
    lm = LockManager()
    assert lm.try_acquire(1, EXCLUSIVE, 10)
    assert not lm.try_acquire(1, SHARED, 11)
    assert not lm.try_acquire(1, EXCLUSIVE, 12)
    lm.release(1, 10)
    # FIFO: 11 queued first, 12 cannot barge
    assert not lm.try_acquire(1, EXCLUSIVE, 12)
    assert lm.try_acquire(1, SHARED, 11)


def test_fifo_no_barging():
    lm = LockManager()
    assert lm.try_acquire(1, SHARED, 10)
    assert not lm.try_acquire(1, EXCLUSIVE, 11)  # queued
    assert not lm.try_acquire(1, SHARED, 12)     # waits behind the writer
    lm.release(1, 10)
    assert not lm.try_acquire(1, SHARED, 12)
    assert lm.try_acquire(1, EXCLUSIVE, 11)


def test_acquire_all_is_atomic():
    lm = LockManager()
    lm.try_acquire(2, EXCLUSIVE, 99)
    assert lm.acquire_all([1, 2, 3], EXCLUSIVE, 10) == 2
    assert lm.held_mode(1, 10) == "free"
    assert lm.held_mode(3, 10) == "free"


def test_reentrant_hold():
    lm = LockManager()
    assert lm.try_acquire(1, EXCLUSIVE, 10)
    assert lm.try_acquire(1, EXCLUSIVE, 10)
    assert lm.try_acquire(1, SHARED, 10)


def lock_table(lm):
    return ({n: set(s) for n, s in lm.shared.items()}, dict(lm.exclusive),
            {n: list(q) for n, q in lm.queues.items()})


def test_can_acquire_does_not_queue_or_barge():
    lm = LockManager()
    assert lm.try_acquire(1, SHARED, 10)
    before = lock_table(lm)
    assert not lm.can_acquire(1, EXCLUSIVE, 11)
    assert lock_table(lm) == before  # 11 did not join the queue
    assert lm.can_acquire(1, SHARED, 12)
    assert not lm.try_acquire(1, EXCLUSIVE, 11)  # now queued
    assert not lm.can_acquire(1, SHARED, 12)     # no barging past 11
    lm.release(1, 10)
    assert lm.can_acquire(1, EXCLUSIVE, 11)


def test_can_acquire_agrees_with_try_acquire():
    """Random lock traffic: before every request, can_acquire predicts
    try_acquire's result and leaves holders and queues untouched."""
    rng = random.Random(7)
    for _ in range(200):
        lm = LockManager()
        for _ in range(40):
            nid, holder = rng.randrange(3), rng.randrange(4)
            action = rng.random()
            if action < 0.2:
                lm.release(nid, holder)
            elif action < 0.25:
                release_holder(lm, holder)
            else:
                mode = rng.choice((SHARED, EXCLUSIVE))
                before = lock_table(lm)
                predicted = lm.can_acquire(nid, mode, holder)
                assert lock_table(lm) == before
                assert lm.try_acquire(nid, mode, holder) == predicted
            lock_audit(lm)


# -- hoh ------------------------------------------------------------------------


def make_solo(impl, def_, op, world=None):
    w = world or World(def_.new_state())
    inst = OperationInstance(id=len(w.ops), proc=len(w.ops) + 1,
                             name=op.name, key=op.key, val=op.val)
    w.ops[inst.id] = inst
    return w, make_machine(impl, def_, inst)


def test_hoh_second_update_blocks_on_root(structure):
    world, m1 = make_solo("hoh", structure, Operation("insert", 1))
    _, m2 = make_solo("hoh", structure, Operation("insert", 2), world)
    assert m1.step(world).kind == PROGRESSED  # takes the root lock
    out = m2.step(world)
    assert out.kind == BLOCKED and out.blocked_on == world.state.root


def test_hoh_solo_find_on_empty(structure):
    world, m = make_solo("hoh", structure, Operation("find", 3))
    while not m.finished:
        out = m.step(world)
        assert out.kind in (PROGRESSED, FINISHED)
    assert m.op.response is False
    assert not world.locks.shared.get(world.state.root)
    assert all(not holders for holders in world.locks.shared.values())
    assert not world.locks.exclusive


def held_locks(world):
    """The lock tables, empty holder sets and queues dropped."""
    lm = world.locks
    return ({n: hs for n, hs in lm.shared.items() if hs}, lm.exclusive,
            {n: q for n, q in lm.queues.items() if q})


def test_hoh_find_holds_only_last_read_node(structure):
    """After each step, a find holds one shared lock, on the last node it
    read (the root before its first read); an update holds the root, plus
    its write targets from its first write to its response.  Neither
    holds anything once finished."""
    w = Workload(structure, [Operation("insert", k) for k in (1, 2, 3)],
                 [(1, Operation("find", 3)), (2, Operation("delete", 2)),
                  (3, Operation("insert", 4))])
    world, machines, _ = build_world("hoh", w)
    root = world.state.root
    find = machines[1]
    last_read, reads = root, 0
    while not find.finished:
        out = find.step(world)
        assert out.kind != BLOCKED
        for e in out.events:
            if e.kind == RR:
                last_read, reads = e.nid, reads + 1
        held = {} if find.finished else {last_read: {find.op.id}}
        assert held_locks(world) == (held, {}, {})
    assert reads >= 3  # two hand-overs
    for update in (machines[2], machines[3]):
        writing = False
        while not update.finished:
            out = update.step(world)
            assert out.kind != BLOCKED
            writing = writing or any(e.kind == WR for e in out.events)
            held = {} if update.finished else dict.fromkeys(
                [root] + (update.write_targets() if writing else []), update.op.id)
            assert held_locks(world) == ({}, held, {})
        assert update.op.response is True and update.write_targets()


def test_hoh_never_aborts_stm_never_blocks(fig2a_case):
    w, _ = fig2a_case
    scheds, _ = universe(w, budget=200)
    for s in scheds[:40]:
        r = drive("hoh", w, s)
        assert r.reason != "aborted"
        r = drive("stm", w, s)
        assert r.reason != "blocked"


# -- stm ------------------------------------------------------------------------


def test_stm_read_aborts_after_conflicting_commit():
    d = make_structure("sorted-list")
    w = Workload(d, [Operation("insert", 2)],
                 [(1, Operation("find", 2)), (2, Operation("delete", 2))])
    world, machines, _ = build_world("stm", w)
    finder, deleter = machines[1], machines[2]
    finder.step(world)                 # oi
    assert finder.step(world).kind == PROGRESSED  # R(root)
    while not deleter.finished:        # delete(2) commits, bumping root
        deleter.step(world)
    out = finder.step(world)           # next read revalidates the read set
    assert out.kind == ABORT_OUT
    assert finder.op.status == ABORTED


def test_stm_no_conflict_no_abort(structure):
    w = Workload(structure, [Operation("insert", 1)],
                 [(1, Operation("find", 1)), (2, Operation("find", 1))])
    world, machines, _ = build_world("stm", w)
    for proc in (1, 2):
        m = machines[proc]
        while not m.finished:
            assert m.step(world).kind in (PROGRESSED, FINISHED)
        assert m.op.response is True


@pytest.mark.parametrize("op", [Operation("insert", 2), Operation("delete", 3)],
                         ids=["insert", "delete"])
def test_stm_commit_installs_the_plan(structure, op):
    """``stm``'s write steps leave the store and the versions as they
    were; the response installs exactly the plan's patches and unlinks,
    and takes each written node's version from 0 to 1."""
    w = Workload(structure, [Operation("insert", k) for k in (1, 3)], [(1, op)])
    world, machines, _ = build_world("stm", w)
    m = machines[1]
    canon = world.state.canonical()
    while m.plan is None or m.write_idx < len(m.plan.writes):
        assert m.step(world).kind == PROGRESSED
        assert world.state.canonical() == canon
        assert world.versions == {}
    before = dict(world.state.nodes)
    assert m.step(world).kind == FINISHED
    patches = dict(m.plan.writes)
    assert patches and len(patches) == len(m.plan.writes)
    changed = {n for n, rec in world.state.nodes.items() if rec is not before[n]}
    assert changed == set(patches) | set(m.plan.unlink)
    for n in changed:
        old, new = before[n], world.state.nodes[n]
        assert new.edges == {**old.edges, **patches.get(n, {})}
        assert new.alive == (n not in m.plan.unlink)
        assert (new.key, new.val) == (old.key, old.val)
    assert world.versions == dict.fromkeys(patches, 1)


def test_stm_two_writers_buffer_then_second_commit_aborts():
    d = make_structure("sorted-list")
    w = Workload(d, [], [(1, Operation("insert", 1)), (2, Operation("insert", 1))])
    world, machines, _ = build_world("stm", w)
    m1, m2 = machines[1], machines[2]
    # interleave traversals, then both buffer writes: no conflict yet
    outs = []
    while m1.plan is None or m2.plan is None or \
            m1.write_idx < len(m1.plan.writes) or m2.write_idx < len(m2.plan.writes):
        for m in (m1, m2):
            if not m.finished:
                out = m.step(world)
                outs.append(out.kind)
    assert ABORT_OUT not in outs  # buffering never conflicts
    assert m1.step(world).kind == FINISHED     # first commit wins
    assert m2.step(world).kind == ABORT_OUT    # second validates and aborts


def test_stm_write_only_commit_is_unconditional():
    # no operation in this op set is write-only (every traversal reads the
    # root), so exercise the commit path directly: an empty read set
    # validates against anything
    from schedlab.seqspec import UpdatePlan
    d = make_structure("sorted-list")
    world, m = make_solo("stm", d, Operation("insert", 1))
    m.invoked = True
    m.plan = UpdatePlan(True, writes=[(world.state.root, {"next": None})])
    world.versions[world.state.root] = 1  # concurrent commit elsewhere
    assert m.step(world).kind == PROGRESSED  # buffer
    assert m.step(world).kind == FINISHED    # commit despite the bump


@pytest.mark.parametrize("impl", ["unsync", "hoh", "stm"])
def test_only_stm_keeps_versions(structure, impl):
    """Versions exist for ``stm``'s validation alone: ``unsync`` and
    ``hoh`` machines run to completion leave their world with none."""
    w = Workload(structure, [Operation("insert", 1), Operation("insert", 5)],
                 [(1, Operation("insert", 3)), (2, Operation("delete", 5)),
                  (3, Operation("find", 1))])
    world, machines, _ = build_world(impl, w)
    while not all(m.finished for m in machines.values()):
        for m in machines.values():
            if not m.finished:
                m.step(world)
    # the first stm commit validates against no other commit and bumps
    assert (world.versions != {}) == (impl == "stm")


def test_restart_preserves_identity():
    """A restart is a fresh machine of the same class for the same
    operation instance, on the next attempt."""
    d = make_structure("sorted-list")
    w = Workload(d, [Operation("insert", 1)],
                 [(1, Operation("insert", 2)), (2, Operation("insert", 2))])
    for impl in ("stm", "stm-commit-only"):
        world, machines, _ = build_world(impl, w)
        m1, m2 = machines[1], machines[2]
        while not m1.finished or not m2.finished:
            for m in (m1, m2):
                if not m.finished:
                    m.step(world)
        loser = m1 if m1.op.status == ABORTED else m2
        fresh = restart(loser)
        assert type(fresh) is type(loser)
        assert fresh.op is loser.op
        assert fresh.attempt == loser.attempt + 1
        assert fresh.op.status == "incomplete"
        while not fresh.finished:
            out = fresh.step(world)
            assert out.kind in (PROGRESSED, FINISHED)
        assert fresh.op.response is False  # the key is present now
    with pytest.raises(ValueError, match="unknown implementation"):
        make_machine("tl2", d, m1.op)


def test_free_run_identical_inserts_exactly_one_true(structure):
    w = Workload(structure, [Operation("insert", 1)],
                 [(1, Operation("insert", 3)), (2, Operation("insert", 3))])
    for seed in range(6):
        h = free_run("stm", w, seed=seed)
        resp = sorted(o.response for o in h.ops.values() if o.proc != 0)
        assert resp == [False, True]
        assert sorted(h.ops[max(h.ops)].response
                      for _ in [0]) is not None  # responses recorded


def test_free_run_hoh_zero_restarts(structure):
    w = Workload(structure, [Operation("insert", 2)],
                 [(1, Operation("insert", 1)), (2, Operation("delete", 2)),
                  (3, Operation("find", 1))])
    for seed in range(6):
        h = free_run("hoh", w, seed=seed)
        assert all(e.attempt == 0 for e in h.events)
        assert all(o.is_complete() for o in h.ops.values())


def test_round_robin_retry_completes(structure):
    """Deadlock-freedom at desk scale: blocked machines retried under
    seeded random turns always finish, across update-heavy and mixed
    workloads."""
    shapes = [
        [(1, Operation("insert", 3)), (2, Operation("delete", 2)),
         (3, Operation("find", 4))],
        [(1, Operation("insert", 1)), (2, Operation("insert", 3)),
         (3, Operation("delete", 4))],
        [(1, Operation("find", 2)), (2, Operation("find", 4)),
         (3, Operation("delete", 2))],
    ]
    for concurrent in shapes:
        w = Workload(structure, [Operation("insert", 2), Operation("insert", 4)],
                     concurrent)
        for seed in range(10):
            h = free_run("hoh", w, seed=seed)
            assert all(o.is_complete() for o in h.ops.values())


def test_lock_audit_after_accepted_drive(fig3_case):
    w, s = fig3_case
    world, machines, _ = build_world("hoh", w)
    for slot in s.slots:
        machines[slot.proc].step(world)
    lock_audit(world.locks)
    assert not world.locks.exclusive
    assert all(not hs for hs in world.locks.shared.values())


def test_hoh_updates_serialize_in_root_lock_order(fig3_history):
    """The update operations replay legally in the order they acquired the
    root lock (their invocation order under hoh)."""
    h = fig3_history
    updates = [i for i, o in sorted(h.ops.items()) if o.name != "find"]
    order = sorted(updates, key=lambda i: next(e.seq for e in h.events
                                               if e.op == i and e.kind == OI))
    rp = _Replay(h.initial)
    for i in order:
        assert rp.apply(rw_trace(h, i))


def test_every_step_outcome_is_a_frozen_step_outcome(monkeypatch):
    """The machines build each ``StepOutcome`` without the dataclass
    ``__init__``; an outcome of every kind, from free runs under contention,
    equals the one ``StepOutcome(...)`` builds from its fields and cannot
    be assigned to."""
    outcomes = {}
    step = StepMachine.step

    def recording(self, world):
        out = step(self, world)
        outcomes.setdefault(out.kind, []).append(out)
        return out

    monkeypatch.setattr(StepMachine, "step", recording)
    d = make_structure("sorted-list")
    w = Workload(d, [Operation("insert", 2)],
                 [(p, Operation(name, 2)) for p, name in
                  enumerate(("insert", "delete", "find", "delete"), 1)])
    for seed in range(20):
        for impl in ("hoh", "stm"):
            free_run(impl, w, seed=seed)
    assert set(outcomes) == {PROGRESSED, BLOCKED, ABORT_OUT, FINISHED}
    for kind, outs in outcomes.items():
        for out in outs:
            built = StepOutcome(**vars(out))
            assert type(out) is StepOutcome and out == built and vars(out) == vars(built)
        with pytest.raises(FrozenInstanceError):
            outs[0].kind = PROGRESSED
    assert all(out.blocked_on is not None for out in outcomes[BLOCKED])
    assert all(out.reason.startswith("conflict on ") for out in outcomes[ABORT_OUT])


# -- facts read off the record that holds them ------------------------------------


def test_numbers_and_finished_follow_from_the_records(monkeypatch):
    """An event's ``seq``, a node's id and whether a machine is finished are
    not stored beside what determines them.  Over seeded free runs of
    ``hoh``, ``stm`` and ``stm-commit-only`` (aborts and restarts
    included) and drives of every bundled scenario under each of them (a
    run scenario's schedule, the first schedules of an explore scenario's
    universe): each event's ``seq`` is its index in its world's events,
    the store's node ids are 0..n-1 in allocation order, and a restarted
    machine is unfinished, its operation incomplete with no response."""
    worlds, restarted, runs = [], [], 0
    build, fresh = scheduler.build_world, scheduler.restart

    def recording_build(impl, w):
        built = build(impl, w)
        worlds.append(built[0])
        return built

    def recording_restart(machine):
        m = fresh(machine)
        restarted.append((m.finished, m.op.status, m.op.response))
        return m

    monkeypatch.setattr(scheduler, "build_world", recording_build)
    monkeypatch.setattr(scheduler, "restart", recording_restart)
    impls = ("hoh", "stm", "stm-commit-only")
    rng = random.Random(31)
    for name in ("sorted-list", "bst", "skiplist"):
        d = make_structure(name)
        for seed in range(30):
            w = random_workload(d, rng)
            for impl in impls:
                free_run(impl, w, seed=seed)
                runs += 1
    scenarios = resources.files("schedlab").joinpath("scenarios")
    for path in sorted(scenarios.iterdir(), key=lambda p: p.name):
        sc = parse_scenario(json.loads(path.read_text()))
        schedules = ([sc["schedule"]] if sc["mode"] == "drive"
                     else universe(sc["workload"], budget=20)[0])
        for s in schedules:
            for impl in impls:
                drive(impl, sc["workload"], s)
                runs += 1
    assert restarted and set(restarted) == {(False, INCOMPLETE, None)}
    assert len(worlds) == runs
    for world in worlds:
        assert [e.seq for e in world.events] == list(range(len(world.events)))
        assert list(world.state.nodes) == list(range(len(world.state.nodes)))
