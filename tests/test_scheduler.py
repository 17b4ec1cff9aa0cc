"""Drive/enumerate/free-run behavior: determinism, acceptance soundness,
rejection reasons, and enumeration counts."""

import gc
import json
import math
import pickle
import random
import weakref

import pytest

from schedlab import cli, scheduler
from schedlab.checkers import (check_ls_linearizable, check_safe_strict,
                               check_strictly_serializable)
from schedlab.metric import accepted_set, optimality_gap
from schedlab.model import OI, RI, Schedule, Slot, complete, schedule_of
from schedlab.scheduler import (LivelockError, MalformedScheduleError,
                                Workload, drive, free_run, universe,
                                workload_keys)
from schedlab.seqspec import Operation, make_structure
from schedlab.sync import BLOCKED, EXCLUSIVE, HohMachine

from oracles import reference_free_run, render_json
from test_golden import thm2_scenario


def test_drive_is_deterministic(fig3_case):
    w, s = fig3_case
    r1, r2 = drive("hoh", w, s), drive("hoh", w, s)
    assert r1.verdict == r2.verdict
    assert render_json(r1.history) == render_json(r2.history)


def test_accepted_history_exports_the_schedule(fig2a_case):
    w, s = fig2a_case
    r = drive("stm", w, s)
    assert r.accepted
    assert schedule_of(complete(r.history).exported()) == s


def test_order_mismatch_rejects(fig2a_case):
    w, s = fig2a_case
    slots = list(s.slots)
    slots[4], slots[5] = slots[5], slots[4]  # p2 asked to read p1's next node
    bad = Schedule(tuple(slots))
    r = drive("stm", w, bad)
    if not r.accepted:
        assert r.reason in ("order-mismatch", "aborted")
    # a slot naming the wrong element is always an order mismatch
    slots = list(s.slots)
    slots[1] = Slot(1, RI, elem="key:3")
    r = drive("stm", w, Schedule(tuple(slots)))
    assert r.reason == "order-mismatch" and r.failing_slot == 1


def test_slot_for_finished_operation_is_malformed(fig2a_case):
    w, s = fig2a_case
    extended = Schedule(tuple(list(s.slots) + [Slot(1, RI, elem="root")]))
    with pytest.raises(MalformedScheduleError):
        drive("stm", w, extended)


def test_incomplete_schedule_is_malformed(fig2a_case):
    w, s = fig2a_case
    with pytest.raises(MalformedScheduleError):
        drive("stm", w, Schedule(s.slots[:5]))


def test_unknown_process_is_malformed(fig2a_case):
    w, s = fig2a_case
    with pytest.raises(MalformedScheduleError):
        drive("stm", w, Schedule((Slot(9, OI, op_name="insert", key=1),)))


def test_single_op_universe(structure):
    w = Workload(structure, [Operation("insert", 1)], [(1, Operation("find", 1))])
    scheds, truncated = universe(w)
    assert len(scheds) == 1 and not truncated
    for impl in ("hoh", "stm"):
        acc = accepted_set(impl, w)
        assert acc.total == 1 and len(acc.digests) == 1


def test_enumeration_count_matches_multinomial():
    # two finds on the empty bst: 3 slots each, no conflicts
    d = make_structure("bst")
    w = Workload(d, [], [(1, Operation("find", 1)), (2, Operation("find", 2))])
    scheds, _ = universe(w)
    assert len(scheds) == math.comb(6, 3) == 20
    acc = accepted_set("stm", w)
    assert acc.total == 20 and len(acc.digests) == 20
    assert math.comb(5, 2) == 10  # the closed form quoted for 2+3 steps


def test_enumeration_count_uneven_ops():
    d = make_structure("bst")
    w = Workload(d, [Operation("insert", 1)],
                 [(1, Operation("find", 1)), (2, Operation("find", 2))])
    scheds, _ = universe(w)
    # find(1): oi, R(root), R(X1), or; find(2): oi, R(root), R(X1), or
    per_op = {}
    for sl in scheds[0].slots:
        per_op[sl.proc] = per_op.get(sl.proc, 0) + 1
    n, k = sum(per_op.values()), min(per_op.values())
    assert len(scheds) == math.comb(n, k)


def test_universe_is_deterministic(fig2a_case):
    w, _ = fig2a_case
    a, _ = universe(w)
    b, _ = universe(w)
    assert [s.digest() for s in a] == [s.digest() for s in b]


def test_universe_budget_truncates(fig2a_case):
    w, _ = fig2a_case
    scheds, truncated = universe(w, budget=10)
    assert truncated and len(scheds) == 10


def test_monotone_rejection_by_sampling(fig2a_case):
    """A blocked prefix dooms every extension: re-drive the rejected
    schedule with shuffled suffixes."""
    w, s = fig2a_case
    r = drive("hoh", w, s)
    assert r.reason == "blocked" and r.failing_slot == 2
    prefix = list(s.slots[:3])
    suffix = list(s.slots[3:])
    for rot in range(1, 4):
        rotated = suffix[rot:] + suffix[:rot]
        try:
            out = drive("hoh", w, Schedule(tuple(prefix + rotated)))
        except MalformedScheduleError:
            continue
        assert not out.accepted
        assert out.failing_slot <= 2 or out.reason in ("blocked", "order-mismatch")


def test_free_run_empty_concurrent(structure):
    w = Workload(structure, [Operation("insert", 1), Operation("find", 1)], [])
    h = free_run("hoh", w, seed=0)
    assert [o.describe() for o in h.ops.values()] == ["insert(1)", "find(1)"]
    assert all(o.proc == 0 for o in h.ops.values())


def test_free_run_deterministic_per_seed(fig3_case):
    w, _ = fig3_case
    a = free_run("stm", w, seed=42)
    b = free_run("stm", w, seed=42)
    assert render_json(a) == render_json(b)


def test_free_run_restart_budget(monkeypatch):
    # seed 1 interleaves the two identical inserts, so the second commit
    # conflicts and restarts; with no restart budget that is fatal
    d = make_structure("sorted-list")
    w = Workload(d, [], [(1, Operation("insert", 1)), (2, Operation("insert", 1))])
    monkeypatch.setattr(scheduler, "FREE_RUN_RESTART_CAP", 0)
    with pytest.raises(LivelockError, match="restart budget 0 exhausted"):
        free_run("stm", w, seed=1)
    monkeypatch.setattr(scheduler, "FREE_RUN_RESTART_CAP", 5)
    h = free_run("stm", w, seed=1)
    assert any(e.attempt > 0 for e in h.events)  # a restart happened
    assert sorted(o.response for o in h.ops.values()) == [False, True]


# -- deadlock detection: would_block against the fork-peek reference --------


def fork_peek(machine, world):
    """The reference for ``would_block``: step a fork of the machine in a
    fork of the world and report whether that step blocked."""
    if machine.finished:
        return False
    w2 = world.clone()
    return machine.clone(w2.ops).step(w2).kind == BLOCKED


def world_record(world):
    locks = world.locks
    return (world.state.snapshot(),
            {n: r.alive for n, r in world.state.nodes.items()},
            {n: set(s) for n, s in locks.shared.items()}, dict(locks.exclusive),
            {n: list(q) for n, q in locks.queues.items()},
            dict(world.versions),
            list(world.events),
            {i: vars(o).copy() for i, o in world.ops.items()})


def machine_record(m):
    # the structure definition is shared and immutable: compare it by identity
    return m.def_, pickle.dumps({k: v for k, v in vars(m).items() if k != "def_"})


@pytest.mark.parametrize("reference", [False, True],
                         ids=["would_block", "fork-peek"])
def test_free_run_reports_a_deadlock(monkeypatch, reference):
    """A root lock held by something that is no machine blocks every hoh
    operation at its invocation: the free run must report a deadlock."""
    spawn = scheduler._spawn

    def spawn_beside_an_outside_holder(impl, w, world):
        machines = spawn(impl, w, world)
        world.locks.try_acquire(world.state.root, EXCLUSIVE, -1)
        return machines

    monkeypatch.setattr(scheduler, "_spawn", spawn_beside_an_outside_holder)
    if reference:
        monkeypatch.setattr(HohMachine, "would_block", fork_peek)
    w = Workload(make_structure("sorted-list"), [Operation("insert", 2)],
                 [(1, Operation("insert", 1)), (2, Operation("find", 2))])
    with pytest.raises(LivelockError) as err:
        free_run("hoh", w, seed=3)
    assert str(err.value) == "all machines blocked: deadlock"


def random_free_workload(rng, structure):
    keys = (1, 2, 3, 4, 5)
    setup = [Operation("insert", k) for k in rng.sample(keys, rng.randint(0, 3))]
    concurrent = [(p + 1, Operation(rng.choice(("insert", "delete", "find")),
                                    rng.choice(keys)))
                  for p in range(rng.randint(4, 5))]
    return Workload(structure, setup, concurrent)


@pytest.mark.parametrize("name", ["sorted-list", "bst", "skiplist"])
def test_would_block_matches_the_fork_peek(monkeypatch, name):
    """Seeded hoh free runs: at every blocked-everywhere check, each
    machine's ``would_block`` equals the fork-peek and leaves the world and
    the machine as they were; the check asks the process that last
    progressed first, then the other unfinished ones in process order,
    each once; every history equals the one a free run asking the
    fork-peek produces."""
    would_block, step = HohMachine.would_block, HohMachine.step
    spawn_machines = scheduler._spawn
    spawned = []
    checks = []
    probes = []  # per check: the probe order it must follow, the probes made
    last = [None]  # the process whose step last did not block, in this run
    opens = [False]  # whether the next probe opens a check

    def spawn(impl, w, world):
        spawned.append(spawn_machines(impl, w, world))
        last[0] = None
        return spawned[-1]

    def stepped(self, world):
        out = step(self, world)
        if spawned and spawned[-1].get(self.op.proc) is self:  # not a fork-peek's clone
            if out.kind == BLOCKED:
                opens[0] = True
            else:
                last[0] = self.op.proc
        return out

    def checked(self, world):
        machines = spawned[-1]
        # each blocked step of the run opens one blocked-everywhere check
        if opens[0]:
            opens[0] = False
            answers, world_before = [], world_record(world)
            for m in machines.values():
                machine_before = machine_record(m)
                answers.append(would_block(m, world))
                assert machine_record(m) == machine_before
                assert world_record(world) == world_before
                assert answers[-1] == fork_peek(m, world)
            checks.append(answers)
            lead = last[0] if last[0] is not None and not machines[last[0]].finished else None
            order = [lead] * (lead is not None) + [p for p, m in machines.items()
                                                    if p != last[0] and not m.finished]
            probes.append((order, []))
        probes[-1][1].append(self.op.proc)
        return would_block(self, world)

    structure = make_structure(name)
    rng = random.Random(name)
    for _ in range(300):
        w, seed = random_free_workload(rng, structure), rng.randrange(1 << 31)
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "_spawn", spawn)
            patch.setattr(HohMachine, "step", stepped)
            patch.setattr(HohMachine, "would_block", checked)
            fast = free_run("hoh", w, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(HohMachine, "would_block", fork_peek)
            reference = free_run("hoh", w, seed=seed)
        assert render_json(fast) == render_json(reference)
    # the checks saw machines that would block and machines that would not
    assert len(checks) > 1000
    assert any(any(a) for a in checks) and any(not all(a) for a in checks)
    # each check probed a prefix of its order, and some led with the last runner
    assert len(probes) == len(checks)
    assert all(asked == order[:len(asked)] and asked for order, asked in probes)
    assert any(order[0] != min(order) for order, _ in probes)


@pytest.mark.parametrize("name", ["sorted-list", "bst", "skiplist"])
def test_free_run_matches_the_reference_loop(monkeypatch, name):
    """The kept live list and the probe order change no draw and no verdict:
    over seeded hoh and stm runs, some with lowered caps, each free run's
    events, or its LivelockError's message and the events up to it, equal
    those of the loop that re-sorts the live processes at every step and
    probes in process order."""
    spawn_machines = scheduler._spawn
    worlds = []

    def spawn(impl, w, world):
        worlds.append(world)
        return spawn_machines(impl, w, world)

    def outcome(run, impl, w, seed):
        try:
            return run(impl, w, seed=seed).events_json(), None
        except LivelockError as err:
            return [e.to_json() for e in worlds[-1].events], str(err)

    monkeypatch.setattr(scheduler, "_spawn", spawn)
    structure = make_structure(name)
    rng = random.Random(f"reference loop {name}")
    errors = set()
    for i in range(600):
        impl = ("hoh", "stm")[i % 2]
        w, seed = random_free_workload(rng, structure), rng.randrange(1 << 31)
        monkeypatch.setattr(scheduler, "FREE_RUN_STEP_CAP", 30 if i % 7 == 0 else 100000)
        monkeypatch.setattr(scheduler, "FREE_RUN_RESTART_CAP", 0 if i % 5 == 1 else 100)
        kept = outcome(free_run, impl, w, seed)
        assert kept == outcome(reference_free_run, impl, w, seed)
        errors.add(kept[1])
    assert errors == {None, "no progress after 30 steps", "restart budget 0 exhausted"}


def gap_on_a_new_structure() -> weakref.ref:
    """Run an optimality gap on a structure made for it; return a weak
    reference to the structure."""
    d = make_structure("bst")
    w = Workload(d, [Operation("insert", 2)],
                 [(1, Operation("insert", 1)), (2, Operation("find", 1))])
    assert optimality_gap("hoh", w, budget=500).lsl > 0
    return weakref.ref(d)


def test_free_runs_and_their_checks_leave_no_cycles(tmp_path, capsys):
    """Seeded free runs of every structure under hoh and stm, restarts
    included, each checked for LSL, safe-strict and strict serializability,
    then an optimality gap on a new structure, all with the cyclic collector
    off: reference counting frees the structure, and the collector then
    finds nothing to free.  Nor does it after 20 ``schedlab explore``
    calls in the same process on the Thm. 2 scenarios, text and ``--json``
    reports in turn."""
    scenarios = []
    for name in ("sorted-list", "bst"):
        for instance in ("w_present", "w_absent"):
            path = tmp_path / f"{name}_{instance}.json"
            path.write_text(json.dumps(thm2_scenario(name, instance, "hoh")))
            scenarios.append(str(path))
    structures = [make_structure(n) for n in ("sorted-list", "bst", "skiplist")]
    rng = random.Random("no cycles")
    restarted = 0
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(200):
            d = structures[i % 3]
            w = random_free_workload(rng, d)
            h = free_run(("hoh", "stm")[i // 3 % 2], w, seed=rng.randrange(1 << 31))
            restarted += any(e.attempt > 0 for e in h.events)
            keys = workload_keys(w)
            check_ls_linearizable(h, d, keys, len(keys) + 1)
            check_safe_strict(h)
            check_strictly_serializable(h)
        structure = gap_on_a_new_structure()
        assert structure() is None
        assert gc.collect() == 0
        for i in range(20):
            json_flag = ["--json"] if i % 2 else []
            assert cli.main([*json_flag, "explore", scenarios[i % 4]]) == 0
        reports = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("workload ") for line in reports) == 10
        assert sum(line == "{" for line in reports) == 10
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert restarted > 0
