"""Event/history/schedule layer: projections, orders, and erasure."""

from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st

from schedlab.model import (OI, OR, RI, RR, WI, WR, Event, History, Slot,
                            complete, schedule_of, slot_of)
from schedlab.checkers import precedence
from schedlab.scheduler import Workload, drive, free_run
from schedlab.seqspec import Operation, make_structure
from schedlab.sync import World

from oracles import (op_intervals, precedes, project_process,
                     restrict_to_operation, sequential_run, well_formed)


def kinds_and_elems(events):
    return [(e.kind, e.elem) for e in events if e.kind in (OI, RI, WI, OR)]


def test_project_process_fig2a(fig2a_case):
    w, s = fig2a_case
    h = drive("stm", w, s).history
    p1 = project_process(h, 1)
    assert kinds_and_elems(p1.events) == [
        (OI, None), (RI, "root"), (RI, "key:1"), (OR, None)]
    assert p1.ops[3].response is False
    assert well_formed(p1)


def test_project_process_empty():
    h = History()
    assert project_process(h, 7).events == []


def test_project_process_partitions_events(fig3_history):
    h = fig3_history
    procs = {e.proc for e in h.events}
    projected = [e for p in sorted(procs) for e in project_process(h, p).events]
    assert sorted(e.seq for e in projected) == [e.seq for e in h.events]
    for p in procs:
        assert well_formed(project_process(h, p))


def test_complete_drops_aborted_and_incomplete(fig2b_case):
    w, s = fig2b_case
    res = drive("stm", w, s)
    assert res.reason == "aborted"
    h = res.history
    aborted = [i for i, o in h.ops.items() if o.status == "aborted"]
    assert len(aborted) == 1
    c = complete(h)
    assert all(e.op not in aborted for e in c.events)
    assert all(o.is_complete() for o in c.ops.values())


def test_complete_keeps_fully_complete_history(fig3_history):
    c = complete(fig3_history)
    assert [e.seq for e in c.events] == [e.seq for e in fig3_history.events]


def test_restrict_to_operation_fig3_find(fig3_history):
    h = fig3_history
    find_id = next(i for i, o in h.ops.items() if o.name == "find")
    evs = restrict_to_operation(h, find_id)
    assert kinds_and_elems(evs) == [
        (OI, None), (RI, "root"), (RI, "key:1"), (RI, "key:3"),
        (RI, "key:4"), (RI, "key:5"), (OR, None)]


def test_restrict_to_operation_drops_abort_pair(fig2b_case):
    w, s = fig2b_case
    h = drive("stm", w, s).history
    ab = next(i for i, o in h.ops.items() if o.status == "aborted")
    evs = restrict_to_operation(h, ab)
    assert all(not e.is_abort() for e in evs)
    # the invocation paired with the abort response is dropped with it
    assert evs[-1].kind not in (RI, WI)


def test_restrict_to_operation_invocation_only():
    inst_events = [Event(0, 1, 0, OI, value=["find", 1])]
    from schedlab.model import OperationInstance
    h = History(inst_events, {0: OperationInstance(0, 1, "find", 1)})
    assert restrict_to_operation(h, 0) == inst_events


def test_precedes_fig3(fig3_history):
    h = fig3_history
    ids = {o.name + str(o.key): i for i, o in h.ops.items()}
    ins2, ins5, find5 = ids["insert2"], ids["insert5"], ids["find5"]
    assert precedes(h, ins2, ins5)
    assert not precedes(h, find5, ins2)  # concurrent
    assert not precedes(h, ins2, find5)
    assert not precedes(h, find5, find5)


@given(st.integers(0, 11))
@settings(max_examples=12, deadline=None)
def test_precedes_strict_partial_order(seed):
    d = make_structure("sorted-list")
    w = Workload(d, [Operation("insert", 2)],
                 [(1, Operation("insert", 1)), (2, Operation("delete", 2)),
                  (3, Operation("find", 1))])
    h = free_run("hoh", w, seed=seed)
    ops = list(h.ops)
    for a in ops:
        assert not precedes(h, a, a)
        for b in ops:
            if precedes(h, a, b):
                assert not precedes(h, b, a)
            for c in ops:
                if precedes(h, a, b) and precedes(h, b, c):
                    assert precedes(h, a, c)


def test_schedule_of_erases_values(fig2a_case):
    w, s = fig2a_case
    h = drive("stm", w, s).history
    assert schedule_of(h) == s
    # changing read-response values must not change the schedule
    bent = History([replace(e, value={"key": 9, "val": 9, "edges": {}})
                    if e.kind == RR else e for e in h.events], h.ops, h.initial)
    assert schedule_of(bent) == s


def test_schedule_of_sequential_history():
    d = make_structure("sorted-list")
    _, _, h = sequential_run(d, [Operation("insert", 1)])
    sched = schedule_of(h)
    kinds = [sl.kind for sl in sched.slots]
    assert kinds[0] == OI and kinds[-1] == OR
    assert kinds[1:-1] and all(k in (RI, WI) for k in kinds[1:-1])


def test_schedule_digest_stable_across_impls(fig2a_case):
    w, s = fig2a_case
    h_stm = drive("stm", w, s).history
    h_un = None
    from schedlab.scheduler import build_world
    world, machines, start = build_world("unsync", w)
    for slot in s.slots:
        machines[slot.proc].step(world)
    h_un = History(world.events[start:], world.ops, {})
    assert schedule_of(h_stm).digest() == schedule_of(h_un).digest()


def test_schedule_json_roundtrip(fig3_case):
    _, s = fig3_case
    from schedlab.model import Schedule
    assert Schedule.from_json(s.to_json()) == s


def test_event_json_field_order(fig3_history):
    ev = next(e for e in fig3_history.events if e.kind == RR)
    keys = list(ev.to_json().keys())
    assert keys == ["seq", "proc", "op", "kind", "elem", "value"]


def test_exported_drops_abort_events(fig2b_case):
    w, s = fig2b_case
    h = drive("stm", w, s).history
    assert any(e.is_abort() for e in h.events)
    hx = h.exported()
    assert not any(e.is_abort() for e in hx.events)
    assert well_formed(hx)


def test_precedes_skips_abort_responses():
    """An aborted attempt's abort response is no response of its
    operation, as in ``op_intervals``: at seed 66 op 1's first attempt
    aborts before op 3 is invoked, and op 1 responds only after it.  On
    each run's exported history, ``checkers.precedence`` orders exactly
    the pairs whose intervals are ordered."""
    w = Workload(make_structure("sorted-list"), [Operation("insert", 1)],
                 [(1, Operation("insert", 2)), (2, Operation("delete", 1)),
                  (3, Operation("insert", 3))])
    h = free_run("stm", w, seed=66)
    iv = op_intervals(h)
    assert iv[3][0] < iv[1][1] and not precedes(h, 1, 3)
    for seed in range(100):
        h = free_run("stm", w, seed=seed)
        iv = op_intervals(h)
        assert all(precedes(h, a, b) == (iv[a][1] < iv[b][0])
                   for a in h.ops for b in h.ops if a != b)
        hx = h.exported()
        iv = op_intervals(hx)
        assert precedence(hx) == {(a, b) for a in iv for b in iv
                                  if iv[a][1] < iv[b][0]}


def test_emitted_event_is_a_frozen_event():
    """``World.emit`` fills the instance dict directly; the event still
    equals and hashes like one built by ``Event(...)``, `replace` works on
    it, and it cannot be assigned to."""
    world = World(make_structure("sorted-list").new_state())
    world.emit(0, 0, OI, value=["find", 1])
    ev = world.emit(1, 2, RR, elem="root", value={"key": "-inf"}, nid=0, attempt=3)
    built = Event(1, 1, 2, RR, "root", {"key": "-inf"}, 0, 3)
    assert ev == built and vars(ev) == vars(built)
    assert hash(replace(ev, value=None)) == hash(replace(built, value=None))
    moved = replace(ev, seq=7, attempt=1)
    assert (moved.seq, moved.attempt, moved.elem, ev.seq) == (7, 1, "root", 1)
    with pytest.raises(FrozenInstanceError):
        ev.seq = 5
    with pytest.raises(FrozenInstanceError):
        ev.attempt = 2


def test_slot_of_builds_a_frozen_slot():
    """``slot_of`` fills the instance dict directly; each slot it gives, for
    an oi, ri, wi or or event, equals and hashes like the one built by
    ``Slot(...)`` and cannot be assigned to.  A read or write response
    occupies no slot."""
    world = World(make_structure("sorted-list").new_state())
    built = {OI: Slot(2, OI, op_name="insert", key=3), RI: Slot(2, RI, elem="root"),
             WI: Slot(2, WI, elem="key:3"), OR: Slot(2, OR)}
    events = {OI: world.emit(2, 1, OI, value=["insert", 3]),
              RI: world.emit(2, 1, RI, elem="root", nid=0),
              WI: world.emit(2, 1, WI, elem="key:3", value={"edges": {}}, nid=1),
              OR: world.emit(2, 1, OR, value=True)}
    for kind, ev in events.items():
        got = slot_of(ev)
        assert type(got) is Slot and got == built[kind] and vars(got) == vars(built[kind])
        assert hash(got) == hash(built[kind])
        with pytest.raises(FrozenInstanceError):
            got.elem = "tail"
    for kind in (RR, WR):
        assert slot_of(world.emit(2, 1, kind, elem="root", nid=0)) is None
