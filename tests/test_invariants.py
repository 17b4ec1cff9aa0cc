"""The invariants the drivers rely on raise explicit errors.

Each test breaks one invariant on purpose (by patching a machine or a
helper) and expects the error.  They use only ``pytest.raises``, so they
hold under ``python -O``, which removes ``assert`` statements:

    PYTHONPATH=src python -O -m pytest -q tests/test_invariants.py
"""

import copy
import dataclasses

import pytest

from schedlab import fixtures, scheduler, seqspec
from schedlab.fixtures import fig2a
from schedlab.metric import accepted_set, audited_history, lsl_set
from schedlab.model import ABORTED, RI, RR, Schedule
from schedlab.scheduler import (InvariantError, MalformedScheduleError,
                                Workload, build_world, drive, universe)
from schedlab.seqspec import (ROOT_ROLE, Bst, Operation, SortedList, Witness,
                              make_structure, run_operation)
from schedlab.sync import (BLOCKED, FINISHED, LockManager, StepOutcome,
                           StmMachine, UnsyncMachine)

import oracles
from oracles import assert_legal, lock_audit, schedule_trie, sequential_run


def two_inserts(setup=()):
    return Workload(make_structure("sorted-list"),
                    [Operation("insert", k) for k in setup],
                    [(1, Operation("insert", 1)), (2, Operation("insert", 2))])


def block_unsync_reads(monkeypatch, procs):
    """Make the unsynchronized machines of the given processes block at
    their first read."""
    read = UnsyncMachine._read

    def blocking(self, world, nid):
        if procs(self.op.proc):
            return StepOutcome(BLOCKED, blocked_on=nid)
        return read(self, world, nid)

    monkeypatch.setattr(UnsyncMachine, "_read", blocking)


def test_drive_raises_when_accepted_history_misses_the_schedule(monkeypatch):
    w, sigma = fig2a()
    monkeypatch.setattr(scheduler, "schedule_of", lambda h: Schedule(()))
    with pytest.raises(InvariantError, match="does not export the schedule"):
        drive("stm", w, sigma)


def test_pass_raises_when_accepted_history_misses_the_schedule(monkeypatch):
    """An stm response that also emits a stray read invocation: the pass
    sees it in the step, ``drive`` in the whole history."""
    respond = StmMachine._respond

    def respond_with_a_stray_read(self, world):
        out = respond(self, world)
        if out.kind != FINISHED:
            return out
        ri = world.emit(self.op.proc, self.op.id, RI, elem=ROOT_ROLE,
                        nid=world.state.root, attempt=self.attempt)
        return dataclasses.replace(out, events=out.events + (ri,))

    monkeypatch.setattr(StmMachine, "_respond", respond_with_a_stray_read)
    w = two_inserts()
    sigma = universe(w, budget=1)[0][0]
    with pytest.raises(InvariantError, match="does not export the schedule"):
        drive("stm", w, sigma)
    with pytest.raises(InvariantError, match="does not export the schedule"):
        accepted_set("stm", w)


def test_pass_raises_when_unsync_machine_blocks(monkeypatch):
    block_unsync_reads(monkeypatch, lambda proc: proc != 0)
    with pytest.raises(InvariantError, match="unsync machine of process 1"):
        universe(two_inserts())


def test_setup_run_raises_when_unsync_machine_blocks(monkeypatch):
    block_unsync_reads(monkeypatch, lambda proc: proc == 0)
    with pytest.raises(InvariantError, match="running alone"):
        build_world("hoh", two_inserts(setup=(3,)))


def test_audit_finds_raise_when_unsync_machine_blocks(monkeypatch):
    w = two_inserts()
    s = universe(w, budget=1)[0][0]
    block_unsync_reads(monkeypatch, lambda proc: proc > 2)  # the audit finds
    with pytest.raises(InvariantError, match="find"):
        audited_history(w, s)
    with pytest.raises(InvariantError, match="find"):
        lsl_set(w)


def test_audited_history_rejects_an_incomplete_schedule():
    w = two_inserts()
    s = universe(w, budget=1)[0][0]
    with pytest.raises(MalformedScheduleError, match="incomplete"):
        audited_history(w, Schedule(s.slots[:-1]))


def test_audited_history_rejects_a_slot_the_step_does_not_take():
    """A read of an element the unsynchronized step does not read, or a
    slot for a process the workload does not have, is no schedule of the
    universe: the replay does not step past it."""
    w = fixtures.thm2_bundle(make_structure("sorted-list")).w_present
    s = universe(w, budget=1)[0][0]
    assert s.slots[2].elem == "key:1"
    forged = Schedule(s.slots[:2] + (dataclasses.replace(s.slots[2], elem="key:99"),)
                      + s.slots[3:])
    with pytest.raises(MalformedScheduleError, match="slot 2"):
        audited_history(w, forged)
    with pytest.raises(MalformedScheduleError, match="slot 12"):
        audited_history(w, Schedule(s.slots + (dataclasses.replace(s.slots[0],
                                                                   proc=9),)))


def with_machine(leaf, proc, **changes):
    """The leaf with a copy of one of its end machines, changed; the walk's
    own configuration stays as it is."""
    m = copy.copy(leaf.machines[proc])
    for name, value in changes.items():
        setattr(m, name, value)
    return dataclasses.replace(leaf, machines={**leaf.machines, proc: m})


def test_leaf_signature_rejects_an_abort_or_a_restart():
    w = two_inserts()
    leaf = next(schedule_trie(w))
    leaf.signature()
    proc = max(leaf.machines)
    aborted = dataclasses.replace(leaf.machines[proc].op, status=ABORTED)
    with pytest.raises(InvariantError, match="abort or a restart"):
        with_machine(leaf, proc, op=aborted).signature()
    leaf = next(schedule_trie(w))
    with pytest.raises(InvariantError, match="abort or a restart"):
        with_machine(leaf, proc, attempt=1).signature()


def swapped_keys(name):
    """A store of `name` holding keys 1 and 2, with the two keys swapped
    between their nodes."""
    d = make_structure(name)
    st = d.new_state()
    for k in (1, 2):
        run_operation(d, st, Operation("insert", k))
    d.audit(st)
    a, b = st.find_alive(1), st.find_alive(2)
    st.nodes[a].key, st.nodes[b].key = 2, 1
    return d, st


@pytest.mark.parametrize("name, message", [("sorted-list", "list unsorted"),
                                           ("bst", "bst order violated"),
                                           ("skiplist", "skiplist unsorted")])
def test_structure_audit_raises_on_order_violation(name, message):
    d, st = swapped_keys(name)
    with pytest.raises(InvariantError, match=message):
        d.audit(st)


def test_structure_audit_raises_on_cycle():
    d = make_structure("sorted-list")
    st = d.new_state()
    st.write_edges(st.root, {"next": st.root})
    with pytest.raises(InvariantError, match="cycle"):
        d.audit(st)


def test_run_operation_raises_when_traversal_leaves_the_frontier(monkeypatch):
    d = make_structure("sorted-list")
    st = d.new_state()
    for k in (1, 2):
        run_operation(d, st, Operation("insert", k))
    far = st.find_alive(2)  # not a successor of the root

    def jumping(self, op, gop, root):
        return root if not gop else far

    monkeypatch.setattr(SortedList, "tau", jumping)
    with pytest.raises(InvariantError, match="explored frontier"):
        run_operation(d, st, Operation("find", 2))


def test_run_operation_accepts_an_edge_of_an_earlier_record(monkeypatch):
    """The frontier is every visited record's edges, not the last one's: a
    read of the BST root's right child's right child after its left child
    (whose edges are None) is accepted."""
    d = make_structure("bst")
    st = d.new_state()
    for k in (2, 1, 3):
        run_operation(d, st, Operation("insert", k))
    two, one, three = (st.find_alive(k) for k in (2, 1, 3))
    script = [st.root, two, one, three]

    def scripted(self, op, gop, root):
        return next((n for n in script if n not in gop), None)

    monkeypatch.setattr(Bst, "tau", scripted)
    trace = []
    assert run_operation(d, st, Operation("find", 3), trace) is True
    assert [nid for _, nid, _ in trace] == script


def test_sequential_run_raises_on_read_after_write(monkeypatch):
    def write_then_read(def_, state, op, trace=None):
        root = state.read(state.root)
        trace.append(("w", state.root, {"next": None}))
        trace.append(("r", state.root, root.snap()))
        return True

    monkeypatch.setattr(oracles, "run_operation", write_then_read)
    with pytest.raises(InvariantError, match="reads after a write"):
        sequential_run(make_structure("sorted-list"), [Operation("insert", 1)])


def test_assert_legal_raises_on_an_illegal_read():
    _, _, h = sequential_run(make_structure("sorted-list"),
                             [Operation("insert", 1), Operation("find", 1)])
    assert_legal(h)
    # the find's read of the root, which insert(1) read before
    i = max(j for j, e in enumerate(h.events) if e.kind == RR and e.nid == 0)
    bad = dict(h.events[i].value, val="forged")
    h.events[i] = dataclasses.replace(h.events[i], value=bad)
    with pytest.raises(InvariantError, match="illegal read"):
        assert_legal(h)


def test_lock_audit_raises_on_shared_beside_exclusive():
    lm = LockManager()
    assert lm.try_acquire(5, "exclusive", 1)
    lock_audit(lm)
    lm.shared[5] = {2}
    with pytest.raises(InvariantError, match="shared and exclusive"):
        lock_audit(lm)


def test_gop_visit_raises_on_a_node_it_holds():
    """G_op only grows by nodes it does not hold: a second visit of a
    node raises and leaves in place the record the first one read, and
    its position in the visit order."""
    state = make_structure("sorted-list").new_state()
    root, tail = state.read(state.root), state.read(state.tail)
    gop = {}
    seqspec.visit(gop, root)
    seqspec.visit(gop, tail)
    for rec in (root, dataclasses.replace(root, alive=False)):
        with pytest.raises(InvariantError, match="G_op already holds"):
            seqspec.visit(gop, rec)
    assert list(gop.items()) == [(root.nid, root), (tail.nid, tail)]


def test_staged_schedule_raises_when_a_burst_plan_leaves_work():
    with pytest.raises(InvariantError, match="staged run left work"):
        fixtures._staged_schedule(two_inserts(), [(1, 1), (2, None)])


@pytest.mark.parametrize("key, present, message", [
    # find(5) on {1, 3} ends short of the key
    (5, (1, 3), "solo find does not end at the key"),
    # find(2) on {1, 2} reaches the key's predecessor straight from the root
    (2, (1, 2), "witness path passes no intermediate node"),
])
def test_thm3_bundle_raises_on_a_bad_witness(monkeypatch, key, present, message):
    bad = Witness(key, (), tuple(Operation("insert", k) for k in present))
    monkeypatch.setattr(fixtures, "non_triviality_witness", lambda def_: bad)
    with pytest.raises(InvariantError, match=message):
        fixtures.thm3_bundle(make_structure("sorted-list"))


def test_non_triviality_witness_raises_when_no_candidate_verifies(monkeypatch):
    monkeypatch.setattr(seqspec, "_witness_candidates", lambda def_: iter(()))
    with pytest.raises(InvariantError, match="no non-triviality witness"):
        seqspec.non_triviality_witness(make_structure("bst"))
