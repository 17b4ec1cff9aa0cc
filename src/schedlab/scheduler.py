"""Deterministic drivers for step machines: acceptance-test a given
schedule, classify every interleaving of a workload in one pass, or run it
free with restarts.

A workload is a structure plus a sequential setup (run to completion before
anything concurrent starts; the post-setup store is the initial snapshot of
every driven history) and the concurrent operations, one process each.

``drive`` replays one schedule slot list; a slot either progresses with
exactly the named event or the schedule is rejected at that slot index
(blocked / aborted / order-mismatch).  It is the reference path.
``schedule_trie`` walks the schedule universe - all interleavings of the
unsynchronized machines' steps - as a trie, DFS in process order, and
classifies every schedule in the same pass: the machines of each requested
implementation are forked along with the unsynchronized ones, so each
distinct prefix is stepped once, and an implementation that rejects a slot
is dropped for the whole subtree below it (``drive`` would reject every
schedule there at the same slot for the same reason).  At a leaf the
unsynchronized world holds the legal replay of the schedule; the leaf hands
it over, and the LSL oracle audits it in place (``Leaf.audited``).

The oracle (``metric.classify``) does so only for a leaf whose signature
(``Leaf.signature``) it has not met in the same pass.  The signature is
each concurrent operation's id, status, response and canonical read/write
trace, the order of the invocations and responses, and the final store's
``canonical()``.  It is exact: an operation's trace and response decide its
local serializability; with the order they are all that the
linearizability check sees; the store decides the audit finds, which run
alone afterwards; the workload fixes the rest.  Unsynchronized leaves
never abort or restart, which it does not cover; it raises if one does.

Work that depends on a trie edge is done on that edge, once, and shared by
every leaf below it:

* Forks are copy-on-write.  A ``NodeRec`` in a store is never changed (a
  write or an unlink installs a new one), so a fork copies dicts of
  references and G_op holds the records read.  Complete operations, and
  their finished machines, are shared: only aborted ones are ever reset.
* ``Schedule.digest`` hashes the slots' JSON joined by commas in brackets;
  the walk extends a copy of its prefix's sha256 state per edge.
* The export check is per step: the events of a step an implementation
  accepts, abort-marked ones dropped, map to exactly ``[slot]`` under
  ``slot_of``.  That is ``drive``'s whole-history check, since every event
  of the implementation's world comes from one of its steps and at a leaf
  every operation is complete and on attempt 0 (``complete`` and
  ``History.exported`` drop only abort-marked events).
* The signature's traces grow one ``TraceCell`` per read or write, renamed
  on first use; the store's ``canonical()`` is memoized in a cell a fork
  shares until either side changes the store.  Only the order is read per
  leaf, and a walk that never asks pays one cell per read/write edge.

``free_run`` is the liveness mode: random scheduling, blocked machines
retried, aborted machines restarted.  After a blocked step it asks every
unfinished machine whether its next step would block (``would_block``,
which changes nothing) and reports a deadlock when all would.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Iterator

from .model import (ABORT, OI, OR, RI, RR, WI, Event, History, InvariantError,
                    OperationInstance, Schedule, Slot, complete, schedule_of,
                    slot_of)
from .seqspec import Operation, SearchStructureDef, canonical_step
from .sync import (ABORT_OUT, BLOCKED, FINISHED, PROGRESSED, StepMachine,
                   World, make_machine, restart)


class MalformedScheduleError(ValueError):
    """The schedule is not a valid input for this workload."""


@dataclass
class Workload:
    structure: SearchStructureDef
    setup: list[Operation]
    concurrent: list[tuple[int, Operation]]  # (process id, operation)

    def __post_init__(self):
        procs = [p for p, _ in self.concurrent]
        if len(set(procs)) != len(procs):
            raise ValueError("concurrent processes must be distinct")
        if 0 in procs:
            raise ValueError("process 0 is reserved for the setup")

    def fingerprint(self) -> str:
        blob = json.dumps([list(self.structure.fingerprint()),
                           [(o.name, o.key) for o in self.setup],
                           [(p, o.name, o.key) for p, o in self.concurrent]],
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def workload_keys(w: Workload) -> tuple[int, ...]:
    keys = {o.key for o in w.setup} | {o.key for _, o in w.concurrent}
    return tuple(sorted(keys))


@dataclass
class DriveResult:
    verdict: str  # accepted | rejected
    history: History
    reason: str | None = None  # blocked | aborted | order-mismatch
    failing_slot: int | None = None
    responses: dict[int, object] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def _spawn(impl: str, w: Workload, world: World) -> dict[int, StepMachine]:
    machines = {}
    next_id = max(world.ops, default=-1) + 1
    for proc, op in w.concurrent:
        inst = OperationInstance(id=next_id, proc=proc, name=op.name,
                                 key=op.key, val=op.val)
        world.ops[next_id] = inst
        machines[proc] = make_machine(impl, w.structure, inst)
        next_id += 1
    return machines


def _run_sequential(world: World, w: Workload, inst: OperationInstance) -> None:
    """Run one operation to completion, alone, on the unsynchronized
    machine."""
    world.ops[inst.id] = inst
    m = make_machine("unsync", w.structure, inst)
    while not m.finished:
        out = m.step(world)
        if out.kind not in (PROGRESSED, FINISHED):
            raise InvariantError(f"unsync machine of {inst.describe()} "
                                 f"{out.kind} running alone")


def build_world(impl: str, w: Workload) -> tuple[World, dict[int, StepMachine], int]:
    """Run the setup sequentially, snapshot the store, spawn the machines.

    Returns (world, machines by process, index of the first concurrent
    event)."""
    world = World(w.structure.new_state())
    for i, op in enumerate(w.setup):
        _run_sequential(world, w, OperationInstance(id=i, proc=0, name=op.name,
                                                    key=op.key, val=op.val))
    w.structure.audit(world.state)
    return world, _spawn(impl, w, world), len(world.events)


def _concurrent_history(world: World, w: Workload, start: int,
                        initial: dict) -> History:
    events = world.events[start:]
    present = {e.op for e in events}
    ops = {i: o for i, o in world.ops.items() if i in present}
    return History(events, ops, initial, w.structure.name)


def run_audit_finds(world: World, w: Workload, start: int, initial: dict) -> History:
    """Run one sequential find per workload key after the concurrent
    operations; return the concurrent history with the finds, which the
    LSL oracle checks (see ``metric``)."""
    next_id = max(world.ops) + 1
    next_proc = max((p for p, _ in w.concurrent), default=0) + 1
    for i, key in enumerate(workload_keys(w)):
        _run_sequential(world, w, OperationInstance(id=next_id + i, proc=next_proc + i,
                                                    name="find", key=key))
    return _concurrent_history(world, w, start, initial)


def _fork(world: World, machines: dict[int, StepMachine]):
    w2 = world.clone()
    m2 = {p: m.clone(w2.ops) for p, m in machines.items()}
    return w2, m2


def _slot_matches(slot: Slot, ev: Event) -> bool:
    if slot.kind != ev.kind:
        return False
    if slot.kind == OI:
        return slot.op_name == ev.value[0] and slot.key == ev.value[1]
    if slot.kind in (RI, WI):
        return slot.elem == ev.elem
    return True  # or: bare response point


def _step_slot(world: World, machines: dict[int, StepMachine], idx: int,
               slot: Slot) -> str | None:
    """Give the slot's process one step: None when it progresses with the
    named event, else the rejection reason."""
    m = machines[slot.proc]
    if m.finished:
        raise MalformedScheduleError(
            f"slot {idx} addresses finished operation of process {slot.proc}")
    out = m.step(world)
    if out.kind == BLOCKED:
        return "blocked"
    if out.kind == ABORT_OUT:
        return "aborted"
    ev = out.invoke_event
    if ev is None or not _slot_matches(slot, ev):
        return "order-mismatch"
    return None


def _accepted_history(world: World, machines: dict[int, StepMachine],
                      w: Workload, start: int, initial: dict,
                      schedule: Schedule) -> History:
    """The end-of-schedule checks of an implementation that took every
    slot: all operations finished, and the history exports the schedule."""
    if not all(m.finished for m in machines.values()):
        raise MalformedScheduleError("schedule leaves operations incomplete")
    hist = _concurrent_history(world, w, start, initial)
    if schedule_of(complete(hist).exported()) != schedule:
        raise InvariantError("accepted history does not export the schedule")
    return hist


def drive(impl: str, w: Workload, schedule: Schedule) -> DriveResult:
    """Give the named process's machine one step per slot; accept iff every
    slot progresses with the named event and all operations complete."""
    world, machines, start = build_world(impl, w)
    initial = world.state.snapshot()
    known = {p for p, _ in w.concurrent}
    for slot in schedule.slots:
        if slot.proc not in known:
            raise MalformedScheduleError(f"slot for unknown process {slot.proc}")

    def result(verdict, hist, reason=None, idx=None):
        responses = {i: o.response for i, o in hist.ops.items() if o.is_complete()}
        return DriveResult(verdict, hist, reason, idx, responses)

    for idx, slot in enumerate(schedule.slots):
        reason = _step_slot(world, machines, idx, slot)
        if reason is not None:
            return result("rejected", _concurrent_history(world, w, start, initial),
                          reason, idx)
    return result("accepted",
                  _accepted_history(world, machines, w, start, initial, schedule))


class TraceCell:
    """One read or write of an operation on a trie path, after its earlier
    ones (`parent`).  ``steps()``, the ``canonical_steps`` of the trace up
    to here, is renamed on first use and shared by the leaves below."""

    __slots__ = ("parent", "step", "_steps", "_names")

    def __init__(self, parent: TraceCell | None, step: tuple):
        self.parent = parent
        self.step = step
        self._steps = None
        self._names = None

    def steps(self) -> tuple:
        if self._steps is None:
            if self.parent is None:
                before, names = (), {}
            else:
                before = self.parent.steps()
                names = dict(self.parent._names)
            self._steps = before + (canonical_step(self.step, names),)
            self._names = names
        return self._steps


@dataclass
class Leaf:
    """One schedule of the universe with its verdicts from the pass."""

    schedule: Schedule
    digest: str  # schedule.digest(), carried along the trie
    # implementation -> (reason, failing slot); accepting ones are absent
    rejected: dict[str, tuple[str, int]]
    # the unsynchronized world at the end of the schedule, i.e. its legal
    # replay; the pass does not read it again, so the consumer may extend it
    world: World
    start: int  # index of the first concurrent event in world.events
    initial: dict  # store snapshot the concurrent part starts from
    # operation id -> its last read/write on the path
    traces: dict[int, TraceCell]

    def audited(self, w: Workload) -> History:
        """The legal replay plus the audit finds, run in the leaf's own
        world (see ``run_audit_finds``)."""
        return run_audit_finds(self.world, w, self.start, self.initial)

    def signature(self) -> tuple:
        """All that the LSL verdict of the leaf's audited history depends
        on, for one workload: (operation id, status, response, canonical
        trace) per operation, the invocation/response order, and the
        store's ``canonical()`` (why it is exact: the module docstring).
        Call it before extending the world.  Raises InvariantError on an
        abort event or a restarted attempt, which it does not cover."""
        order = []
        for e in self.world.events[self.start:]:
            if e.attempt != 0 or e.value == ABORT:  # e.is_abort(), inlined
                raise InvariantError(f"leaf history has an abort or a restart: {e}")
            if e.kind == OI or e.kind == OR:
                order.append((e.op, e.kind))
        ops, traces = self.world.ops, self.traces
        return (tuple((i, ops[i].status, ops[i].response,
                       traces[i].steps() if i in traces else ())
                      for i in dict.fromkeys(i for i, _ in order)),
                tuple(order), self.world.state.canonical())


def schedule_trie(w: Workload, impls: tuple[str, ...] = ()) -> Iterator[Leaf]:
    """Every schedule of the workload, classified under each of `impls`:
    DFS over the trie of the unsynchronized machines' next-step choices,
    in process order.  Deterministic.

    Each implementation's machines are forked along the trie and given the
    step the unsynchronized machine just took; one that rejects it is
    dropped for the subtree, with that slot's index and reason.  A step it
    accepts must export exactly that slot, else InvariantError; an
    implementation still present at a leaf must have finished every
    operation there.  Each leaf hands over its own unsynchronized world,
    its digest and its operations' trace cells."""
    world, machines, start = build_world("unsync", w)
    initial = world.state.snapshot()
    runs = {impl: build_world(impl, w)[:2] for impl in impls}
    slots: list[Slot] = []
    encoded: dict[Slot, bytes] = {}  # "," + the slot's digest JSON

    def rec(world, machines, runs, rejected, sha, traces):
        live = sorted(p for p, m in machines.items() if not m.finished)
        if not live:
            for _, im in runs.values():
                if not all(m.finished for m in im.values()):
                    raise MalformedScheduleError("schedule leaves operations incomplete")
            sha = sha.copy()
            sha.update(b"]")
            yield Leaf(Schedule(tuple(slots)), sha.hexdigest()[:16], rejected,
                       world, start, initial, traces)
            return
        for proc in live:
            # the last child takes over this node's worlds: nothing below
            # this node reads them after it
            last = proc == live[-1]
            w2, m2 = (world, machines) if last else _fork(world, machines)
            out = m2[proc].step(w2)
            if out.kind not in (PROGRESSED, FINISHED):
                raise InvariantError(f"unsync machine of process {proc} {out.kind}")
            slot = slot_of(out.invoke_event)
            idx = len(slots)
            runs2, rejected2 = {}, rejected
            for impl, (iw, im) in runs.items():
                if not last:
                    iw, im = _fork(iw, im)
                n = len(iw.events)
                reason = _step_slot(iw, im, idx, slot)
                if reason is None:
                    got = [slot_of(e) for e in iw.events[n:] if not e.is_abort()]
                    if [s for s in got if s is not None] != [slot]:
                        raise InvariantError(
                            f"accepted history does not export the schedule: "
                            f"{impl} at slot {idx}")
                    runs2[impl] = (iw, im)
                else:
                    rejected2 = {**rejected2, impl: (reason, idx)}
            piece = encoded.get(slot)
            if piece is None:
                piece = encoded[slot] = b"," + json.dumps(
                    slot.canon(), separators=(",", ":")).encode()
            sha2 = sha.copy()
            sha2.update(piece if idx else piece[1:])
            traces2 = traces
            for e in out.events:
                if e.kind == RR or e.kind == WI:
                    step = (("r", e.nid, e.value) if e.kind == RR
                            else ("w", e.nid, e.value["edges"]))
                    traces2 = {**traces, e.op: TraceCell(traces.get(e.op), step)}
            slots.append(slot)
            yield from rec(w2, m2, runs2, rejected2, sha2, traces2)
            slots.pop()

    yield from rec(world, machines, runs, {}, hashlib.sha256(b"["), {})


def universe(w: Workload, budget: int = 20000) -> tuple[list[Schedule], bool]:
    """The first `budget` schedules of the workload in DFS order (see
    ``schedule_trie``).

    Returns (schedules, truncated?): truncated once `budget` is reached.
    Deterministic."""
    # the DFS reaches its first leaf whatever the budget
    out = [leaf.schedule
           for leaf in itertools.islice(schedule_trie(w), max(budget, 1))]
    return out, len(out) >= budget


class LivelockError(RuntimeError):
    pass


def free_run(impl: str, w: Workload, seed: int = 0, max_restarts: int = 100,
             max_steps: int = 100000, round_robin: bool = False) -> History:
    """Random (or round-robin) scheduler: blocked machines are retried
    later, aborted machines are restarted.  Returns the full history
    (setup included); aborted attempts' events are excluded from the
    exported view per the history model."""
    world = World(w.structure.new_state())
    initial = world.state.snapshot()
    for i, op in enumerate(w.setup):
        _run_sequential(world, w, OperationInstance(id=i, proc=0, name=op.name,
                                                    key=op.key, val=op.val))
    machines = _spawn(impl, w, world)
    rng = random.Random(seed)
    restarts = 0
    steps = 0
    rr_next = 0
    while True:
        live = sorted(p for p, m in machines.items() if not m.finished)
        if not live:
            break
        if round_robin:
            proc = live[rr_next % len(live)]
            rr_next += 1
        else:
            proc = rng.choice(live)
        out = machines[proc].step(world)
        steps += 1
        if steps > max_steps:
            raise LivelockError(f"no progress after {max_steps} steps")
        if out.kind == BLOCKED:
            blocked_everywhere = all(m.finished or m.would_block(world)
                                     for m in machines.values())
            if blocked_everywhere:
                raise LivelockError("all machines blocked: deadlock")
            continue
        if out.kind == ABORT_OUT:
            restarts += 1
            if restarts > max_restarts:
                raise LivelockError(f"restart budget {max_restarts} exhausted")
            machines[proc] = restart(machines[proc])
    hist = History(list(world.events), dict(world.ops), initial, w.structure.name)
    return hist
