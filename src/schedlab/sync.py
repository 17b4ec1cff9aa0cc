"""Synchronization wrappers as resumable step machines over a shared store.

A machine advances one visible step at a time: the op invocation, one node
read, one node write, or the response point.  Everything else - lock
acquisition, version validation, commit - is internal to a step and never
occupies a schedule slot.

Two wrappers are provided plus an unsynchronized reference machine:

* ``hoh`` - pessimistic.  Updates take the root lock exclusively at their
  invocation (serializing all updates), traverse lock-free under it, then
  exclusively lock exactly the nodes they are about to write before the
  first write and release in reverse order, root last.  Finds crab-walk:
  a shared lock is held on the last node read, and the next node's lock
  is acquired inside its read step before the previous one is released.
  So the locks held are a function of the sequential state, and the
  machine keeps none of its own: an update holds the root and, from its
  first write to its response, the plan's write targets; a find holds
  the last node G_op read, or the root before its first read.  A step
  whose locks are unavailable reports blocked and changes nothing but the
  wait queue it joins.  ``would_block`` answers whether the next step
  would block without taking that step, so a free run detects a deadlock
  without forking anything.

* ``stm`` - optimistic lazy-versioning.  Reads return the last committed
  record and (in the default per-read mode) revalidate the whole read set
  against current versions; writes only emit their events, since the plan
  holds them; the response step commits: validate, install the plan's
  writes and bump each written node's version once.  The versions live in
  the world (``World.versions``); the read set's versions are the one
  state the machine adds to the sequential code's.  A conflict aborts the
  operation, which may be restarted: the read it is found in (at commit,
  a read of the conflicting node) is the attempt's last and returns the
  abort mark (``_abort``).  The ``stm-commit-only`` implementation
  (``StmCommitOnlyMachine``) skips per-read validation; it exists to
  demonstrate (via the checkers) that doomed reads violate
  safe-strictness.

* ``unsync`` - no synchronization at all: the raw sequential code sharing
  the store.  Its interleavings define the schedule universe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .model import (ABORT, ABORTED, COMPLETE, Event, INCOMPLETE, OI, OR, RI,
                    RR, WI, WR, OperationInstance)
from .seqspec import DagState, Gop, SearchStructureDef, UpdatePlan, node_token

FREE, SHARED, EXCLUSIVE = "free", "shared", "exclusive"


class LockManager:
    """Per-element reader/writer locks with FIFO wait queues.

    A request succeeds only when compatible with the current holders and
    no earlier waiter is still queued (no barging), which is the
    starvation-freedom surrogate the pessimistic class assumes.
    """

    def __init__(self):
        self.shared: dict[int, set[int]] = {}
        self.exclusive: dict[int, int] = {}
        self.queues: dict[int, deque[int]] = {}

    def held_mode(self, nid: int, holder: int) -> str:
        if self.exclusive.get(nid) == holder:
            return EXCLUSIVE
        if holder in self.shared.get(nid, ()):
            return SHARED
        return FREE

    def _compatible(self, nid: int, mode: str, holder: int) -> bool:
        exc = self.exclusive.get(nid)
        if exc is not None and exc != holder:
            return False
        if mode == SHARED:
            return True
        readers = self.shared.get(nid, set()) - {holder}
        return not readers

    def can_acquire(self, nid: int, mode: str, holder: int) -> bool:
        """Whether ``try_acquire`` would succeed now; changes nothing."""
        held = self.held_mode(nid, holder)
        if held in (EXCLUSIVE, mode):  # already held in this mode or stronger
            return True
        queue = self.queues.get(nid)
        if queue and queue[0] != holder:
            return False
        return self._compatible(nid, mode, holder)

    def try_acquire(self, nid: int, mode: str, holder: int) -> bool:
        """Take the lock, or join the node's wait queue and return False."""
        if not self.can_acquire(nid, mode, holder):
            queue = self.queues.setdefault(nid, deque())
            if holder not in queue:
                queue.append(holder)
            return False
        held = self.held_mode(nid, holder)
        if held in (EXCLUSIVE, mode):
            return True
        queue = self.queues.get(nid)
        if queue:  # the holder is at its head, else it could not acquire
            queue.popleft()
        if mode == EXCLUSIVE:
            if held == SHARED:
                self.shared[nid].discard(holder)
            self.exclusive[nid] = holder
        else:
            self.shared.setdefault(nid, set()).add(holder)
        return True

    def acquire_all(self, nids: list[int], mode: str, holder: int) -> int | None:
        """All-or-nothing; returns the blocking nid on failure."""
        got = []
        for nid in nids:
            pre = self.held_mode(nid, holder)
            if self.try_acquire(nid, mode, holder):
                if pre == FREE:
                    got.append(nid)
            else:
                for g in reversed(got):
                    self.release(g, holder)
                return nid
        return None

    def release(self, nid: int, holder: int) -> None:
        if self.exclusive.get(nid) == holder:
            del self.exclusive[nid]
        self.shared.get(nid, set()).discard(holder)

    def clone(self) -> LockManager:
        lm = LockManager()
        lm.shared = {n: set(s) for n, s in self.shared.items() if s}
        lm.exclusive = dict(self.exclusive)
        lm.queues = {n: deque(q) for n, q in self.queues.items() if q}
        return lm


@dataclass
class World:
    """The shared substrate one driver owns: store, locks, versions, and
    the execution record.  `versions` counts each node's commits; only
    ``stm`` reads or bumps it, and a node absent from it is at 0."""

    state: DagState
    locks: LockManager = field(default_factory=LockManager)
    versions: dict[int, int] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    ops: dict[int, OperationInstance] = field(default_factory=dict)
    seq: int = 0

    def emit(self, proc, op, kind, elem=None, value=None, nid=None, attempt=0):
        # Event(...) sets each field of the frozen dataclass through
        # object.__setattr__; filling the instance dict takes half the time
        ev = object.__new__(Event)
        ev.__dict__.update(seq=self.seq, proc=proc, op=op, kind=kind, elem=elem,
                           value=value, nid=nid, attempt=attempt)
        self.events.append(ev)
        self.seq += 1
        return ev

    def clone(self) -> World:
        """A fork: the store shares its records, and a complete operation
        is shared too, since nothing changes one again (``restart`` resets
        only aborted ones)."""
        return World(self.state.clone(), self.locks.clone(), dict(self.versions),
                     list(self.events),
                     {i: (o if o.status == COMPLETE else o.copy())
                      for i, o in self.ops.items()}, self.seq)


@dataclass(frozen=True)
class StepOutcome:
    kind: str  # progressed | blocked | aborted | finished
    events: tuple[Event, ...] = ()
    blocked_on: int | None = None
    reason: str | None = None


PROGRESSED, BLOCKED, ABORT_OUT, FINISHED = "progressed", "blocked", "aborted", "finished"


class StepMachine:
    """A suspended operation: one visible event per step() call."""

    def __init__(self, def_: SearchStructureDef, op: OperationInstance, attempt: int = 0):
        self.def_ = def_
        self.op = op
        self.attempt = attempt
        self.invoked = False
        self.finished = False
        self.gop = Gop()
        self.plan: UpdatePlan | None = None
        self.write_idx = 0

    # -- drive interface ---------------------------------------------------

    def step(self, world: World) -> StepOutcome:
        if self.finished:
            raise RuntimeError(f"step on finished op {self.op.id}")
        if not self.invoked:
            return self._invoke(world)
        if self.plan is None:
            nxt = self.def_.tau(self.op, self.gop, world.state.root)
            if nxt is not None:
                return self._read(world, nxt)
            self.plan = self.def_.plan_update(self.op, self.gop, world.state)
        if self.write_idx < len(self.plan.writes):
            return self._write(world)
        return self._respond(world)

    def would_block(self, world: World) -> bool:
        """Whether the next ``step`` would report blocked.  Changes nothing:
        not the world (store, locks and their queues, versions, events,
        ops) and not the machine.  Only ``hoh`` blocks."""
        return False

    # -- the unsynchronized steps, which the wrappers extend -----------------

    def _invoke(self, world) -> StepOutcome:
        self.invoked = True
        ev = world.emit(self.op.proc, self.op.id, OI, value=[self.op.name, self.op.key],
                        attempt=self.attempt)
        return StepOutcome(PROGRESSED, (ev,))

    def _emit_write(self, world, nid, patch) -> tuple[Event, Event]:
        role = world.state.role_of(nid)
        patch_json = {lab: node_token(t) for lab, t in patch.items()}
        a = world.emit(self.op.proc, self.op.id, WI, elem=role,
                       value={"edges": patch_json}, nid=nid, attempt=self.attempt)
        b = world.emit(self.op.proc, self.op.id, WR, elem=role, value="ok",
                       nid=nid, attempt=self.attempt)
        return a, b

    def _respond(self, world) -> StepOutcome:
        """The response point: the operation completes with the plan's
        response."""
        resp = self.plan.response
        ev = world.emit(self.op.proc, self.op.id, OR, value=resp, attempt=self.attempt)
        self.op.status, self.op.response = COMPLETE, resp
        self.finished = True
        return StepOutcome(FINISHED, (ev,))

    def _apply_unlink(self, world):
        for nid in self.plan.unlink:
            world.state.unlink(nid)

    def _read(self, world, nid) -> StepOutcome:
        """The sequential code's read of the shared store, unsynchronized."""
        rec = world.state.read(nid)
        self.gop.visit(rec)
        role = world.state.role_of(nid)
        a = world.emit(self.op.proc, self.op.id, RI, elem=role, nid=nid,
                       attempt=self.attempt)
        b = world.emit(self.op.proc, self.op.id, RR, elem=role, value=rec.snap(),
                       nid=nid, attempt=self.attempt)
        return StepOutcome(PROGRESSED, (a, b))

    def _write(self, world) -> StepOutcome:
        """The sequential code's next write to the shared store,
        unsynchronized; the last one applies the plan's unlinks."""
        nid, patch = self.plan.writes[self.write_idx]
        world.state.write_edges(nid, patch)
        self.write_idx += 1
        evs = self._emit_write(world, nid, patch)
        if self.write_idx == len(self.plan.writes):
            self._apply_unlink(world)
        return StepOutcome(PROGRESSED, evs)

    def write_targets(self) -> list[int]:
        return [nid for nid, _ in self.plan.writes]

    def clone(self, ops: dict[int, OperationInstance]) -> StepMachine:
        """A fork over `ops`.  Nothing changes a finished machine of a
        complete operation again, so that one is shared; the plan is never
        changed once made, and G_op only grows before the plan exists."""
        if self.finished and self.op.status == COMPLETE:
            return self
        m = type(self).__new__(type(self))
        m.__dict__.update(self.__dict__)
        m.op = ops[self.op.id]
        if self.plan is None:
            m.gop = self.gop.clone()
        return m


class UnsyncMachine(StepMachine):
    """The raw sequential code on the shared store: no locks, no versions,
    never blocks, never aborts.  Defines the schedule universe."""


class HohMachine(StepMachine):
    """Hand-over-hand pessimistic wrapper (class P: never aborts)."""

    @property
    def is_update(self) -> bool:
        return self.op.name in ("insert", "delete")

    def _held_shared(self, world) -> int:
        """The node an invoked find holds shared: the last one G_op read,
        or the root before the first read."""
        order = self.gop.order
        return order[-1] if order else world.state.root

    def _invoke(self, world):
        root = world.state.root
        mode = EXCLUSIVE if self.is_update else SHARED
        if not world.locks.try_acquire(root, mode, self.op.id):
            return StepOutcome(BLOCKED, blocked_on=root)
        return super()._invoke(world)

    def would_block(self, world):
        # step's control flow up to its lock decision
        locks, holder = world.locks, self.op.id
        if not self.invoked:
            mode = EXCLUSIVE if self.is_update else SHARED
            return not locks.can_acquire(world.state.root, mode, holder)
        plan = self.plan
        if plan is None:
            nxt = self.def_.tau(self.op, self.gop, world.state.root)
            if nxt is not None:
                return (not self.is_update and nxt != self._held_shared(world)
                        and not locks.can_acquire(nxt, SHARED, holder))
            # plan_update allocates the nodes an insert adds
            plan = self.def_.plan_update(self.op, self.gop,
                                         world.state.clone())
        if self.write_idx == 0 and plan.writes:
            # acquire_all succeeds iff every target is available now
            return not all(locks.can_acquire(nid, EXCLUSIVE, holder)
                           for nid, _ in plan.writes)
        return False

    def _read(self, world, nid):
        if not self.is_update:
            held = self._held_shared(world)
            if nid != held:
                # hand-over-hand: take the next node before letting go of
                # the last one, so the chain is never lock-free
                if not world.locks.try_acquire(nid, SHARED, self.op.id):
                    return StepOutcome(BLOCKED, blocked_on=nid)
                world.locks.release(held, self.op.id)
        return super()._read(world, nid)

    def _write(self, world):
        if self.write_idx == 0:
            blocked = world.locks.acquire_all(self.write_targets(), EXCLUSIVE,
                                              self.op.id)
            if blocked is not None:
                return StepOutcome(BLOCKED, blocked_on=blocked)
        return super()._write(world)

    def _respond(self, world):
        # every write is done, so every write target is locked
        holder, root = self.op.id, world.state.root
        for nid in reversed(self.write_targets()):
            if nid != root:
                world.locks.release(nid, holder)
        world.locks.release(root if self.is_update else self._held_shared(world),
                            holder)
        return super()._respond(world)


class StmMachine(StepMachine):
    """Lazy version-clock STM wrapper (class SM: never blocks)."""

    commit_only = False  # validate the read set at every read, not only at commit

    def __init__(self, def_, op, attempt=0):
        super().__init__(def_, op, attempt)
        self.read_set: dict[int, int] = {}

    def _conflict(self, world) -> int | None:
        for nid, ver in self.read_set.items():
            if world.versions.get(nid, 0) > ver:
                return nid
        return None

    def _abort(self, world, nid) -> StepOutcome:
        """The operation aborts in a read of `nid`: its invocation, the
        abort mark as its response, then the abort response."""
        role = world.state.role_of(nid)
        proc, op, attempt = self.op.proc, self.op.id, self.attempt
        evs = (world.emit(proc, op, RI, elem=role, nid=nid, attempt=attempt),
               world.emit(proc, op, RR, elem=role, value=ABORT, nid=nid,
                          attempt=attempt),
               world.emit(proc, op, OR, value=ABORT, attempt=attempt))
        self.op.status = ABORTED
        self.finished = True
        for new in (self.plan.new_nodes if self.plan else ()):
            world.state.unlink(new)
        return StepOutcome(ABORT_OUT, evs, reason=f"conflict on {role}")

    def _read(self, world, nid):
        # every read comes before the plan, so none sees an own write
        self.read_set.setdefault(nid, world.versions.get(nid, 0))
        if not self.commit_only and self._conflict(world) is not None:
            return self._abort(world, nid)
        return super()._read(world, nid)

    def _write(self, world):
        """Only the events: the commit installs the plan's writes."""
        nid, patch = self.plan.writes[self.write_idx]
        self.write_idx += 1
        return StepOutcome(PROGRESSED, self._emit_write(world, nid, patch))

    def _respond(self, world):
        conflict = self._conflict(world)
        if conflict is not None:
            # validation failure surfaces as one last aborted read
            return self._abort(world, conflict)
        if self.plan.writes:
            for nid, patch in self.plan.writes:
                world.state.write_edges(nid, patch)
                world.versions[nid] = world.versions.get(nid, 0) + 1
            self._apply_unlink(world)
        return super()._respond(world)

    def clone(self, ops):
        m = super().clone(ops)
        if m is not self:
            m.read_set = dict(self.read_set)
        return m


class StmCommitOnlyMachine(StmMachine):
    """``stm`` validating its read set only at commit."""

    commit_only = True


_MACHINES = {"hoh": HohMachine, "stm": StmMachine,
             "stm-commit-only": StmCommitOnlyMachine, "unsync": UnsyncMachine}


def make_machine(impl: str, def_: SearchStructureDef,
                 op: OperationInstance) -> StepMachine:
    """A machine of `impl` for the first attempt of `op`."""
    cls = _MACHINES.get(impl)
    if cls is None:
        raise ValueError(f"unknown implementation {impl!r}")
    return cls(def_, op)


def restart(machine: StepMachine) -> StepMachine:
    """Fresh machine for the same operation instance, next attempt id."""
    if machine.op.status != ABORTED:
        raise ValueError("restart requires an aborted machine")
    machine.op.status = INCOMPLETE
    machine.op.response = None
    return type(machine)(machine.def_, machine.op, machine.attempt + 1)
