"""Deterministic drivers for step machines: acceptance-test a given
schedule, classify every interleaving of a workload in one pass, or run it
free with restarts.

A workload is a structure plus a sequential setup (run to completion before
anything concurrent starts; the post-setup store is the initial snapshot of
every driven history) and the concurrent operations, one process each.

``drive`` replays one schedule slot list; the named process's step either
takes its slot or the schedule is rejected at that slot index (blocked /
aborted / order-mismatch).  It is the reference path.

One rule decides whether a step takes a slot, in ``drive``,
``audited_history`` and the walk alike (``_step_slot``): the step
progresses and the slots its events occupy under ``slot_of`` are exactly
``[slot]``.  A step whose first slot is another, or that occupies none, is
an order mismatch; a progressing step that occupies more than one slot
raises.

``walk`` goes over the schedule universe - all interleavings of the
unsynchronized machines' steps - in the DFS order of its trie, in process
order, and classifies every schedule in the same pass: the machines of
each requested implementation take each step the unsynchronized ones
take, and an implementation that rejects a slot is dropped below it
(``drive`` would reject every schedule there at the same slot for the
same reason).  It counts the leaves by category and yields only the ones
its caller wants; ``universe`` wants them all.

It walks a DAG of configurations, not the trie of prefixes.  Independent
steps commute, so many prefixes end in the same configuration: a Thm. 2
universe of 924-3432 schedules has 3431-12869 prefixes but only 60-102
configurations with ``hoh`` and ``stm``.  A memo, which lives for one
walk, maps each configuration's key to a node whose out-edges (the fork,
the step, each implementation's verdict on it) are computed the first
time the walk takes them, by stepping or, for the image of a
configuration under a renaming of interchangeable processes, by renaming
(below).  An explicit stack DFS over that DAG carries each prefix's
slots, digest pieces, rejections and precedence relation.

* The key holds every field a step reads that the machines and the store
  do not determine, in the unsynchronized world and in each
  implementation still accepting: the store (``root``, ``tail`` and the
  records by value) and each machine's ``invoked``, ``write_idx``,
  operation status, G_op, plan and ``stm``'s read set.  The rest follows
  from these on every configuration the walk keeps, since an
  implementation that rejects a step is dropped before keying:

  - ``hoh``'s lock tables; the machine keeps no field of its own.  An
    update holds the root from its invocation to its response, plus its
    plan's write targets from its first write; a find holds the last node
    G_op read, or the root before its first read (``sync``).  Only a
    blocked step joins a queue, and it rejects.  The others take no lock.
  - ``stm``'s version of node n: the times n appears in the ``plan.writes``
    of the finished ``stm`` machines.  Only a commit bumps one, once per
    write; the setup runs unsynchronized and bumps none.
  - The operation: its id, process, name, key and value are fixed per
    process for the whole walk (``_spawn``), and its response follows
    from its status and ``plan.response``.  Its status is incomplete or
    complete, and ``attempt`` is 0: an abort rejects.
  - The world's ``ops``: each concurrent operation is its machine's
    ``op`` (``_spawn`` puts it in both, and a fork gives the machine the
    fork's copy), and the setup's are complete and the same for the walk.
  - Traces: an operation's raw read/write trace is a function of its
    unsynchronized machine's G_op records, plan and ``write_idx``.
  - ``def_``, the execution record (the events) and memo cells
    (``DagState``'s cell of ``canonical()`` and of its own key, the key
    cached on each record, which never changes): no step reads them, and
    the walk reads only the events of the step it just took.

  One rule keys every part: a declared field set, laid out by position.
  A world is its store (``_world_key``); the store is its root and tail,
  then each record (``_store_layout``); a record is its node, key, value
  and liveness, then its edges flat (``_rec_key``); a machine is its
  class and its keyed fields, with G_op (its records in visit order) and
  plan inline (``_machine_key``).  The fields left out are declared too:
  an attribute outside a declared set raises, and so does a laid-out
  value that is not a scalar or None.
* Equal keys have equal futures.  A step's outcome, its events (but their
  sequence numbers) and the configuration after it are functions of the
  fields above and of those they determine, so from two configurations
  with equal keys the same slots lead to configurations with equal keys,
  with the same verdicts and checks on the way.  A leaf's outputs are its
  path's (the schedule, its digest, the rejections collected on it) plus
  functions of its key: the unsynchronized machines and the store that
  ``Leaf.signature`` reads.
* Interchangeable processes.  Processes whose concurrent operations are
  equal (name, key and value) are interchangeable.  A renaming permutes
  such processes, and with them their operations' ids: ``_spawn`` gives
  each process one id, the same in every world (``_renamings``, which
  takes every permutation within each class, a group).  The step is
  equivariant: no step reads a process id or an operation id except as
  an identity - the holder of a lock (compared for equality only; a
  queue holds only a blocked holder, which rejects), the index of
  ``world.ops``, the label of an event - and node ids come from the
  store (``alloc`` numbers a node ``len(nodes)``), not from a process.
  What a step reads of an operation is its name, key and value, which a
  renaming keeps.  So stepping the image of process p in the image of a
  configuration gives the image of stepping p: the same store, the slot
  with its process renamed, the precedence pairs with their ids renamed,
  the same rejections, and the child's image.  The image's key is the key
  with each machine key moved to its process's image, in the
  unsynchronized world and in each implementation's (``_Renaming.key``).
  When a configuration is first made by stepping, the keys of its images
  go into a table the walk owns (``_Images``).  One first reached with
  such a key is made as an image of that first member: its out-edges are
  the first member's renamed, each child the memo's node of the renamed
  child key (made the same way when new), and at a leaf it shares the
  first member's store and holds renamed clones of its finished machines,
  so ``Leaf.signature`` and the verdict run on it as on any leaf.  The
  memo, the counts per (configuration, precedence), the DFS order, the
  counted descent and every leaf are as without renaming; only the fork,
  step and key work of images is left out (a Thm. 2 walk steps 34-54 of
  its 60-102 configurations).  It is exact because the first member's
  edges are complete when an image needs them.  The walk enters every
  configuration it makes at once and leaves it only when every edge below
  it is made (a budget stops the whole walk).  An image is made after its
  first member and at the same depth, so never below it: its first member
  was left before it was made.  A stepped configuration registers its
  whole orbit, so a key new to the memo is in the table iff some
  configuration of its orbit was made.
* Each configuration carries its key, and an edge builds its child's key
  from it (``_step_key``), keying again only what a progressing step can
  change: in the unsynchronized world and in each implementation that
  accepted the step, the store and the stepped process's machine.  A step
  changes nothing else that is keyed: a machine writes its own fields,
  its operation and the shared world only.  A node an abort unlinked
  never reaches a key; a fork copies values, so its parent's key is its
  own.  The store's key is
  memoized in the cell ``canonical()`` uses, which a fork shares until
  either side changes the store.  The root is keyed from scratch
  (``_config_key``, from the parts ``_restep`` keys), the reference the
  built keys are tested against.
* The per-edge checks run once per DAG edge: the unsynchronized machine
  must take one slot, a step an implementation accepts must take that
  slot (the one rule), and an implementation still present at a leaf must
  have finished every operation there.  Each raises the error it did per
  prefix, at the first prefix that reaches it.  A rejection's index is the depth of the
  configuration it leaves, and a configuration's depth is a function of
  its key: every slot is one step of one unsynchronized machine, and a
  machine's step count is its invocation, its reads (G_op's entries), its
  writes (``write_idx``) and its response.  So the index is the path
  length on every path; the walk checks that each configuration is reached
  at one depth.
* The setup runs once per walk.  Each implementation's run forks the
  post-setup unsynchronized world and spawns its machines on the fork's
  operations; the leaves keep that world's store as their initial one.
  A stepped configuration gives its worlds to its last child; the
  others get forks.  A walk world keeps no execution record: the walk
  clears its events once ``_step_slot`` has read the step's, so a fork
  copies only live state.  Forks are copy-on-write: a ``NodeRec`` in a
  store is never changed (a write or an unlink installs a new one), so a
  fork copies dicts of references and G_op holds the records read.
  Complete operations, and their finished machines, are shared: only
  aborted ones are ever reset.  A leaf configuration keeps its store and
  machines for the leaves that end in it; the leaves hold no world.
* ``Schedule.digest`` hashes the slots' JSON joined by commas in brackets.
  Each edge holds its slot's piece, and a leaf hashes its path's pieces
  when its digest is first asked for, unless the walk hashed them when it
  kept the leaf: only the leaves a caller wants are hashed.
* The export check is per step: it is the one rule, since a step that
  takes its slot occupies no other.  That is ``drive``'s whole-history
  check, which ``drive`` keeps as the reference: every event of the
  implementation's world comes from one of its steps, no step that takes
  a slot emits an abort-marked event, and at a leaf every operation is
  complete and on attempt 0 (``complete`` and ``History.exported`` drop
  only abort-marked events).

The LSL oracle (``metric``) is defined on the audited replay of a leaf
(``audited_history`` of its schedule, the reference path), and decided
from the leaf's end configuration when the leaf's signature
(``Leaf.signature``) is new within the pass.  The signature is each
concurrent operation's id, status, response and canonical read/write
trace, in id order, the precedence relation of the concurrent operations
((a, b) when a responds before b is invoked), and the final store's
``canonical()``.  It is exact: an operation's trace and response decide
its local serializability; the store decides the audit finds, which run
alone afterwards; the workload fixes the rest.  Real time enters only
linearizability, and only as the precedence relation (Herlihy & Wing):
``checkers.linearize`` places an operation once every operation that
precedes it is placed.  Local serializability and the audit finds read no
order.  So the verdict needs no replay: the audit finds run on a fork of
the end store (``Leaf.audits``, through ``audit_finds`` as in
``audited_history``), each after every concurrent operation and every
earlier find.  Each part is decided once per value of the signature's
parts it reads: the audit finds once per end store, local
serializability once per (operations with their traces and responses,
end store), and linearizability once per signature, since only it reads
the precedence.  Unsynchronized leaves never abort or restart, which it
does not cover; it raises if one does.
Each operation's trace is read off its unsynchronized machine: the reads
are the records G_op holds, in visit order, and the writes are the plan's
first ``write_idx`` patches (an unsynchronized machine reads, then plans,
then writes, and every read is of a node not read before).  The store's
``canonical()`` is memoized in a cell a fork shares until either side
changes the store.  The walk asks for a leaf's verdict once per (leaf
configuration, precedence) node (the counts below), so a signature is
built once per node and needs no memo of its own: 3-6 times in an
``lsl_set`` pass over a Thm. 2 workload.

Count, don't enumerate.  Every number a report gives is a count, so the
walk counts leaves by category and enumerates only those its caller
wants (``walk``):

* Counts per (configuration, precedence) node are exact.  A leaf's
  category is (the implementations accepting it, its LSL verdict or
  None).  An implementation accepts a leaf iff it is still in the leaf
  configuration's key, and the verdict is a function of the signature,
  which is a function of the end configuration and the precedence.  Only
  an invocation edge adds to the precedence: invoking operation b adds
  (a, b) for each operation a whose unsynchronized machine has finished
  in the parent configuration, a function of that configuration.  So the
  precedence of a leaf below a node is the node's relation joined with
  the pairs of the edges taken, and the counts below (configuration,
  relation) are the sum over its out-edges of the counts below (child,
  relation | pairs).  Each node is summed once, when its last edge is
  done; a leaf node asks for its verdict once.  Without a verdict the
  relation is left out of the node.  The node's counts entry also
  records, in trie order, the out-edges whose child's entry holds a
  wanted leaf, each with its slot, digest piece, pairs, child, the
  child's entry and rejections.  An entry refers to its children only,
  never to its own node, so the entries form no reference cycle.
* The counted descent.  The first B leaves in trie order are counted by a
  descent that takes a node whole when its counts are known and fit in
  what is left of B, and descends edge by edge into any other node.  It
  stops at the first edge past the B-th leaf, so it makes no
  configuration, and steps no orbit, that the leaf-by-leaf walk to the
  (B+1)-th leaf would not: the two make their configurations in the same
  order, so the same ones are images.  ``total`` and ``partial`` are that
  walk's.  A node taken whole adds its counts at once, and hands over
  its wanted leaves from the edges its entry records (``_wanted_leaves``):
  every node below it has its entry, since an entry is made only once
  every edge below it is done, and the whole subtree lies within B.  So
  taking a node whole makes no configuration, edge or verdict call, and
  the walk makes the same ones whichever leaves it wants.
* The witness rule.  Leaves are hashed and turned into schedules only
  along recorded edges, or inside subtrees the descent enters, whose
  count for the wanted category is above 0, within the budget.  The
  leaves a node taken whole hands over are the ones the descent would
  yield below it, in its order, with the same slots, digest pieces,
  merged rejections, precedence (the node's relation joined with the
  pairs along the path), machines, store and category.  A caller that
  keeps the k smallest digests (``metric.optimality_gap``, k = 3) passes
  k to the walk (`keep`), which keeps them as it goes (``_Kept``) and
  yields them once it ends, in digest order: the k smallest within the
  first B leaves, as an enumeration would give them.  A leaf reached on
  its first visit is built anyway, for its verdict, and offered to the
  kept set.  A node taken whole hashes each wanted path from the pieces
  its recorded edges hold and builds a ``Leaf`` only for a digest below
  the k-th kept one: ``optimality_gap`` of ``hoh`` on a whole Thm. 2
  universe hashes the 502-3430 LSL schedules it misses and builds 21-33
  leaves.  The walk makes the same configurations, edges and verdict
  calls, and fills the same tally, whatever it keeps.

``free_run`` is the liveness mode: random scheduling, blocked machines
retried, aborted machines restarted.  It keeps its sorted list of live
processes from step to step, dropping a process only when its operation
finishes; an aborted process stays live, since ``restart`` gives it a new
machine.  After a blocked step it asks every unfinished machine whether
its next step would block (``would_block``, which changes nothing) and
reports a deadlock when all would.  It asks the process that last
progressed first, as the likeliest to progress again, then the others in
turn.  The order is exact: each probe is free of side effects, so their
conjunction has the same value in any order.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator

from .model import (COMPLETE, OI, History, InvariantError,
                    OperationInstance, Schedule, Slot, complete, schedule_of,
                    slot_of)
from .seqspec import (DagState, NodeRec, Operation, SearchStructureDef,
                      UpdatePlan, canonical_steps, node_token)
from .sync import (ABORT_OUT, BLOCKED, FINISHED, PROGRESSED, HohMachine,
                   StepMachine, StmCommitOnlyMachine, StmMachine, UnsyncMachine,
                   World, make_machine, restart)


# the schedules a universe, a classification or an optimality gap takes
# by default; the universe is partial beyond them
DEFAULT_BUDGET = 20000
# the steps a free run takes before it is taken for a livelock
FREE_RUN_STEP_CAP = 100000
# the restarts of aborted operations a free run allows before it is taken
# for a livelock
FREE_RUN_RESTART_CAP = 100


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
        """Hash of the structure and the operations.  An operation's value
        enters only when it is not ``Operation``'s default (the key for an
        insert, None otherwise), so workloads of default values keep the
        fingerprints that tests/golden and benchmarks/reference record; a
        value JSON cannot encode enters as its repr."""
        blob = json.dumps([list(self.structure.fingerprint()),
                           [_op_fields(o) for o in self.setup],
                           [[p, *_op_fields(o)] for p, o in self.concurrent]],
                          separators=(",", ":"), default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _op_fields(o: Operation) -> list:
    """[name, key], plus the value when it is not the default."""
    default = o.key if o.name == "insert" else None
    return [o.name, o.key] if o.val == default else [o.name, o.key, o.val]


def workload_keys(w: Workload) -> tuple[int, ...]:
    keys = {o.key for o in w.setup} | {o.key for _, o in w.concurrent}
    return tuple(sorted(keys))


@dataclass
class DriveResult:
    verdict: str  # accepted | rejected
    history: History
    reason: str | None = None  # blocked | aborted | order-mismatch
    failing_slot: int | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    @property
    def responses(self) -> dict[int, object]:
        """Each complete operation's response, by id."""
        return {i: o.response for i, o in self.history.ops.items() if o.is_complete()}


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


def _run_sequential(world: World, w: Workload, inst: OperationInstance) -> StepMachine:
    """Run one operation to completion, alone, on the unsynchronized
    machine; return the finished machine."""
    world.ops[inst.id] = inst
    m = make_machine("unsync", w.structure, inst)
    while not m.finished:
        out = m.step(world)
        if out.kind not in (PROGRESSED, FINISHED):
            raise InvariantError(f"unsync machine of {inst.describe()} "
                                 f"{out.kind} running alone")
    return m


def _setup_world(w: Workload) -> World:
    """A new world after the setup, run sequentially and audited: its store
    is the initial store of every schedule of the workload."""
    world = World(w.structure.new_state())
    for i, op in enumerate(w.setup):
        _run_sequential(world, w, OperationInstance(id=i, proc=0, name=op.name,
                                                    key=op.key, val=op.val))
    w.structure.audit(world.state)
    return world


def build_world(impl: str, w: Workload) -> tuple[World, dict[int, StepMachine], int]:
    """Run the setup sequentially, snapshot the store, spawn the machines.

    Returns (world, machines by process, index of the first concurrent
    event)."""
    world = _setup_world(w)
    return world, _spawn(impl, w, world), len(world.events)


def _concurrent_history(world: World, w: Workload, start: int,
                        initial: dict) -> History:
    events = world.events[start:]
    present = {e.op for e in events}
    ops = {i: o for i, o in world.ops.items() if i in present}
    return History(events, ops, initial)


def audit_finds(world: World, w: Workload) -> list[StepMachine]:
    """Run one sequential find per workload key, in key order, on `world`
    after the concurrent operations; return their finished machines.  The
    finds take the operation ids and processes after the workload's."""
    next_id = len(w.setup) + len(w.concurrent)
    next_proc = max((p for p, _ in w.concurrent), default=0) + 1
    return [_run_sequential(world, w, OperationInstance(id=next_id + i, proc=next_proc + i,
                                                        name="find", key=key))
            for i, key in enumerate(workload_keys(w))]


def _fork(world: World, machines: dict[int, StepMachine]):
    w2 = world.clone()
    m2 = {p: m.clone(w2.ops) for p, m in machines.items()}
    return w2, m2


def _step_slot(world: World, m: StepMachine, idx: int,
               slot: Slot | None) -> Slot | str:
    """Give `m` one step, at slot index `idx` of a schedule: the one rule
    for whether a step takes a slot.  It takes `slot` iff it progresses and
    the slots its events occupy under ``slot_of`` are exactly ``[slot]``;
    for `slot` None, whichever one slot they are.  Returns the slot taken,
    else the rejection reason: blocked, aborted, or order-mismatch when the
    first slot the step occupies is not `slot` or there is none.  A
    progressing step that occupies more than one slot raises
    InvariantError: a schedule gives each step one slot, so the history
    would not export the schedule."""
    if m.finished:
        raise MalformedScheduleError(
            f"slot {idx} addresses finished operation of process {m.op.proc}")
    out = m.step(world)
    if out.kind == BLOCKED:
        return "blocked"
    if out.kind == ABORT_OUT:
        return "aborted"
    taken, n = None, 0
    for e in out.events:
        s = slot_of(e)
        if s is not None:
            if taken is None:
                if slot is not None and s != slot:
                    return "order-mismatch"
                taken = s
            n += 1
    if taken is None:
        return "order-mismatch"
    if n > 1:
        raise InvariantError(f"step of process {m.op.proc} does not export the "
                             f"schedule: it occupies {n} slots at slot {idx}")
    return taken


def _replay(impl: str, w: Workload,
            schedule: Schedule) -> tuple[World, int, dict, tuple[str, int] | None]:
    """The replay ``drive`` and ``audited_history`` share: `impl`'s world
    after the setup, then one step of the named process per slot
    (``_step_slot``) up to the first slot the step does not take.  A slot
    for a process the workload does not have raises before any step, and
    so does a schedule whose every slot is taken but that leaves an
    operation incomplete.  Returns (world, index of the first concurrent
    event, initial snapshot, (reason, slot index) of the rejection or
    None)."""
    world, machines, start = build_world(impl, w)
    for idx, slot in enumerate(schedule.slots):
        if slot.proc not in machines:
            raise MalformedScheduleError(f"slot {idx} for unknown process {slot.proc}")
    initial = world.state.snapshot()
    for idx, slot in enumerate(schedule.slots):
        taken = _step_slot(world, machines[slot.proc], idx, slot)
        if taken != slot:
            return world, start, initial, (taken, idx)
    if not all(m.finished for m in machines.values()):
        raise MalformedScheduleError("schedule leaves operations incomplete")
    return world, start, initial, None


def drive(impl: str, w: Workload, schedule: Schedule) -> DriveResult:
    """Give the named process's machine one step per slot; accept iff every
    slot progresses with the named event and all operations complete, and
    then check that the history exports the schedule."""
    world, start, initial, rejected = _replay(impl, w, schedule)
    hist = _concurrent_history(world, w, start, initial)
    if rejected is not None:
        return DriveResult("rejected", hist, *rejected)
    if schedule_of(complete(hist).exported()) != schedule:
        raise InvariantError("accepted history does not export the schedule")
    return DriveResult("accepted", hist)


def audited_history(w: Workload, schedule: Schedule) -> History:
    """Legal replay of the schedule plus the sequential audit finds: the
    history the LSL oracle checks for it (see ``metric``).  Raises
    MalformedScheduleError for a schedule that is not in the universe."""
    world, start, initial, rejected = _replay("unsync", w, schedule)
    if rejected is not None:
        _, idx = rejected
        raise MalformedScheduleError(f"slot {idx} is not a step of the "
                                     f"universe: {schedule.slots[idx]}")
    audit_finds(world, w)
    return _concurrent_history(world, w, start, initial)


# -- configuration keys -----------------------------------------------------------


def _exact_fields(x, names: frozenset) -> dict:
    """The attributes of `x`, for a key written field by field: one it was
    not written for raises."""
    d = x.__dict__
    if d.keys() != names:
        raise TypeError(f"configuration key of {type(x).__name__} does not cover "
                        f"{sorted(d.keys() ^ names)}")
    return d


_SCALARS_OR_NONE = frozenset((bool, int, float, str, type(None)))


def _scalars(seq) -> tuple:
    """`seq` as a tuple, each of its values a scalar or None, as in every
    field the key lays out; any other value raises."""
    t = tuple(seq)
    if not _SCALARS_OR_NONE.issuperset(map(type, t)):
        other = next(v for v in t if type(v) not in _SCALARS_OR_NONE)
        raise TypeError(f"no configuration key for {type(other).__name__}")
    return t


def _flat(d: dict) -> tuple:
    """The items of a dict of scalars, flat and in order."""
    return _scalars(itertools.chain.from_iterable(d.items()))


# The key's declared fields, each laid out by position below; a field
# outside them raises (``_exact_fields``).  Memo cells are declared and not
# keyed, and so are the world's execution record (``events``), its
# operations (``ops``) and what the machines and the store determine.
_WORLD_FIELDS = frozenset(("state", "locks", "versions", "events", "ops"))
_STATE_FIELDS = frozenset(("nodes", "root", "tail", "_canon"))
# a record's `_key` memo cell is its class default until ``_rec_key`` sets it
_REC_FIELDS = frozenset(("nid", "key", "val", "edges", "alive"))
_OP_FIELDS = frozenset(("id", "proc", "name", "key", "val", "status", "response"))
_PLAN_FIELDS = frozenset(("response", "writes", "new_nodes", "unlink"))
_MACHINE_FIELDS = frozenset(("def_", "op", "attempt", "invoked", "gop", "plan",
                             "write_idx"))
_MACHINE_LAYOUT = itemgetter("invoked", "write_idx")
_STM_FIELDS = _MACHINE_FIELDS | {"read_set"}


def _rec_key(rec: NodeRec) -> tuple:
    """A record's node, key, value and liveness, then its edges flat and
    in order; kept in its `_key` memo cell, since a record in a store is
    never changed."""
    k = rec._key
    if k is None:
        d = _exact_fields(rec, _REC_FIELDS)
        k = rec._key = (_scalars((d["nid"], d["key"], d["val"], d["alive"]))
                        + _flat(d["edges"]))
    return k


def _store_layout(state: DagState) -> tuple:
    """The root and the tail, then each record's key in the store's order
    (``alloc`` adds nodes in id order); a record's key holds its node."""
    d = _exact_fields(state, _STATE_FIELDS)
    return (d["root"], d["tail"], *map(_rec_key, d["nodes"].values()))


def _store_key(state: DagState) -> tuple:
    """``_store_layout(state)``, memoized in the cell that ``canonical()``
    uses: a fork shares it until either side changes the store."""
    cell = state._canon
    if cell[1] is None:
        cell[1] = _store_layout(state)
    return cell[1]


def _world_key(world: World) -> tuple:
    """The store's key: the lock tables and the versions are functions of
    the machines and the store (the module docstring)."""
    return _store_key(_exact_fields(world, _WORLD_FIELDS)["state"])


def _patches(pairs) -> tuple:
    """A plan's writes in order: each one's node, then its edge patch flat."""
    return tuple([_scalars((n,)) + _flat(patch) for n, patch in pairs])


def _plan_key(plan: UpdatePlan) -> tuple:
    """The response, the new nodes and the unlinks in one tuple (the
    count of new nodes marks where the unlinks begin), and the writes."""
    d = _exact_fields(plan, _PLAN_FIELDS)
    new = d["new_nodes"]
    return (_scalars((d["response"], len(new), *new, *d["unlink"])),
            _patches(d["writes"]))


def _step_machine_key(d: dict) -> tuple:
    """The fields every machine has but ``def_``, ``op`` and ``attempt``,
    by position: the scalar fields and the operation's status; G_op's
    records in visit order; the plan.  The operation's other fields are
    checked, not keyed.  A record's key holds its node, so the records in
    order are the whole of G_op."""
    status = _exact_fields(d["op"], _OP_FIELDS)["status"]
    plan = d["plan"]
    return (_scalars((*_MACHINE_LAYOUT(d), status)),
            tuple([_rec_key(r) for r in d["gop"].values()]),
            None if plan is None else _plan_key(plan))


def _machine_key(m: StepMachine) -> tuple:
    """The keyed fields (``_step_machine_key``), by position for the
    machine's class; a field the layout does not declare, on the machine,
    its operation, a record of its G_op or its plan, raises.  ``hoh``
    holds no field of its own: its held locks are functions of the fields
    every machine has and of the store's root."""
    t = type(m)
    if t is UnsyncMachine or t is HohMachine:
        return t, _step_machine_key(_exact_fields(m, _MACHINE_FIELDS))
    if t is StmMachine or t is StmCommitOnlyMachine:
        # the class holds ``commit_only``; the read set is ``stm``'s own field
        d = _exact_fields(m, _STM_FIELDS)
        return t, _step_machine_key(d), _flat(d["read_set"])
    raise TypeError(f"no configuration key for {t.__name__}")


def _config_key(world: World, machines: dict[int, StepMachine],
                runs: dict) -> tuple:
    """A configuration's key from scratch: the walk keys its root so, and
    ``_step_key`` must give the same value for every other configuration.
    Each world and its machines are keyed as ``_restep`` keys them."""
    def machines_key(ms):
        return tuple([(p, _machine_key(m)) for p, m in ms.items()])
    return (_world_key(world), machines_key(machines),
            tuple([(impl, _world_key(iw), machines_key(im))
                   for impl, (iw, im) in runs.items()]))


def _restep(machines_key: tuple, world: World, machines: dict[int, StepMachine],
            proc: int) -> tuple[tuple, tuple]:
    """The keys of `world` and of its machines after a progressing step of
    process `proc`, from the machines' keys before it.  The store and the
    process's machine are keyed again; the other machines keep their keys
    (the module docstring)."""
    return (_world_key(world),
            tuple([(p, _machine_key(machines[p]) if p == proc else k)
                   for p, k in machines_key]))


def _step_key(parent: tuple, proc: int, world: World,
              machines: dict[int, StepMachine], runs: dict) -> tuple:
    """``_config_key(world, machines, runs)`` of the configuration
    a progressing step of process `proc` leads to from the one keyed
    `parent`, re-keying only what the step can change: see ``_restep``.
    `runs` holds the implementations that accepted the step."""
    _, machines_key, run_keys = parent
    before = {impl: mk for impl, _, mk in run_keys}
    return (*_restep(machines_key, world, machines, proc),
            tuple([(impl, *_restep(before[impl], iw, im, proc))
                   for impl, (iw, im) in runs.items()]))


@dataclass(slots=True)
class Leaf:
    """One schedule of the universe with its verdicts from the walk.

    `machines` and `state` are the walk's configuration at the end of the
    schedule, which every schedule that ends in it shares: read them,
    change nothing.  The schedule is built on first use, and so is the
    digest, unless the walk set it when it kept the leaf (``walk``'s
    `keep`); the signature is built at each call, which the walk makes once
    per (end configuration, precedence) node."""

    slots: tuple[Slot, ...]
    pieces: tuple[bytes, ...]  # the slots' digest JSON, comma-led but the first
    # implementation -> (reason, failing slot); accepting ones are absent
    rejected: dict[str, tuple[str, int]]
    machines: dict[int, StepMachine]  # the unsynchronized ones, by process
    state: DagState  # the store at the end of the schedule
    # (a, b): operation a responded before operation b was invoked
    precedence: frozenset[tuple[int, int]]
    initial: DagState  # the store after the setup, which every leaf shares
    # (the implementations accepting, the LSL verdict or None), set by the walk
    category: tuple | None = None
    _schedule: Schedule | None = field(default=None, init=False, repr=False)
    _digest: str | None = field(default=None, init=False, repr=False)

    @property
    def schedule(self) -> Schedule:
        if self._schedule is None:
            # as ``World.emit`` builds an event: no frozen dataclass __init__
            s = self._schedule = object.__new__(Schedule)
            s.__dict__["slots"] = self.slots
        return self._schedule

    @property
    def digest(self) -> str:
        """``schedule.digest()``, hashed from the pieces the walk's edges
        hold."""
        if self._digest is None:
            self._digest = _digest(self.pieces)
        return self._digest

    def signature(self) -> tuple:
        """All that the LSL verdict of the leaf's audited history depends
        on, for one workload: (operation id, status, response, canonical
        trace) per operation in id order, the precedence relation, and the
        store's ``canonical()`` (why it is exact, and how the traces are
        read off the machines: the module docstring).  The verdict is
        decided from it and ``audits`` (``metric``).  Raises InvariantError
        on an aborted operation or a restarted attempt, which it does not
        cover."""
        ms = sorted(self.machines.values(), key=lambda m: m.op.id)
        for m in ms:
            if m.attempt != 0 or m.op.status != COMPLETE:
                raise InvariantError(f"leaf has an abort or a restart: "
                                     f"{m.op.describe()} attempt {m.attempt} "
                                     f"{m.op.status}")
        return (tuple([(m.op.id, m.op.status, m.op.response, _trace(m)) for m in ms]),
                self.precedence, self.state.canonical())

    def audits(self, w: Workload) -> list[tuple[OperationInstance, tuple]]:
        """(operation, canonical trace) of each audit find of the leaf's
        audited history (``audit_finds``), run on a fork of its end store,
        which is left as it is."""
        return [(m.op, _trace(m)) for m in audit_finds(World(self.state.clone()), w)]


def _digest(pieces) -> str:
    """``Schedule.digest`` of the slots whose digest pieces these are."""
    return hashlib.sha256(b"[" + b"".join(pieces) + b"]").hexdigest()[:16]


def _trace(m: StepMachine) -> tuple:
    """``canonical_steps`` of an unsynchronized machine's raw read/write
    trace, as its events carry it: each read's record, in G_op order,
    then each write's patch of ``n<id>`` tokens."""
    return canonical_steps(
        [("r", n, r.snap()) for n, r in m.gop.items()]
        + [("w", n, {lab: node_token(t) for lab, t in patch.items()})
           for n, patch in m.plan.writes[:m.write_idx]])


class _Renaming:
    """A permutation of interchangeable processes (``_renamings``): `proc`
    maps a process to its image and `back` an image to its process, `op`
    maps each operation id to its image's, and a machines key's position i
    takes the entry at position ``positions[i]``."""

    __slots__ = ("proc", "back", "op", "positions")

    def __init__(self, ids: dict[int, int], image: dict[int, int]):
        order = list(ids)
        self.proc, self.back = image, {q: p for p, q in image.items()}
        self.op = {ids[p]: ids[q] for p, q in image.items()}
        self.positions = tuple([order.index(self.back[q]) for q in order])

    def key(self, key: tuple) -> tuple:
        """The key of the configuration's image: the same stores, each
        machine key at its process's image, in the unsynchronized world and
        in every implementation's."""
        store, machines, runs = key
        return (store, self._machines(machines),
                tuple([(impl, s, self._machines(mk)) for impl, s, mk in runs]))

    def _machines(self, mk: tuple) -> tuple:
        return tuple([(p, mk[j][1]) for (p, _), j in zip(mk, self.positions)])

    def machines(self, machines: dict[int, StepMachine]) -> dict[int, StepMachine]:
        """Clones of finished machines, each at its process's image with its
        operation renamed; the originals are left as they are."""
        out = {}
        for q in machines:
            m = machines[self.back[q]]
            c = type(m).__new__(type(m))
            c.__dict__.update(m.__dict__)
            c.op = m.op.copy()
            c.op.id, c.op.proc = self.op[m.op.id], q
            out[q] = c
        return out


def _renamings(machines: dict[int, StepMachine]) -> list[_Renaming]:
    """Every permutation but the identity of the processes whose
    operations are equal (name, key and value), each class among itself,
    in a fixed order; `machines` are the walk's root machines by process,
    in spawn order."""
    classes: list[list[int]] = []
    for p, m in machines.items():
        o = m.op
        for c in classes:
            r = machines[c[0]].op
            if (r.name, r.key, r.val) == (o.name, o.key, o.val):
                c.append(p)
                break
        else:
            classes.append([p])
    ids = {p: m.op.id for p, m in machines.items()}
    out = []
    for perms in itertools.product(*map(itertools.permutations, classes)):
        image = {p: q for c, perm in zip(classes, perms) for p, q in zip(c, perm)}
        if any(p != q for p, q in image.items()):
            out.append(_Renaming(ids, image))
    return out


class _Config:
    """A node of the walk: one configuration, reached by one or more
    schedule prefixes of length `depth`, with its key.  Its out-edges, one
    per live process in process order, are (slot, digest piece, the
    precedence pairs the step adds, child, rejections) and are made the
    first time the walk takes them.  A configuration made by stepping owns
    its worlds until its last edge, which hands them to its children; at a
    leaf it keeps them and the implementations still accepting there.  An
    `image` (first member, renaming) owns no world: its edges are the first
    member's renamed, and at a leaf it shares the first member's store and
    holds renamed clones of its machines.  `counts` maps a precedence
    relation to the counts entry below (``walk``); a leaf's verdict is
    asked for when its relation's entry is first made, so no signature
    memo is kept."""

    __slots__ = ("depth", "key", "live", "world", "machines", "runs", "edges",
                 "accepting", "counts", "image")

    def __init__(self, depth: int, key: tuple, world: World | None,
                 machines: dict[int, StepMachine] | None, runs: dict | None,
                 image: tuple[_Config, _Renaming] | None = None):
        self.depth, self.key, self.image = depth, key, image
        self.edges: list[tuple] = []
        self.counts: dict[tuple, tuple] = {}
        self.accepting = None
        if image is not None:
            first, r = image
            self.live = tuple(sorted([r.proc[p] for p in first.live]))
            self.world = self.machines = self.runs = None
            if not self.live:
                self.world, self.machines = first.world, r.machines(first.machines)
                self.accepting = first.accepting
            return
        self.live = tuple(sorted(p for p, m in machines.items() if not m.finished))
        self.world, self.machines = world, machines
        self.runs = runs
        if not self.live:
            for _, im in runs.values():
                if not all(m.finished for m in im.values()):
                    raise MalformedScheduleError("schedule leaves operations incomplete")
            self.accepting = tuple(runs)
            self.runs = None


class _Images:
    """The walk's table of images: for each configuration made by stepping,
    the key of each of its images under the walk's renamings (not already
    made) maps to (that configuration, the renaming)."""

    def __init__(self, renamings: list[_Renaming]):
        self.renamings = renamings
        self.table: dict[tuple, tuple[_Config, _Renaming]] = {}

    def add(self, node: _Config) -> None:
        for r in self.renamings:
            k = r.key(node.key)
            if k != node.key:
                self.table.setdefault(k, (node, r))


_NO_PAIRS: frozenset[tuple[int, int]] = frozenset()


def _expand(node: _Config, memo: dict, pieces: dict[Slot, bytes],
            images: _Images) -> None:
    """Make the node's next out-edge.  A configuration made by stepping
    steps it: the unsynchronized machine of its process, then each
    implementation still accepting.  An image renames its first member's
    edge from the process's preimage.  The child is the configuration that
    results, found in `memo` or added to it: as an image when `images`
    holds its key, else made by stepping, its images then registered."""
    i = len(node.edges)
    proc = node.live[i]
    idx = node.depth
    if node.image is not None:
        first, r = node.image
        slot, _, pairs, child, rejections = first.edges[first.live.index(r.back[proc])]
        slot = Slot(proc, slot.kind, slot.elem, slot.op_name, slot.key)
        if pairs:
            pairs = frozenset([(r.op[a], r.op[b]) for a, b in pairs])
        key = r.key(child.key)
        world = machines = runs = None
    else:
        # the last edge takes over the node's worlds: nothing reads them after
        last = i == len(node.live) - 1
        world, machines = (node.world, node.machines) if last else \
            _fork(node.world, node.machines)
        slot = _step_slot(world, machines[proc], idx, None)
        # the step's events are read: a walk world keeps no execution record
        world.events.clear()
        if isinstance(slot, str):
            raise InvariantError(f"unsync machine of process {proc} {slot}")
        runs, rejections = {}, {}
        for impl, (iw, im) in node.runs.items():
            if not last:
                iw, im = _fork(iw, im)
            taken = _step_slot(iw, im[proc], idx, slot)
            iw.events.clear()
            if taken == slot:
                runs[impl] = (iw, im)
            else:
                rejections[impl] = (taken, idx)
        key = _step_key(node.key, proc, world, machines, runs)
        # an invocation follows every operation finished before it; no
        # other step adds to the precedence
        pairs = _NO_PAIRS
        if slot.kind == OI:
            b = machines[proc].op.id
            pairs = frozenset([(m.op.id, b) for p, m in machines.items()
                               if p not in node.live])
        if last:
            node.world = node.machines = node.runs = None
    child = memo.get(key)
    if child is None:
        image = images.table.pop(key, None)
        if image is None and world is None:
            raise InvariantError(f"image configuration at depth {idx + 1} "
                                 f"has no first member")
        child = memo[key] = _Config(idx + 1, key, world, machines, runs, image)
        if image is None:
            images.add(child)
    elif child.depth != idx + 1:
        raise InvariantError(f"configuration reached at depths {child.depth} "
                             f"and {idx + 1}")
    piece = pieces.get(slot)
    if piece is None:
        piece = pieces[slot] = b"," + json.dumps(
            slot.canon(), separators=(",", ":")).encode()
    node.edges.append((slot, piece if idx else piece[1:], pairs, child, rejections))


class Tally:
    """What one ``walk`` counted: leaves per category within its budget,
    and whether the universe holds more (`partial`)."""

    def __init__(self):
        self.counts: dict[tuple, int] = {}  # (accepting impls, verdict) -> leaves
        self.partial = False

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, pred) -> int:
        """The leaves whose category satisfies `pred`."""
        return sum(n for cat, n in self.counts.items() if pred(cat))


class _Kept:
    """The `keep` leaves with the smallest digests among those offered, in
    digest order, an equal digest after the one offered before it: what
    ``heapq.nsmallest(keep, offered, key=digest)`` returns."""

    __slots__ = ("keep", "digests", "leaves")

    def __init__(self, keep: int):
        if keep < 0:
            raise ValueError(f"cannot keep {keep} leaves")
        self.keep = keep
        self.digests: list[str] = []
        self.leaves: list[Leaf] = []

    def beats(self, digest: str) -> bool:
        """Whether a leaf of this digest enters the kept set."""
        d = self.digests
        return len(d) < self.keep or (self.keep > 0 and digest < d[-1])

    def add(self, leaf: Leaf) -> None:
        """Keep `leaf`, whose digest ``beats`` the kept ones; the last kept
        leaf drops out when there are more than `keep`."""
        i = bisect.bisect_right(self.digests, leaf.digest)
        self.digests.insert(i, leaf.digest)
        self.leaves.insert(i, leaf)
        if len(self.leaves) > self.keep:
            del self.digests[-1], self.leaves[-1]


def walk(w: Workload, impls: tuple[str, ...], budget: int | None, verdict,
         wanted, tally: Tally, keep: int | None = None) -> Iterator[Leaf]:
    """The counted descent over the first `budget` leaves (all of them for
    None) in trie order.  It fills `tally` with their category counts and
    yields, in that order, each of them whose category satisfies `wanted`
    (every one for None).  With `keep`, it yields once it ends only the
    `keep` wanted leaves with the smallest digests, in digest order, an
    equal digest after the leaf before it in trie order: the leaves
    ``heapq.nsmallest(keep, leaves, key=digest)`` picks from those it
    yields without `keep`, each with its digest set by the walk
    (``_Kept``); a negative `keep` raises ValueError when the walk starts.
    A category is (the implementations of `impls` still accepting,
    ``verdict(leaf)`` or None without `verdict`); it is a function of the
    (configuration, precedence relation) node the leaf ends in, and so are
    the counts below any node.  The relation is left out of a node when there is no verdict.  A
    node's counts entry is (counts by category, their total, whether a
    wanted leaf lies below, the out-edges whose child's entry holds one);
    a node whose entry is known and fits in what is left of the budget is
    taken whole, and its wanted leaves come from those edges
    (``_wanted_leaves``).  The counted descent: the module docstring."""
    kept = None if keep is None else _Kept(keep)
    world = _setup_world(w)
    world.events.clear()
    initial = world.state.clone()
    runs = {}
    for impl in impls:
        iw = world.clone()
        runs[impl] = iw, _spawn(impl, w, iw)
    machines = _spawn("unsync", w, world)
    key = _config_key(world, machines, runs)
    root = _Config(0, key, world, machines, runs)
    memo = {key: root}
    images = _Images(_renamings(machines))
    images.add(root)
    by_prec = verdict is not None
    counts = tally.counts
    pieces: dict[Slot, bytes] = {}  # "," + the slot's digest JSON
    slots: list[Slot] = []  # the path's slots and digest pieces
    texts: list[bytes] = []
    # leaves the budget still takes; None: no budget
    left = None if budget is None else max(budget, 0)
    stack = []  # [configuration, precedence, rejections, counts key, next edge]
    entering = (root, frozenset(), {})
    if left == 0:  # every universe holds a schedule
        tally.partial = True
        entering = None
    while True:
        if entering is not None:
            node, prec, rejected = entering
            entering = None
            pkey = prec if by_prec else frozenset()
            known = node.counts.get(pkey)
            if known is None and not node.live:
                # a leaf: the first visit of (node, precedence) classifies it
                leaf = Leaf(tuple(slots), tuple(texts), rejected,
                            node.machines, node.world.state, prec, initial)
                cat = (node.accepting, None if verdict is None else verdict(leaf))
                want = wanted is None or wanted(cat)
                node.counts[pkey] = ({cat: 1}, 1, want, ())
                counts[cat] = counts.get(cat, 0) + 1
                if left is not None:
                    left -= 1
                if want:
                    leaf.category = cat
                    if kept is None:
                        yield leaf
                    elif kept.beats(leaf.digest):
                        kept.add(leaf)
            elif known is not None and (left is None or known[1] <= left):
                for cat, n in known[0].items():
                    counts[cat] = counts.get(cat, 0) + n
                if left is not None:
                    left -= known[1]
                if known[2]:
                    yield from _wanted_leaves(node, known, prec, rejected,
                                              slots, texts, initial, kept)
            else:
                stack.append([node, prec, rejected, pkey, 0])
        if not stack:
            break
        frame = stack[-1]
        node, prec, rejected, pkey, i = frame
        if i < len(node.live):
            if left == 0:  # a leaf beyond the budget lies below this edge
                tally.partial = True
                break
            frame[4] = i + 1
            if i == len(node.edges):
                _expand(node, memo, pieces, images)
            slot, piece, pairs, child, rejections = node.edges[i]
            del slots[node.depth:], texts[node.depth:]
            slots.append(slot)
            texts.append(piece)
            entering = (child, prec | pairs if pairs else prec,
                        {**rejected, **rejections} if rejections else rejected)
            continue
        stack.pop()
        if pkey not in node.counts:
            acc: dict[tuple, int] = {}
            edges = []  # the out-edges with a wanted leaf below, in trie order
            for slot, piece, pairs, child, rejections in node.edges:
                below = child.counts[pkey | pairs if pairs and by_prec else pkey]
                for cat, n in below[0].items():
                    acc[cat] = acc.get(cat, 0) + n
                if below[2]:
                    edges.append((slot, piece, pairs, child, below, rejections))
            node.counts[pkey] = (acc, sum(acc.values()), bool(edges), tuple(edges))
    if kept is not None:
        yield from kept.leaves


def _wanted_leaves(node: _Config, entry: tuple, prec: frozenset, rejected: dict,
                   slots: list[Slot], texts: list[bytes], initial: DagState,
                   kept: _Kept | None) -> Iterator[Leaf]:
    """The wanted leaves below `node`, reached with `prec`, `rejected` and
    the path `slots` and `texts`, in trie order, as the descent would yield
    them: from its counts `entry` down the out-edges each entry records.
    Given `kept`, it yields none: it hashes each wanted path from its
    pieces and builds and keeps only the leaves whose digest ``beats`` the
    kept ones.  Makes no configuration, edge or verdict call, and leaves
    the path lists as they were."""
    if node.live:
        edges = entry[3]
    else:
        # a leaf node is handed over as the edge the path took to it, whose
        # pairs and rejections `prec` and `rejected` already hold
        edges = ((slots[-1], texts[-1], _NO_PAIRS, node, entry, None),)
    path, text = slots[:node.depth], texts[:node.depth]
    # a recorded edge iterator each, with the relation and rejections above it
    stack = [(iter(edges), prec, rejected)]
    while stack:
        edges, prec, rejected = stack[-1]
        for slot, piece, pairs, child, below, rejections in edges:
            del path[child.depth - 1:], text[child.depth - 1:]
            path.append(slot)
            text.append(piece)
            p = prec | pairs if pairs else prec
            r = {**rejected, **rejections} if rejections else rejected
            if child.live:
                # the loop resumes `edges` once this child's leaves are out
                stack.append((iter(below[3]), p, r))
                break
            if kept is not None:
                digest = _digest(text)
                if not kept.beats(digest):
                    continue
            leaf = Leaf(tuple(path), tuple(text), r, child.machines,
                        child.world.state, p, initial, *below[0])
            if kept is None:
                yield leaf
            else:
                leaf._digest = digest
                kept.add(leaf)
        else:
            stack.pop()


def universe(w: Workload, budget: int = DEFAULT_BUDGET) -> tuple[list[Schedule], bool]:
    """The first `budget` schedules of the workload in the DFS order of
    ``walk``.

    Returns (schedules, truncated?): truncated when the universe holds more
    than `budget` schedules, which the walk tells by reaching one more
    leaf.  Deterministic."""
    budget = max(budget, 0)
    out = [leaf.schedule
           for leaf in itertools.islice(walk(w, (), None, None, None, Tally()),
                                        budget + 1)]
    return out[:budget], len(out) > budget


class LivelockError(RuntimeError):
    pass


def free_run(impl: str, w: Workload, seed: int = 0) -> History:
    """Seeded random scheduler: blocked machines are retried
    later, aborted machines are restarted.  Returns the full history
    (setup included); aborted attempts' events are excluded from the
    exported view per the history model.  The live list and the deadlock
    probe's order are as the module docstring says."""
    world, machines, _ = build_world(impl, w)
    initial = w.structure.new_state().snapshot()
    rng = random.Random(seed)
    restarts = 0
    steps = 0
    live = sorted(machines)
    last = None  # the process whose step last did not block
    while live:
        proc = rng.choice(live)
        out = machines[proc].step(world)
        steps += 1
        if steps > FREE_RUN_STEP_CAP:
            raise LivelockError(f"no progress after {FREE_RUN_STEP_CAP} steps")
        if out.kind == BLOCKED:
            if _deadlocked(world, machines, last):
                raise LivelockError("all machines blocked: deadlock")
            continue
        last = proc
        if out.kind == FINISHED:
            live.remove(proc)
        elif out.kind == ABORT_OUT:
            restarts += 1
            if restarts > FREE_RUN_RESTART_CAP:
                raise LivelockError(f"restart budget {FREE_RUN_RESTART_CAP} exhausted")
            machines[proc] = restart(machines[proc])
    return History(list(world.events), dict(world.ops), initial)


def _deadlocked(world: World, machines: dict[int, StepMachine],
                first: int | None) -> bool:
    """Whether every unfinished machine's next step would block, asking
    process `first` first, then the others in turn."""
    m = machines.get(first)
    if m is not None and not m.finished and not m.would_block(world):
        return False
    return all(m.finished or m.would_block(world)
               for p, m in machines.items() if p != first)
