"""Execution records: events, histories, high-level views, and schedules.

Everything downstream runs on one totally ordered sequence of events: the
invocations and responses of high-level dictionary operations and of the
node reads/writes they perform.  A History is that record plus the registry
of operation instances and a snapshot of the node store at its start.  A
Schedule is the same record with read values and responses erased - the
equivalence-class representative used by the acceptance machinery and the
concurrency metric.

Reads and writes execute atomically in this toolchain, so an invocation
event is always immediately followed by its response event; schedules
therefore carry one slot per read/write (the invocation) plus op-invoke
slots and op-response points.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

# Event kinds (also the wire tags of the JSON fixture format).
OI, OR, RI, RR, WI, WR = "oi", "or", "ri", "rr", "wi", "wr"

# Abort mark returned by a failed optimistic read/write; serialized as-is.
ABORT = "⊥"

INCOMPLETE = "incomplete"
COMPLETE = "complete"
ABORTED = "aborted"


class InvariantError(RuntimeError):
    """An invariant the library relies on does not hold.  This is a fault
    in a structure, a machine, a driver or a checker, never in the input."""


@dataclass(frozen=True)
class Event:
    """One point of an execution.

    `elem` is the symbolic role of the touched node ("root", "tail",
    "key:<k>"); `nid` is the concrete node behind it at emission time.
    `value` is a JSON-ready payload: the node snapshot for rr, the edge
    patch for wi, the (name, key[, value]) triple for oi, the response,
    or the abort mark.
    """

    seq: int
    proc: int
    op: int
    kind: str
    elem: str | None = None
    value: object = None
    nid: int | None = None
    attempt: int = 0

    def is_abort(self) -> bool:
        return self.value == ABORT

    def to_json(self) -> dict:
        out = {"seq": self.seq, "proc": self.proc, "op": self.op, "kind": self.kind}
        if self.elem is not None:
            out["elem"] = self.elem
        if self.value is not None:
            out["value"] = self.value
        return out


@dataclass
class OperationInstance:
    """One high-level operation: identity, arguments, and outcome."""

    id: int
    proc: int
    name: str
    key: int
    val: object = None
    status: str = INCOMPLETE
    response: object = None

    def is_complete(self) -> bool:
        return self.status == COMPLETE

    def copy(self) -> OperationInstance:
        """Field-for-field copy; forks take one per operation per step,
        and ``dataclasses.replace`` costs several times as much."""
        c = object.__new__(OperationInstance)
        c.__dict__.update(self.__dict__)
        return c

    def describe(self) -> str:
        return f"{self.name}({self.key})"


@dataclass
class History:
    """A totally ordered execution record.

    The same class serves as the full execution view (which may contain
    abort-marked events and multiple attempts of restarted operations) and,
    via :meth:`exported`, the history in the strict sense: abort-marked
    read/write pairs and abort responses removed, and only the final
    attempt of each operation retained.

    `initial` maps node id -> node snapshot (JSON-ready dict) at the point
    this history starts; checkers replay reads and writes against it.
    """

    events: list[Event] = field(default_factory=list)
    ops: dict[int, OperationInstance] = field(default_factory=dict)
    initial: dict[int, dict] = field(default_factory=dict)

    # -- derived views ---------------------------------------------------

    def exported(self) -> History:
        """Drop abort-marked events and superseded attempts."""
        final = dict.fromkeys((o.id for o in self.ops.values()), 0)
        for e in self.events:
            if e.attempt > final[e.op]:  # KeyError for an event of an unknown op
                final[e.op] = e.attempt
        kept = [e for e in self.events
                if e.attempt == final[e.op] and not e.is_abort()]
        return History(kept, self.ops, self.initial)

    def events_json(self) -> list[dict]:
        return [e.to_json() for e in self.events]


# -- projections ---------------------------------------------------------


def complete(h: History) -> History:
    """Subsequence consisting of the events of complete operations."""
    sub = [e for e in h.events if h.ops[e.op].is_complete()]
    ops = {i: o for i, o in h.ops.items() if o.is_complete()}
    return History(sub, ops, h.initial)


def trim_aborted(evs: list[Event]) -> list[Event]:
    """One operation's events (or one attempt's) minus its final aborted
    read/write: if any is abort-marked, drop those and the final read/write
    invocation, so an aborted operation keeps its successful prefix."""
    if any(e.is_abort() for e in evs):
        evs = [e for e in evs if not e.is_abort()]
        # the invocation paired with the dropped abort response, if recorded
        if evs and evs[-1].kind in (RI, WI):
            evs = evs[:-1]
    return evs


# -- schedules -----------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One schedule position: who moves and what kind of step it is.

    oi slots carry the operation name and arguments; ri/wi slots carry the
    symbolic element role; or slots are bare response points.
    """

    proc: int
    kind: str
    elem: str | None = None
    op_name: str | None = None
    key: int | None = None

    def canon(self) -> tuple:
        return (self.proc, self.kind, self.elem, self.op_name, self.key)

    def to_json(self) -> dict:
        out = {"proc": self.proc, "kind": self.kind}
        if self.kind == OI:
            out["op"] = self.op_name
            out["key"] = self.key
        elif self.kind in (RI, WI):
            out["elem"] = self.elem
        return out

    @staticmethod
    def from_json(d: dict) -> Slot:
        """Raises KeyError on a missing field and ValueError on a slot that
        is no object or a field of the wrong type: `proc` an int (not a
        bool), an oi slot's `op` insert, delete or find and its `key` a
        natural number, an ri or wi slot's `elem` a string."""
        if not isinstance(d, dict):
            raise ValueError(f"slot must be an object: {d!r}")
        kind, proc = d["kind"], d["proc"]
        if not isinstance(proc, int) or isinstance(proc, bool):
            raise ValueError(f"proc must be an integer: {d!r}")
        if kind == OI:
            op, key = d["op"], d["key"]
            if op not in ("insert", "delete", "find"):
                raise ValueError(f"unknown op {op!r}: {d!r}")
            if not isinstance(key, int) or isinstance(key, bool) or key < 0:
                raise ValueError(f"key must be a natural number: {d!r}")
            return Slot(proc, OI, op_name=op, key=key)
        if kind in (RI, WI):
            elem = d["elem"]
            if not isinstance(elem, str):
                raise ValueError(f"elem must be a string: {d!r}")
            return Slot(proc, kind, elem=elem)
        if kind == OR:
            return Slot(proc, OR)
        raise ValueError(f"bad slot kind: {kind!r}")


@dataclass(frozen=True)
class Schedule:
    slots: tuple[Slot, ...]

    def digest(self) -> str:
        blob = json.dumps([s.canon() for s in self.slots], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.slots]

    @staticmethod
    def from_json(slots: list[dict]) -> Schedule:
        return Schedule(tuple(Slot.from_json(d) for d in slots))

    def __len__(self) -> int:
        return len(self.slots)


def slot_of(e: Event) -> Slot | None:
    """The slot an event occupies, or None for a read/write response."""
    kind = e.kind
    if kind == OI:
        elem, name, key = None, e.value[0], e.value[1]
    elif kind == RI or kind == WI:
        elem, name, key = e.elem, None, None
    elif kind == OR:
        elem = name = key = None
    else:
        return None
    # Slot(...) sets each field of the frozen dataclass through
    # object.__setattr__; filling the instance dict takes under half the time
    s = object.__new__(Slot)
    d = s.__dict__
    d["proc"], d["kind"], d["elem"], d["op_name"], d["key"] = e.proc, kind, elem, name, key
    return s


def schedule_of(h: History) -> Schedule:
    """Erase read values and responses, keeping the event order.

    Response events of reads/writes are adjacent to their invocations and
    carry no ordering information of their own, so slots are taken from
    invocation events plus op-response points.
    """
    slots = (slot_of(e) for e in h.events)
    return Schedule(tuple(s for s in slots if s is not None))
