"""Accepted-schedule sets, the LSL-schedule oracle, and comparisons.

The concurrency of an implementation on a workload is the set of schedules
it accepts.  The correctness oracle is the set of LSL schedules: a schedule
belongs to it when the history obtained by replaying it with legal reads
(the unsynchronized machines), extended with one sequential find per
workload key, is LS-linearizable.  That audited history
(``audited_history``, re-exported here as the reference path) defines the
oracle; the walk decides it from the leaf's signature and end
configuration, with the checkers' cores that ``check_ls_linearizable``
runs on the history (``_lsl_verdict``).  Real time reaches the verdict
only as the precedence relation: the leaf's, with the audit finds after
it.  The audit extension
operationalizes the observation that a lost update is only visible to
later operations: without it, a schedule that silently drops a key would
still have a locally consistent exporting history.
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass, field

from .checkers import (CheckResult, abstract_state, linearize, ls_linearizable,
                       unit_checker)
from .model import Schedule
# audited_history is re-exported: the oracle's reference path
from .scheduler import (DEFAULT_BUDGET, Tally, Workload, audited_history, drive,
                        walk, workload_keys)

# the witness schedules a comparison or an optimality gap names per side
WITNESSES = 3


@dataclass
class ScheduleSet:
    impl: str
    fingerprint: str
    members: dict[str, Schedule]  # digest -> schedule
    total: int
    partial: bool = False
    inconclusive: frozenset[str] = frozenset()

    @property
    def digests(self) -> KeysView[str]:
        """The members' digests, a read-only view."""
        return self.members.keys()

    def __contains__(self, schedule: Schedule) -> bool:
        return schedule.digest() in self.members


@dataclass
class ComparisonVerdict:
    relation: str  # equal | left-strictly-more | right-strictly-more | incomparable
    left_only: list[Schedule] = field(default_factory=list)
    right_only: list[Schedule] = field(default_factory=list)


def _lsl_verdict(w: Workload):
    """The LSL verdict of a walk's leaf, from the leaf's end configuration,
    by the checkers that decide an audited history: its units are each
    concurrent operation's trace (the signature's) and response, then each
    audit find's (``Leaf.audits``); its precedence relation is the leaf's,
    with each find after every concurrent operation and every earlier find.

    Each part is decided once per value of what it reads (the parts of
    ``Leaf.signature``):
    - the audit finds, once per end store (``canonical()``), which decides
      them: their ids and processes are fixed by the workload;
    - local serializability, once per (concurrent operations' id, status,
      response and trace by id, end store); it reads no order;
    - linearizability, and so the verdict, once per signature, since it
      reads the precedence.
    The memos and the initial abstract state (of the first leaf's
    ``initial`` store) live for one call, within which the workload and
    keys are fixed."""
    check_units = unit_checker(w.structure, workload_keys(w))
    q0 = None  # the initial abstract state, of the leaves' store after the setup
    finds: dict[tuple, list] = {}  # end store -> audit (operation, trace)s
    local: dict[tuple, CheckResult] = {}  # (units by id, end store) -> result
    verdicts: dict[tuple, bool | None] = {}  # signature -> verdict

    def verdict(leaf) -> bool | None:
        nonlocal q0
        sig = leaf.signature()
        if sig not in verdicts:
            if q0 is None:
                q0 = frozenset(abstract_state(leaf.initial.snapshot()).items())
            units, prec, store = sig
            if store not in finds:
                finds[store] = leaf.audits(w)
            audits = finds[store]
            ops = {m.op.id: m.op for m in leaf.machines.values()}
            lkey = (units, store)
            if lkey not in local:
                local[lkey] = check_units(
                    [(ops[i], 0, trace, True) for i, _, _, trace in units]
                    + [(op, 0, trace, True) for op, trace in audits])
            for op, _ in audits:
                prec = prec | {(i, op.id) for i in ops}
                ops[op.id] = op
            verdicts[sig] = ls_linearizable(local[lkey],
                                            lambda: linearize(ops, prec, q0)).verdict
        return verdicts[sig]
    return verdict


def classify(w: Workload, impls: tuple[str, ...] = (), lsl: bool = False,
             budget: int | None = DEFAULT_BUDGET) -> dict[str, ScheduleSet]:
    """The accepted set of every implementation in `impls` and, with
    `lsl`, the LSL set (under the name "lsl"), from one counted walk over
    the first `budget` schedules of the universe (all of them for None);
    the sets are partial when the universe holds more than `budget`.  Only
    the members of some set (and, with `lsl`, the inconclusive schedules)
    are enumerated and hashed."""
    members: dict[str, dict[str, Schedule]] = {n: {} for n in (*impls, "lsl")}
    inconclusive: set[str] = set()

    def wanted(cat) -> bool:
        return bool(cat[0]) or (lsl and cat[1] is not False)

    tally = Tally()
    for leaf in walk(w, impls, budget, _lsl_verdict(w) if lsl else None, wanted,
                     tally):
        accepting, verdict = leaf.category
        d, s = leaf.digest, leaf.schedule
        for impl in accepting:
            members[impl][d] = s
        if verdict is True:
            members["lsl"][d] = s
        elif verdict is None and lsl:
            inconclusive.add(d)
    fp, total = w.fingerprint(), tally.total
    out = {impl: ScheduleSet(impl, fp, members[impl], total, tally.partial)
           for impl in impls}
    if lsl:
        out["lsl"] = ScheduleSet("lsl", fp, members["lsl"], total, tally.partial,
                                 frozenset(inconclusive))
    return out


def accepted_set(impl: str, w: Workload, budget: int = DEFAULT_BUDGET) -> ScheduleSet:
    """The schedules `impl` accepts among the first `budget` of the
    universe (see ``classify``)."""
    return classify(w, (impl,), budget=budget)[impl]


def lsl_set(w: Workload, budget: int = DEFAULT_BUDGET) -> ScheduleSet:
    """Schedules with an LS-linearizable exporting history (audited)."""
    return classify(w, lsl=True, budget=budget)["lsl"]


def compare(a: ScheduleSet, b: ScheduleSet) -> ComparisonVerdict:
    if a.fingerprint != b.fingerprint:
        raise ValueError("schedule sets come from different workloads")
    left = sorted(a.digests - b.digests)
    right = sorted(b.digests - a.digests)
    if not left and not right:
        rel = "equal"
    elif left and not right:
        rel = "left-strictly-more"
    elif right and not left:
        rel = "right-strictly-more"
    else:
        rel = "incomparable"
    return ComparisonVerdict(rel,
                             [a.members[d] for d in left[:WITNESSES]],
                             [b.members[d] for d in right[:WITNESSES]])


def verify_witness(impl_in: str, impl_out: str, w: Workload,
                   schedule: Schedule) -> bool:
    """Re-drive a comparison witness: accepted by one side, not the other."""
    return (drive(impl_in, w, schedule).accepted
            and not drive(impl_out, w, schedule).accepted)


@dataclass
class OptimalityGap:
    impl: str
    accepted: int
    lsl: int
    ratio: float
    missing: list[Schedule]
    inconclusive: int = 0
    total: int = 0  # schedules classified
    partial: bool = False  # the universe was cut at the budget


def optimality_gap(impl: str, w: Workload, budget: int = DEFAULT_BUDGET) -> OptimalityGap:
    """Counts from one counted walk (see ``classify``); only the LSL
    schedules the implementation misses are hashed, and the walk builds
    and keeps the ``WITNESSES`` with the smallest digests (``walk``'s
    `keep`; inconclusive schedules are excluded, so the ratio is a lower
    bound)."""
    tally = Tally()
    missing = list(walk(w, (impl,), budget, _lsl_verdict(w),
                        lambda cat: cat[1] is True and not cat[0], tally,
                        keep=WITNESSES))
    accepted = tally.count(lambda cat: cat[0])
    usable = tally.count(lambda cat: cat[1] is True)
    inter = tally.count(lambda cat: cat[0] and cat[1] is True)
    return OptimalityGap(impl, accepted, usable, inter / usable if usable else 1.0,
                         [m.schedule for m in missing],
                         tally.count(lambda cat: cat[1] is None), tally.total,
                         tally.partial)


@dataclass
class IncomparabilityReport:
    verdict: str
    w1_relation: str
    sigma_verified: bool   # stm accepts, hoh rejects, on w1
    sigma0_verified: bool  # hoh accepts, stm rejects, on w2
    sigma: Schedule | None
    sigma0: Schedule | None


def incomparability(w1: Workload, sigma: Schedule, w2: Workload,
                    sigma0: Schedule) -> IncomparabilityReport:
    """The headline result: the two techniques accept incomparable schedule
    sets.  w1 is the identical-insert family, classified whole (no budget)
    and compared set-to-set; its witness `sigma` must be in stm's set, not
    in hoh's, and re-drive so.  w2 is the find/delete/delete family, whose
    witness `sigma0` is re-driven directly."""
    sets = classify(w1, ("hoh", "stm"), budget=None)
    hoh1, stm1 = sets["hoh"], sets["stm"]
    c1 = compare(stm1, hoh1)
    sigma_ok = sigma in stm1 and sigma not in hoh1 \
        and verify_witness("stm", "hoh", w1, sigma)
    sigma0_ok = verify_witness("hoh", "stm", w2, sigma0)
    verdict = "incomparable" if (sigma_ok and sigma0_ok) else "comparable"
    return IncomparabilityReport(verdict, c1.relation, sigma_ok, sigma0_ok,
                                 sigma, sigma0)
