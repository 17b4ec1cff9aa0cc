"""Accepted-schedule sets, the LSL-schedule oracle, and comparisons.

The concurrency of an implementation on a workload is the set of schedules
it accepts.  The correctness oracle is the set of LSL schedules: a schedule
belongs to it when the history obtained by replaying it with legal reads
(the unsynchronized machines), extended with one sequential find per
workload key, is LS-linearizable.  The audit extension operationalizes the
observation that a lost update is only visible to later operations: without
it, a schedule that silently drops a key would still have a locally
consistent exporting history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import History, Schedule
from .scheduler import (Workload, audited_history, drive, schedule_trie,
                        workload_keys)
from .checkers import check_ls_linearizable


@dataclass
class ScheduleSet:
    impl: str
    fingerprint: str
    digests: frozenset[str]
    representatives: dict[str, Schedule]
    total: int
    partial: bool = False
    inconclusive: frozenset[str] = frozenset()

    def __contains__(self, schedule: Schedule) -> bool:
        return schedule.digest() in self.digests


@dataclass
class ComparisonVerdict:
    relation: str  # equal | left-strictly-more | right-strictly-more | incomparable
    left_only: list[Schedule] = field(default_factory=list)
    right_only: list[Schedule] = field(default_factory=list)


def classify(w: Workload, impls: tuple[str, ...] = (), lsl: bool = False,
             budget: int = 20000,
             extras: list[Schedule] = ()) -> dict[str, ScheduleSet]:
    """The accepted set of every implementation in `impls` and, with
    `lsl`, the LSL set (under the name "lsl"), from one pass over the first
    `budget` schedules of the universe; the sets are partial when the
    universe holds more than `budget`.  Supplied `extras` (for workloads
    whose full universe is infeasible) that the pass did not visit are
    classified by the reference path, ``drive`` and ``audited_history``.

    The pass audits a leaf and checks it only for a leaf signature it has
    not met before (see ``Leaf.signature``); the memo lives for this call,
    within which the workload and keys are fixed."""
    keys = workload_keys(w)
    members: dict[str, dict[str, Schedule]] = {n: {} for n in (*impls, "lsl")}
    inconclusive: set[str] = set()
    seen: set[str] = set()
    verdicts: dict[tuple, bool | None] = {}

    def check(h: History) -> bool | None:
        return check_ls_linearizable(h, w.structure, keys).verdict

    def record(s: Schedule, d: str, accepted, verdict: bool | None):
        seen.add(d)
        for impl in accepted:
            members[impl][d] = s
        if verdict is True:
            members["lsl"][d] = s
        elif verdict is None and lsl:
            inconclusive.add(d)

    truncated = False
    for leaf in schedule_trie(w, impls):
        if len(seen) >= budget:  # a schedule beyond the budget exists
            truncated = True
            break
        verdict = None
        if lsl:
            sig = leaf.signature()
            if sig not in verdicts:
                verdicts[sig] = check(leaf.audited(w))
            verdict = verdicts[sig]
        record(leaf.schedule, leaf.digest,
               [i for i in impls if i not in leaf.rejected], verdict)
    for s in extras:
        d = s.digest()
        if d not in seen:
            record(s, d, [i for i in impls if drive(i, w, s).accepted],
                   check(audited_history(w, s)) if lsl else None)
    fp = w.fingerprint()
    out = {impl: ScheduleSet(impl, fp, frozenset(members[impl]), members[impl],
                             len(seen), truncated) for impl in impls}
    if lsl:
        out["lsl"] = ScheduleSet("lsl", fp, frozenset(members["lsl"]), members["lsl"],
                                 len(seen), truncated, frozenset(inconclusive))
    return out


def accepted_set(impl: str, w: Workload, budget: int = 20000,
                 extras: list[Schedule] = ()) -> ScheduleSet:
    """Accepted schedules over the enumerated universe plus any explicitly
    supplied schedules (for workloads whose full universe is infeasible)."""
    return classify(w, (impl,), budget=budget, extras=extras)[impl]


def lsl_set(w: Workload, budget: int = 20000,
            extras: list[Schedule] = ()) -> ScheduleSet:
    """Schedules with an LS-linearizable exporting history (audited)."""
    return classify(w, lsl=True, budget=budget, extras=extras)["lsl"]


def compare(a: ScheduleSet, b: ScheduleSet, max_witnesses: int = 3) -> ComparisonVerdict:
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
                             [a.representatives[d] for d in left[:max_witnesses]],
                             [b.representatives[d] for d in right[:max_witnesses]])


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


def optimality_gap(impl: str, w: Workload, budget: int = 20000,
                   max_witnesses: int = 3,
                   extras: list[Schedule] = ()) -> OptimalityGap:
    sets = classify(w, (impl,), lsl=True, budget=budget, extras=extras)
    acc, oracle = sets[impl], sets["lsl"]
    usable = oracle.digests  # inconclusive schedules are excluded, ratio is a lower bound
    inter = acc.digests & usable
    missing = sorted(usable - acc.digests)
    ratio = (len(inter) / len(usable)) if usable else 1.0
    return OptimalityGap(impl, len(acc.digests), len(usable), ratio,
                         [oracle.representatives[d] for d in missing[:max_witnesses]],
                         len(oracle.inconclusive), acc.total, acc.partial)


@dataclass
class IncomparabilityReport:
    verdict: str
    w1_relation: str
    sigma_verified: bool   # stm accepts, hoh rejects, on w1
    sigma0_verified: bool  # hoh accepts, stm rejects, on w2
    sigma: Schedule | None
    sigma0: Schedule | None


def incomparability(w1: Workload, sigma: Schedule, w2: Workload,
                    sigma0: Schedule, budget: int = 20000) -> IncomparabilityReport:
    """The headline result: the two techniques accept incomparable schedule
    sets.  w1 is the identical-insert family (enumerated in full and
    compared set-to-set), w2 the find/delete/delete family, whose universe
    is far beyond enumeration - its witness is re-driven directly."""
    sets = classify(w1, ("hoh", "stm"), budget=budget, extras=[sigma])
    hoh1, stm1 = sets["hoh"], sets["stm"]
    c1 = compare(stm1, hoh1)
    sigma_ok = sigma.digest() in stm1.digests and sigma.digest() not in hoh1.digests \
        and verify_witness("stm", "hoh", w1, sigma)
    sigma0_ok = verify_witness("hoh", "stm", w2, sigma0)
    verdict = "incomparable" if (sigma_ok and sigma0_ok) else "comparable"
    return IncomparabilityReport(verdict, c1.relation, sigma_ok, sigma0_ok,
                                 sigma, sigma0)
