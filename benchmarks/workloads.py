"""The three benchmark workloads.

Each workload is a closed loop with one client: the next item starts when
the previous one finishes.  An item is the unit that is timed and checked:

* ``thm2-explore``: one ``schedlab explore`` CLI call on a Thm. 2
  identical-insert scenario under one implementation;
* ``sweep-classify``: ``accepted_set`` for hoh and stm plus ``lsl_set`` on
  one small sorted-list workload;
* ``free-run-check``: one seeded free run plus the checkers its
  implementation must pass.

``run`` is the timed part.  ``check`` runs outside the timed region and
returns a failure message, or None when the item's output is correct.
Calls into schedlab go through module attributes (``metric.lsl_set``, not a
name imported into this module), so the traced run's wrappers see them.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from schedlab import checkers, cli, metric, scheduler
from schedlab.fixtures import thm2_bundle
from schedlab.seqspec import Operation, make_structure

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def _load(reference_dir: str, name: str) -> dict:
    with open(os.path.join(reference_dir, name)) as f:
        return json.load(f)


# -- thm2-explore ---------------------------------------------------------------

# (structure, instance) pairs explored under both implementations.  The
# skiplist instances (3432 schedules, 9-11 s per call) are left out: one
# pass over them would outlast a run.
EXPLORE_INSTANCES = (("sorted-list", "w_present"), ("bst", "w_absent"))
IMPLS = ("hoh", "stm")


def explore_scenarios() -> list[tuple[str, dict]]:
    """(name, scenario document) for every call of one pass."""
    out = []
    for struct, inst in EXPLORE_INSTANCES:
        w = getattr(thm2_bundle(make_structure(struct)), inst)
        for impl in IMPLS:
            doc = {"structure": struct,
                   "setup": [{"op": o.name, "key": o.key} for o in w.setup],
                   "concurrent": [{"proc": p, "op": o.name, "key": o.key}
                                  for p, o in w.concurrent],
                   "schedule": "enumerate", "impl": impl}
            out.append((f"{struct}/{inst}/{impl}", doc))
    return out


class Thm2Explore:
    name = "thm2-explore"
    tail_pct = 90

    def __init__(self, seed: int, workdir: str, reference_dir: str, trace: bool):
        self.seed = seed
        self.reference = _load(reference_dir, "explore.json")
        self.calls = []
        for name, doc in explore_scenarios():
            path = os.path.join(workdir, name.replace("/", "_") + ".json")
            with open(path, "w") as f:
                json.dump(doc, f)
            self.calls.append((name, path, path[:-5] + ".out.json"))
        self.stop_every = len(self.calls)  # whole passes only

    def items(self):
        """Passes over every call, each pass in a seeded order."""
        for n in itertools.count():
            order = list(self.calls)
            random.Random(f"{self.seed}:{n}").shuffle(order)
            yield from order

    def run(self, call):
        _, scenario, out = call
        return cli.main(["--json", "--out", out, "explore", scenario])

    def check(self, call, rc, counts) -> str | None:
        name, _, out = call
        with open(out) as f:
            report = json.load(f)
        os.remove(out)
        ref = self.reference[name]
        if rc != ref["rc"] or report != ref["report"]:
            return f"{name}: exit {rc} / report differs from the reference"
        if report["accepted"] > report["lsl"]:
            return f"{name}: accepted {report['accepted']} > lsl {report['lsl']}"
        if "/w_present/" in name:
            want = report["total"] if name.endswith("/stm") else 2
            if report["accepted"] != want:
                return f"{name}: accepted {report['accepted']}, expected {want}"
        return None

    def schedules(self, call, rc) -> int:
        return self.reference[call[0]]["report"]["total"]


# -- sweep-classify ---------------------------------------------------------------

SWEEP_KEYS = (1, 2, 3, 4)
SWEEP_SETUPS = ((), (2,), (1, 3), (1, 2, 3, 4))
# Per-workload schedule budget.  Universes under the full setup reach 12210
# schedules; with the budget the family averages 114 schedules a workload
# (188 of 360 are cut at the budget), so fixed per-workload costs weigh as
# they do in the soundness sweeps.
SWEEP_BUDGET = 150


def sweep_family() -> list[list[scheduler.Workload]]:
    """Criterion 4's sorted-list family cut to 1- and 2-op workloads, one
    list per setup (90 workloads each)."""
    d = make_structure("sorted-list")
    ops = [Operation(n, k) for k in SWEEP_KEYS for n in ("insert", "delete", "find")]
    out = []
    for setup in SWEEP_SETUPS:
        group = []
        for size in (1, 2):
            for combo in itertools.combinations_with_replacement(ops, size):
                group.append(scheduler.Workload(
                    d, [Operation("insert", k) for k in setup],
                    [(i + 1, op) for i, op in enumerate(combo)]))
        out.append(group)
    return out


def classify(w: scheduler.Workload):
    return (metric.accepted_set("hoh", w, SWEEP_BUDGET),
            metric.accepted_set("stm", w, SWEEP_BUDGET),
            metric.lsl_set(w, SWEEP_BUDGET))


def sweep_counts(res) -> list[int]:
    """The per-workload record compared against the reference."""
    hoh, stm, lsl = res
    return [len(hoh.digests), len(stm.digests), len(lsl.digests),
            len(lsl.inconclusive), hoh.total, stm.total, lsl.total,
            hoh.partial + stm.partial + lsl.partial]


class SweepClassify:
    name = "sweep-classify"
    tail_pct = 90
    stop_every = 9  # one workload per size stratum

    def __init__(self, seed: int, workdir: str, reference_dir: str, trace: bool):
        self.reference = _load(reference_dir, "sweep.json")
        # Per-workload cost follows the universe size (1 to 150 schedules),
        # and a run processes only about a hundred workloads.  So the
        # family is cut into `stop_every` strata by the size the reference
        # records, and round r takes the r-th workload of every stratum
        # (strata in one fixed shuffled order): every run sees the same
        # size mix, and its latency percentiles compare across seeds.  The
        # seed orders each round.
        family = [w for group in sweep_family() for w in group]
        family.sort(key=lambda w: (self.reference[w.fingerprint()][4], w.fingerprint()))
        size = len(family) // self.stop_every
        strata = [family[k * size:(k + 1) * size] for k in range(self.stop_every)]
        fixed = random.Random("sweep-strata")
        for stratum in strata:
            fixed.shuffle(stratum)
        rng = random.Random(seed)
        self.order = []
        for row in zip(*strata):
            row = list(row)
            rng.shuffle(row)
            self.order += row

    def items(self):
        return itertools.cycle(self.order)

    def run(self, w):
        return classify(w)

    def check(self, w, res, counts) -> str | None:
        hoh, stm, lsl = res
        fp = w.fingerprint()
        got = sweep_counts(res)
        if got != self.reference.get(fp):
            return f"{fp}: counts {got} != reference {self.reference.get(fp)}"
        if lsl.inconclusive:
            return f"{fp}: {len(lsl.inconclusive)} inconclusive LSL verdicts"
        for s in (hoh, stm):
            if not s.digests <= lsl.digests:
                return f"{fp}: {s.impl} accepts a schedule that is not LSL"
        return None

    def schedules(self, w, res) -> int:
        return res[0].total + res[1].total


# -- free-run-check ---------------------------------------------------------------

FREE_KEYS = (1, 2, 3, 4, 5)
FREE_STRUCTURES = ("sorted-list", "bst", "skiplist")


def free_item(seed: int, i: int, structures) -> tuple[str, scheduler.Workload, int]:
    """Item i cycles through (structure, impl) pairs; its workload is 4-5
    random ops over keys 1..5 after a random setup of 0-3 keys."""
    rng = random.Random(f"{seed}:{i}")
    impl = IMPLS[(i // len(structures)) % 2]
    setup = [Operation("insert", k) for k in rng.sample(FREE_KEYS, rng.randint(0, 3))]
    concurrent = [(p + 1, Operation(rng.choice(("insert", "delete", "find")),
                                    rng.choice(FREE_KEYS)))
                  for p in range(rng.randint(4, 5))]
    w = scheduler.Workload(structures[i % len(structures)], setup, concurrent)
    return impl, w, rng.randrange(1 << 31)


def is_hoh_skiplist_defect(impl, w, h) -> bool:
    """The open library defect this workload exposes: an hoh find on the
    skiplist crab-walks on the last node read only, so after probing a
    higher level's successor it may follow a lower-level pointer of a
    node it no longer locks, and its local trace mixes two states.  The
    signature: hoh, skiplist, no aborts, a linearizable high-level history,
    and local serializability failing on a find."""
    if impl != "hoh" or w.structure.name != "skiplist":
        return False
    if any(e.is_abort() for e in h.events):
        return False
    keys = metric.workload_keys(w)
    ls = checkers.check_locally_serializable(h, w.structure, keys, len(keys) + 1)
    if ls.verdict is not False or h.ops[ls.violation["op"]].name != "find":
        return False
    return checkers.check_linearizable(h).verdict is True


class FreeRunCheck:
    name = "free-run-check"
    tail_pct = 99
    stop_every = 60

    def __init__(self, seed: int, workdir: str, reference_dir: str, trace: bool):
        self.seed = seed
        self.structures = [make_structure(n) for n in FREE_STRUCTURES]
        self.trace = trace  # the traced run also counts raw-history verdicts

    def items(self):
        for i in itertools.count():
            yield free_item(self.seed, i, self.structures)

    def run(self, item):
        impl, w, run_seed = item
        h = scheduler.free_run(impl, w, seed=run_seed)
        keys = metric.workload_keys(w)
        if impl == "hoh":
            return h, None, checkers.check_ls_linearizable(h, w.structure, keys,
                                                           len(keys) + 1)
        return (h, checkers.check_safe_strict(h),
                checkers.check_ls_linearizable(h.exported(), w.structure, keys,
                                               len(keys) + 1))

    def check(self, item, out, counts) -> str | None:
        impl, w, run_seed = item
        h, safe, lsl = out
        label = f"{impl} {w.structure.name} free run {run_seed}"
        if impl == "hoh":
            aborts = sum(1 for e in h.events if e.is_abort())
            if lsl.verdict is True and aborts == 0:
                return None
            if is_hoh_skiplist_defect(impl, w, h):
                counts["known_defect.hoh_skiplist_not_ls"] += 1
                return None
            return f"{label}: LSL {lsl.verdict} ({lsl.reason}), {aborts} abort events"
        if self.trace:
            keys = metric.workload_keys(w)
            raw = checkers.check_ls_linearizable(h, w.structure, keys, len(keys) + 1)
            counts["checkers.lsl_raw_false"] += raw.verdict != lsl.verdict
        if safe.verdict is not True:
            return f"{label}: safe-strict {safe.verdict} ({safe.reason})"
        if lsl.verdict is not True:
            return f"{label}: exported view LSL {lsl.verdict} ({lsl.reason})"
        return None

    def schedules(self, item, out) -> int:
        return 1  # a free run executes one schedule


WORKLOADS = {cls.name: cls for cls in (Thm2Explore, SweepClassify, FreeRunCheck)}
