"""One workload run in a fresh interpreter: set up, run items in a closed
loop, check every item outside the timed region, print one JSON line.

``run.py`` starts this script; it is not meant to be called by hand.  The
module-global caches of schedlab (state spaces, local traces) start empty
here, as they do for a CLI user.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from schedlab import checkers, cli, metric, model, scheduler, seqspec, sync  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- traced run -------------------------------------------------------------------


def _count_universe(c, res, args):
    c["scheduler.universe.schedules"] += len(res[0])
    c["scheduler.universe.truncated"] += bool(res[1])


def _count_drive(c, res, args):
    if res.accepted:
        c["scheduler.drive.accepted"] += 1
        c["scheduler.drive.slot_steps"] += len(args[2].slots)
    else:
        c[f"scheduler.drive.rejected.{res.reason}"] += 1
        c["scheduler.drive.slot_steps"] += res.failing_slot + 1


def _count_linearizable(c, res, args):
    c["checkers.check_linearizable.inconclusive"] += res.verdict is None


def _count_strict(c, res, args):
    c["checkers.check_strictly_serializable.false"] += res.verdict is False


def _count_free_run(c, h, args):
    c["scheduler.free_run.events"] += len(h.events)
    c["scheduler.free_run.exported_events"] += len(h.exported().events)
    c["scheduler.free_run.aborts"] += sum(1 for e in h.events
                                          if e.kind == model.OR and e.is_abort())


# (layer name, defining module, attribute, counter)
TRACED_FUNCTIONS = (
    ("cli.explore", cli, "cmd_explore", None),
    ("metric.optimality_gap", metric, "optimality_gap", None),
    ("metric.accepted_set", metric, "accepted_set", None),
    ("metric.lsl_set", metric, "lsl_set", None),
    ("metric.audited_history", metric, "audited_history", None),
    ("scheduler.universe", scheduler, "universe", _count_universe),
    ("scheduler.drive", scheduler, "drive", _count_drive),
    ("scheduler.build_world", scheduler, "build_world", None),
    ("scheduler.free_run", scheduler, "free_run", _count_free_run),
    ("checkers.check_ls_linearizable", checkers, "check_ls_linearizable", None),
    ("checkers.check_locally_serializable", checkers, "check_locally_serializable", None),
    ("checkers.check_linearizable", checkers, "check_linearizable", _count_linearizable),
    ("checkers.check_strictly_serializable", checkers, "check_strictly_serializable",
     _count_strict),
    ("checkers.check_safe_strict", checkers, "check_safe_strict", None),
    ("seqspec.reachable_states", seqspec, "reachable_states", None),
)
TRACED_METHODS = (
    ("sync.World.clone", sync.World, "clone"),
    ("model.History.exported", model.History, "exported"),
)

# Per-layer metrics, name -> unit: calls and self time of every traced
# layer, plus the work counters.
PER_LAYER = {f"{name}.{field}": unit
             for name, *_ in TRACED_FUNCTIONS + TRACED_METHODS
             for field, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({
    "scheduler.universe.schedules": "count",
    "scheduler.universe.truncated": "count",
    "scheduler.drive.slot_steps": "count",
    "scheduler.drive.accepted": "count",
    "scheduler.drive.rejected.blocked": "count",
    "scheduler.drive.rejected.aborted": "count",
    "scheduler.drive.rejected.order-mismatch": "count",
    "scheduler.drive.accept_ratio": "ratio",
    "scheduler.free_run.events": "count",
    "scheduler.free_run.aborts": "count",
    "scheduler.free_run.useful_ratio": "ratio",
    "checkers.check_linearizable.inconclusive": "count",
    "checkers.check_strictly_serializable.false": "count",
    "checkers.lsl_raw_false": "count",
    "checkers.hoh_skiplist_not_ls": "count",
})


def install_tracer() -> tracing.Tracer:
    tr = tracing.Tracer()
    for name, module, attr, count in TRACED_FUNCTIONS:
        tracing.patch_function(module, attr, lambda fn, n=name, c=count: tr.wrap(n, fn, c))
    for name, cls, attr in TRACED_METHODS:
        tracing.patch_method(cls, attr, lambda fn, n=name: tr.wrap(n, fn))
    return tr


def per_layer_metrics(tr: tracing.Tracer, counts) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    out = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = tr.calls.get(layer, 0)
        elif field == "self_s":
            out[name] = tr.self_s.get(layer, 0.0)
        else:
            out[name] = tr.counts.get(name, 0)
    drives = out["scheduler.drive.calls"]
    out["scheduler.drive.accept_ratio"] = (
        out["scheduler.drive.accepted"] / drives if drives else 0.0)
    events = tr.counts.get("scheduler.free_run.events", 0)
    out["scheduler.free_run.useful_ratio"] = (
        tr.counts.get("scheduler.free_run.exported_events", 0) / events if events else 0.0)
    out["checkers.lsl_raw_false"] = counts.get("checkers.lsl_raw_false", 0)
    out["checkers.hoh_skiplist_not_ls"] = counts.get("known_defect.hoh_skiplist_not_ls", 0)
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}


# -- fault injection (used by selfcheck.py) ------------------------------------------


def _flip_check(fn):
    def flipped(*args, **kwargs):
        res = fn(*args, **kwargs)
        if res.verdict is None:
            return res
        return dataclasses.replace(res, verdict=not res.verdict)
    return flipped


def _flip_drive(fn):
    def flipped(*args, **kwargs):
        res = fn(*args, **kwargs)
        return dataclasses.replace(res, verdict="rejected" if res.accepted else "accepted")
    return flipped


FAULTS = {
    "flip-lsl": (checkers, "check_ls_linearizable", _flip_check),
    "flip-drive": (scheduler, "drive", _flip_drive),
}


# -- the loop ------------------------------------------------------------------------


def run(wl, seconds: float, max_items: int | None, tr: tracing.Tracer | None) -> dict:
    """Closed loop over the workload's items until they have taken
    `seconds` of calibrated time (stopping at a multiple of wl.stop_every
    items), or for exactly `max_items`.  Counting calibrated rather than
    wall time makes a run do the same work in slow and fast phases of the
    machine."""
    counts: dict[str, int] = defaultdict(int)
    raw_s: list[float] = []  # per item wall time
    scaled_s: list[float] = []  # per item, scaled to the calibration speed
    scaled_total = 0.0
    schedules = failed = 0
    failures: list[str] = []
    paused = tr.paused if tr else nullcontext

    with speed.SpeedSampler() as sampler:
        for i, item in enumerate(wl.items()):
            if max_items is not None:
                if i >= max_items:
                    break
            elif i % wl.stop_every == 0 and scaled_total >= seconds:
                break
            err = out = None
            t0 = time.perf_counter()
            try:
                with (tr.item(i) if tr else nullcontext()):
                    out = wl.run(item)
            except Exception:  # an item that raises is a failed item; keep going
                err = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            if err is None:
                with paused():
                    try:
                        err = wl.check(item, out, counts)
                    except Exception:
                        err = traceback.format_exc(limit=3)
            n = wl.schedules(item, out) if out is not None else 0
            raw_s.append(t1 - t0)
            scaled_s.append((t1 - t0) * sampler.scale(t0, t1))
            scaled_total += scaled_s[-1]
            schedules += n
            if err is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(err)
    timed_s = sum(raw_s)
    scaled_ms = [x * 1e3 for x in scaled_s]
    raw_ms = [x * 1e3 for x in raw_s]
    return {
        "attempted": len(raw_s), "failed": failed, "failures": failures,
        "counts": dict(counts), "schedules": schedules, "timed_s": timed_s,
        "calibrated_s": scaled_total,
        "schedules_per_s": schedules / scaled_total,
        "p50_ms": statistics.median(scaled_ms),
        "tail_ms": percentile(scaled_ms, wl.tail_pct), "tail_pct": wl.tail_pct,
        "raw_schedules_per_s": schedules / timed_s,
        "raw_p50_ms": statistics.median(raw_ms),
        "raw_tail_ms": percentile(raw_ms, wl.tail_pct),
        "slowdown": sampler.slowdown(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--max-items", type=int, default=None,
                   help="run exactly this many items instead of --seconds")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--reference", default=workloads.REFERENCE_DIR)
    p.add_argument("--fault", choices=sorted(FAULTS))
    args = p.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.reference,
                                                args.trace)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            if args.fault:
                module, attr, wrap = FAULTS[args.fault]
                tracing.patch_function(module, attr, wrap)
            tr = install_tracer() if args.trace else None
            result.update(run(wl, args.seconds, args.max_items, tr))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tr is not None:
                result["per_layer"] = per_layer_metrics(tr, result["counts"])
                result["spans"] = len(tr.span_name)
                path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
                tr.write(path)
                result["span_file"] = os.path.relpath(path, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
