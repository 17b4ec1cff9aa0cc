"""schedlab benchmark: run one workload and print every metric.

    python3 benchmarks/run.py --workload thm2-explore --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and benchmarks/NOTES.md): thm2-explore,
sweep-classify, free-run-check.  Each runs in a fresh interpreter
(benchmarks/worker.py), one client in a closed loop, until its items have
taken --seconds of calibrated time (benchmarks/speed.py), stopping at a
round boundary.  Every item's output is checked against the committed
reference and the paper's invariants, outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 makes the traced run:
per-layer calls, self time (wall clock) and work counters, the span file
under .bench_out/, and the tracing overhead (the traced run's calibrated
time minus that of an untraced run of the same items).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
item is correct, 1 when an item failed, and 2 when the benchmark could
not run (for example when src/schedlab is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("thm2-explore", "sweep-classify", "free-run-check")
SETUP_PROBES = 5  # interpreters that only set up; setup_s is their median
BUDGET_S = 170  # every child must have ended by then


class BenchError(RuntimeError):
    pass


def spawn(deadline: float, args: list[str]) -> tuple[float, dict]:
    """Run the worker to completion; return (spawn time, its JSON result)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"worker {' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


def end_to_end(args, deadline, extra) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed), *extra]
    _, res = spawn(deadline, common + ["--seconds", str(args.seconds)])
    setups = []
    for _ in range(SETUP_PROBES):
        # scaled to the calibration speed measured just before the start
        scale = speed.CALIBRATION_REF_S / statistics.median(
            speed.calibrate() for _ in range(5))
        t_spawn, probe = spawn(deadline, common + ["--setup-only"])
        setups.append((probe["ready"] - t_spawn) * scale)
    metrics = {
        "schedules_per_s": (res["schedules_per_s"], "1/s"),
        "item_p50_ms": (res["p50_ms"], "ms"),
        "item_tail_ms": (res["tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    res["setup_samples"] = setups
    return res, metrics


def traced(args, deadline, extra) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed), *extra]
    _, res = spawn(deadline, common + ["--seconds", str(args.seconds), "--trace"])
    _, plain = spawn(deadline, common + ["--max-items", str(res["attempted"])])
    metrics = {name: tuple(pair) for name, pair in res["per_layer"].items()}
    # in calibrated seconds, so that machine-speed drift between the two
    # runs does not read as tracing overhead
    metrics["trace.traced_s"] = (res["calibrated_s"], "s")
    metrics["trace.untraced_s"] = (plain["calibrated_s"], "s")
    metrics["trace.overhead_s"] = (res["calibrated_s"] - plain["calibrated_s"], "s")
    metrics["trace.spans"] = (res["spans"], "count")
    res["rerun"] = plain["attempted"]
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    return res, metrics


# Names the workload's own domain gives its headline figures.
DOMAIN_NAMES = {
    "thm2-explore": ("schedules_per_s", "call_p50_ms", "call_p{}_ms"),
    "sweep-classify": ("schedules_per_s", "workload_p50_ms", "workload_p{}_ms"),
    "free-run-check": ("histories_per_s", "history_p50_ms", "history_p{}_ms"),
}


def report(args, res, metrics) -> None:
    n, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{n - res.get('rerun', 0)} items, {res['schedules']} schedules, "
          f"{res['timed_s']:.3f} s timed"
          + (f"; untraced rerun of the same {res['rerun']} items" if args.trace else ""))
    for msg in res["failures"]:
        print(f"FAILED: {msg.strip()}")
    if not args.trace:
        rate, p50, tail = DOMAIN_NAMES[args.workload]
        pct = res["tail_pct"]
        print(f"{rate} = {metrics['schedules_per_s'][0]:.6g} 1/s  "
              f"(wall clock {res['raw_schedules_per_s']:.6g} 1/s)")
        print(f"{p50} = {metrics['item_p50_ms'][0]:.6g} ms  "
              f"(n={n}; wall clock {res['raw_p50_ms']:.6g} ms)")
        print(f"{tail.format(pct)} = {metrics['item_tail_ms'][0]:.6g} ms  "
              f"(n={n}, {n - int(n * pct / 100)} samples beyond; "
              f"wall clock {res['raw_tail_ms']:.6g} ms)")
        print(f"machine slowdown = {res['slowdown']:.4g} x  "
              f"(median calibration time / {speed.CALIBRATION_REF_S} s)")
        print(f"setup_s samples = {', '.join(f'{s:.4f}' for s in res['setup_samples'])} s")
    print(f"failed_frac = {failed / n:.6g} ratio  ({failed} of {n})")
    for name, value in sorted(res["counts"].items()):
        print(f"{name} = {value} count")
    if "span_file" in res:
        print(f"span file = {res['span_file']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", help="reference directory (self-check only)")
    p.add_argument("--fault", help="inject a fault into a layer (self-check only)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "schedlab", "__init__.py")):
        print(f"error: no schedlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    extra = []
    if args.reference:
        extra += ["--reference", args.reference]
    if args.fault:
        extra += ["--fault", args.fault]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    speed.pin_to_one_cpu()
    deadline = time.monotonic() + BUDGET_S
    try:
        res, metrics = (traced if args.trace else end_to_end)(args, deadline, extra)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(args, res, metrics)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
