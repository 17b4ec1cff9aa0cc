"""Self-check of the benchmark itself.

    python3 benchmarks/selfcheck.py

Runs every workload briefly and asserts that:

* a clean run is correct and prints every end-to-end metric of
  BENCHMARK.json with its unit, plus the workload's own metric names;
* the traced run prints every per-layer metric with its unit, writes its
  span file, and shows zero calls where a layer is bypassed;
* a corrupted reference, or a layer wrapped to return flipped verdicts,
  makes items fail and the command exit non-zero.

Exits 0 when every assertion holds; prints one line per check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "1"

# Workload -> names its human-readable lines must carry, with units.
DOMAIN_METRICS = {
    "thm2-explore": {"schedules_per_s": "1/s", "call_p50_ms": "ms", "call_p90_ms": "ms"},
    "sweep-classify": {"schedules_per_s": "1/s", "workload_p50_ms": "ms",
                       "workload_p90_ms": "ms"},
    "free-run-check": {"histories_per_s": "1/s", "history_p50_ms": "ms",
                       "history_p99_ms": "ms"},
}
COMMON_METRICS = {"failed_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
# Layers a workload bypasses: their call counts must read 0.
ZERO_CALLS = {
    "thm2-explore": ("checkers.check_strictly_serializable", "checkers.check_safe_strict",
                     "scheduler.free_run"),
    "sweep-classify": ("checkers.check_strictly_serializable", "checkers.check_safe_strict",
                       "scheduler.free_run", "cli.explore"),
    "free-run-check": ("scheduler.drive", "scheduler.universe", "scheduler.build_world",
                       "cli.explore"),
}


def bench(workload: str, *extra: str) -> tuple[int, str, dict | None]:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "0",
                           "--seconds", SECONDS, *extra], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, proc.stdout, result


def printed(stdout: str, name: str, unit: str) -> bool:
    return re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b", stdout,
                     re.M) is not None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        rc, out, res = bench(wl, "--trace", "0")
        expect(rc == 0 and res is not None and res["correct"] and res["failed"] == 0,
               f"{wl}: clean run is correct")
        want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
        expect(got == want, f"{wl}: JSON carries every end-to-end metric with its unit")
        names = {**want, **DOMAIN_METRICS[wl], **COMMON_METRICS}
        missing = [n for n, u in names.items() if not printed(out, n, u)]
        expect(not missing, f"{wl}: prints every metric with its unit {missing or ''}")

        rc, out, res = bench(wl, "--trace", "1")
        want = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = (res or {}).get("metrics", {})
        got = {k: v["unit"] for k, v in metrics.items()}
        expect(rc == 0 and got == want, f"{wl}: traced run carries every per-layer metric")
        missing = [n for n, u in want.items() if not printed(out, n, u)]
        expect(not missing, f"{wl}: traced run prints every per-layer metric {missing or ''}")
        span_file = re.search(r"^span file = (\S+)$", out, re.M)
        expect(span_file is not None and os.path.isfile(os.path.join(ROOT, span_file[1])),
               f"{wl}: traced run wrote its span file")
        zero = [n for n in ZERO_CALLS[wl] if metrics.get(f"{n}.calls", {}).get("value") != 0]
        expect(not zero, f"{wl}: bypassed layers show zero calls {zero or ''}")

    bad_ref = os.path.join(ROOT, ".bench_out", "selfcheck-reference")
    shutil.rmtree(bad_ref, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), bad_ref)
    for name in ("explore.json", "sweep.json"):
        path = os.path.join(bad_ref, name)
        with open(path) as f:
            ref = json.load(f)
        for entry in ref.values():  # one extra LSL schedule everywhere
            if name == "explore.json":
                entry["report"]["lsl"] += 1
            else:
                entry[2] += 1
        with open(path, "w") as f:
            json.dump(ref, f)
    for wl in ("thm2-explore", "sweep-classify"):
        rc, _, res = bench(wl, "--reference", bad_ref)
        expect(rc == 1 and res is not None and res["failed"] > 0,
               f"{wl}: a corrupted reference fails the run")
    shutil.rmtree(bad_ref, ignore_errors=True)

    for wl, fault in (("thm2-explore", "flip-lsl"), ("sweep-classify", "flip-lsl"),
                      ("free-run-check", "flip-lsl"), ("thm2-explore", "flip-drive"),
                      ("sweep-classify", "flip-drive")):
        rc, _, res = bench(wl, "--fault", fault)
        expect(rc == 1 and res is not None and res["failed"] > 0,
               f"{wl}: {fault} fails the run")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
