"""Regenerate the reference outputs the benchmark's correctness gate
compares against.

    python3 benchmarks/make_reference.py

Writes ``benchmarks/reference/explore.json`` (exit code and JSON report of
every ``thm2-explore`` call) and ``benchmarks/reference/sweep.json``
(per-workload counts for the whole ``sweep-classify`` family, keyed by
workload fingerprint).  Both are independent of the workload seed, so the
gate checks them on every seed.  Regenerate only from a commit whose
verdicts are known good: the files define what "correct" means.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from schedlab import cli  # noqa: E402

import workloads  # noqa: E402


def explore_reference() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in workloads.explore_scenarios():
            scenario = os.path.join(tmp, "scenario.json")
            report = os.path.join(tmp, "report.json")
            with open(scenario, "w") as f:
                json.dump(doc, f)
            rc = cli.main(["--json", "--out", report, "explore", scenario])
            with open(report) as f:
                out[name] = {"rc": rc, "report": json.load(f)}
            print(f"{name}: exit {rc}, {out[name]['report']['total']} schedules",
                  flush=True)
    return out


def sweep_reference() -> dict:
    out = {}
    for group in workloads.sweep_family():
        for w in group:
            out[w.fingerprint()] = workloads.sweep_counts(workloads.classify(w))
        print(f"sweep: {len(out)} workloads", flush=True)
    return out


def main() -> int:
    ref_dir = workloads.REFERENCE_DIR
    os.makedirs(ref_dir, exist_ok=True)
    for name, build in (("explore.json", explore_reference),
                        ("sweep.json", sweep_reference)):
        with open(os.path.join(ref_dir, name), "w") as f:
            json.dump(build(), f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
