"""`schedlab --json explore` against committed report bytes and exit codes.

The cases are the six Thm. 2 instances (every structure, `w_present` and
`w_absent`) under `hoh` and `stm`, every bundled `scenarios/explore_*.json`,
and `--budget B` runs that cut two universes: sorted-list `w_absent` (3264
schedules) and bst `w_absent` (924) under `hoh` and `stm`, for B = 1, 100,
size - 1 and size.  These pin a budgeted report's `total`, its `partial`
exit code 4 and its witnesses: the smallest digests within the first B
schedules in trie order.  The full-universe reports in
`tests/golden/explore/` were written by the per-prefix trie walk that
`tests/oracles.py` keeps as the reference, the budgeted ones by the walk
that enumerated every leaf; whatever walk the library uses must reproduce
them byte for byte.

`tests/golden/free_runs.json` pins the bytes of the other two drivers: the
full event record (as the sha256 of the compact JSON of `events_json()`)
and the responses of 20 seeded free runs per structure under `hoh`, `stm`
and `stm-commit-only`, or the `LivelockError` message of a run that raises;
and the `--json` report and exit code of `schedlab run` on every bundled
drive scenario.  `tests/golden/reproduce.json` pins the text and the
`--json` report and the exit code of `schedlab reproduce` on every figure.

Regenerate them (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest

from schedlab import cli
from schedlab.fixtures import thm2_bundle
from schedlab.scheduler import LivelockError, Workload, free_run
from schedlab.seqspec import STRUCTURES, Operation, make_structure

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "explore.json"
FREE_RUNS = GOLDEN / "free_runs.json"
REPRODUCE = GOLDEN / "reproduce.json"
FIGURES = ("fig2", "fig3", "thm2", "thm3")


def thm2_scenario(struct: str, instance: str, impl: str) -> dict:
    w = getattr(thm2_bundle(make_structure(struct)), instance)
    return {"structure": struct,
            "setup": [{"op": o.name, "key": o.key} for o in w.setup],
            "concurrent": [{"proc": p, "op": o.name, "key": o.key}
                           for p, o in w.concurrent],
            "schedule": "enumerate", "impl": impl}


def bundled_scenarios(explore: bool = True) -> dict[str, Path]:
    """The bundled explore scenarios, or (`explore` False) the drive ones."""
    scenarios = resources.files("schedlab").joinpath("scenarios")
    return {p.name[:-len(".json")]: Path(str(p))
            for p in sorted(scenarios.iterdir(), key=lambda p: p.name)
            if p.name.startswith("explore_") == explore and p.name.endswith(".json")}


THM2 = {f"thm2_{s}_{i}_{impl}": (s, i, impl) for s in STRUCTURES
        for i in ("w_present", "w_absent") for impl in ("hoh", "stm")}
# (structure, universe size) of the budgeted cases; each cuts `w_absent`
BUDGETED_UNIVERSES = (("sorted-list", 3264), ("bst", 924))
BUDGETED = {f"thm2_{s}_w_absent_{impl}_budget{b}": (s, impl, b)
            for s, size in BUDGETED_UNIVERSES for impl in ("hoh", "stm")
            for b in (1, 100, size - 1, size)}
CASES = list(THM2) + list(bundled_scenarios()) + list(BUDGETED)


def scenario_file(name: str, tmp: Path) -> Path:
    if name in BUDGETED:
        struct, impl, _ = BUDGETED[name]
        doc = thm2_scenario(struct, "w_absent", impl)
    elif name in THM2:
        doc = thm2_scenario(*THM2[name])
    else:
        return bundled_scenarios()[name]
    path = tmp / f"{name}.scenario.json"
    path.write_text(json.dumps(doc))
    return path


def explore(name: str, tmp: Path) -> tuple[int, bytes]:
    out = tmp / f"{name}.out.json"
    budget = ["--budget", str(BUDGETED[name][2])] if name in BUDGETED else []
    rc = cli.main(["--json", "--out", str(out), *budget, "explore",
                   str(scenario_file(name, tmp))])
    return rc, out.read_bytes()


def test_every_case_has_a_golden_report():
    assert sorted(json.loads(EXIT_CODES.read_text())) == sorted(CASES)
    assert sorted(p.stem for p in (GOLDEN / "explore").iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_explore_report_bytes(name, tmp_path):
    rc, report = explore(name, tmp_path)
    assert rc == json.loads(EXIT_CODES.read_text())[name]
    assert report == (GOLDEN / "explore" / f"{name}.json").read_bytes()


FREE_RUN_IMPLS = ("hoh", "stm", "stm-commit-only")
FREE_RUN_SEEDS = range(20)


def free_run_workload(struct: str, seed: int) -> Workload:
    """A fixed random workload: 3-5 operations over keys 1..5, one process
    each, after a setup inserting 0-3 of those keys."""
    rng = random.Random(f"{struct}:{seed}")
    keys = (1, 2, 3, 4, 5)
    setup = [Operation("insert", k) for k in rng.sample(keys, rng.randint(0, 3))]
    concurrent = [(p + 1, Operation(rng.choice(("insert", "delete", "find")),
                                    rng.choice(keys)))
                  for p in range(rng.randint(3, 5))]
    return Workload(make_structure(struct), setup, concurrent)


def free_run_record(struct: str, impl: str, seed: int) -> dict:
    try:
        h = free_run(impl, free_run_workload(struct, seed), seed=seed)
    except LivelockError as e:
        return {"livelock": str(e)}
    blob = json.dumps(h.events_json(), separators=(",", ":"))
    return {"events_sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "responses": {str(i): o.response for i, o in sorted(h.ops.items())}}


def pinned_runs(tmp: Path) -> bytes:
    """The text of `tests/golden/free_runs.json`, computed afresh."""
    free = {f"{struct} {impl} {seed}": free_run_record(struct, impl, seed)
            for struct in STRUCTURES for impl in FREE_RUN_IMPLS
            for seed in FREE_RUN_SEEDS}
    runs = {}
    for name, path in bundled_scenarios(explore=False).items():
        out = tmp / f"{name}.run.json"
        rc = cli.main(["--json", "--out", str(out), "run", str(path)])
        runs[name] = {"exit": rc, "report": out.read_text()}
    return (json.dumps({"free_run": free, "run": runs}, indent=1) + "\n").encode()


def test_free_run_and_run_bytes(tmp_path):
    assert pinned_runs(tmp_path) == FREE_RUNS.read_bytes()


def reproduce_record(figure: str, tmp: Path) -> dict:
    """The exit code and report bytes of `schedlab reproduce <figure>`, as
    text and with `--json`."""
    record = {}
    for fmt, flags in (("text", []), ("json", ["--json"])):
        out = tmp / f"{figure}.{fmt}"
        rc = cli.main([*flags, "--out", str(out), "reproduce", figure])
        record[fmt] = {"exit": rc, "report": out.read_bytes().decode()}
    return record


@pytest.mark.parametrize("figure", FIGURES)
def test_reproduce_report_bytes(figure, tmp_path):
    assert reproduce_record(figure, tmp_path) == json.loads(REPRODUCE.read_text())[figure]


def test_json_reports_are_written_as_json_dumps_writes_them():
    """``--json`` reports are written by ``cli._json_text``, which leaves no
    reference cycle: its bytes must be ``json.dumps(doc, indent=2)``'s on
    every document under tests/golden and benchmarks/reference, on the
    `--json` reports `reproduce.json` holds, and on keys and scalars that
    are not strings."""
    roots = (GOLDEN, Path(__file__).parent.parent / "benchmarks" / "reference")
    docs = [json.loads(p.read_text()) for root in roots for p in sorted(root.rglob("*.json"))]
    docs += [json.loads(r["json"]["report"]) for r in json.loads(REPRODUCE.read_text()).values()]
    docs.append({1: [1.5, None, True, {}], None: [], "é\n": {"a": [[]]}, 2.5: float("nan"),
                 False: (1, -2e-300), "": "\u2028"})
    assert len(docs) > 30
    for doc in docs:
        assert cli._json_text(doc) == json.dumps(doc, indent=2)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        FREE_RUNS.write_bytes(pinned_runs(Path(tmp)))
        REPRODUCE.write_text(json.dumps(
            {fig: reproduce_record(fig, Path(tmp)) for fig in FIGURES}, indent=1) + "\n")
    (GOLDEN / "explore").mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            codes[case], text = explore(case, Path(tmp))
            (GOLDEN / "explore" / f"{case}.json").write_bytes(text)
            print(case, codes[case], file=sys.stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
