"""Command-line front end: scenario execution, figure reproduction, and
exploration reports.

Commands::

    schedlab run <scenario.json>        drive or free-run one scenario
    schedlab reproduce <fig2|fig3|thm2|thm3>
    schedlab explore <scenario.json>    accepted/LSL sets and ratio

Exit codes: 0 accepted/completed, 1 input error or a report file that
cannot be written, 2 schedule rejected or free run not completed (restart
budget, deadlock or step limit), 3 reproduction deviates from the
recorded claims, 4 exploration budget exceeded (partial report).

The argument parser is built once per process, at import: ``main`` parses
each command line with it, and it keeps nothing from one call to the next.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checkers import check_ls_linearizable, check_strictly_serializable
from .fixtures import fig2a, fig2b, fig3, thm2_bundle, thm3_bundle
from .metric import optimality_gap, workload_keys
from .model import OI, OR, RI, WI, History, Schedule
from .scheduler import (DEFAULT_BUDGET, DriveResult, LivelockError,
                        MalformedScheduleError, Workload, drive, free_run)
from .seqspec import STRUCTURES, Operation, make_structure


class ScenarioError(ValueError):
    pass


class UsageError(ValueError):
    """A command line argparse rejects: exit 1, like any input error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _is_int(x) -> bool:
    """An int that is not a bool, which JSON's true and false parse to."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_budget(x) -> bool:
    """A schedule budget is a positive int."""
    return _is_int(x) and x > 0


# the fields a scenario, its structure object and its operations take
_SCENARIO_FIELDS = frozenset(("structure", "setup", "concurrent", "impl", "schedule",
                              "seed", "budget", "notes", "layout"))
_STRUCTURE_FIELDS = frozenset(("name", "max_level", "seed"))
_OP_FIELDS = frozenset(("op", "key", "value"))


def _known(d, fields: frozenset, what: str):
    """`d`; an input error naming each of its fields outside `fields`
    when it is an object."""
    if isinstance(d, dict):
        other = sorted(set(d) - fields)
        _require(not other, f"unknown {what} field {', '.join(map(repr, other))}")
    return d


def parse_operation(d: dict) -> Operation:
    _require(isinstance(d, dict) and "op" in d and "key" in d,
             f"operation needs 'op' and 'key': {d!r}")
    _require(d["op"] in ("insert", "delete", "find"), f"unknown op {d['op']!r}")
    _require(_is_int(d["key"]) and d["key"] >= 0,
             f"key must be a natural number: {d!r}")
    _require("value" not in d or _is_int(d["value"]),
             f"value must be an integer: {d!r}")
    try:
        return Operation(d["op"], d["key"], d.get("value"))
    except ValueError as e:
        raise ScenarioError(str(e))


def parse_scenario(doc: dict) -> dict:
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    _require("validation" not in doc, "scenario field 'validation' is not supported: "
             "select commit-only validation with \"impl\": \"stm-commit-only\"")
    _known(doc, _SCENARIO_FIELDS, "scenario")
    for field in ("structure", "setup", "concurrent", "impl"):
        _require(field in doc, f"scenario missing {field!r}")
    struct = doc["structure"]
    if isinstance(struct, str):
        _require(struct in STRUCTURES, f"unknown structure {struct!r}")
        def_ = make_structure(struct)
    else:
        _require(isinstance(struct, dict) and struct.get("name") in STRUCTURES,
                 "structure must name one of %s" % (STRUCTURES,))
        _known(struct, _STRUCTURE_FIELDS, "structure")
        _require(struct["name"] == "skiplist" or not {"max_level", "seed"} & set(struct),
                 f"only the skiplist takes max_level and seed: {struct!r}")
        max_level, seed = struct.get("max_level", 3), struct.get("seed", 0)
        _require(_is_int(max_level) and max_level > 0,
                 f"structure max_level must be a positive integer: {max_level!r}")
        _require(_is_int(seed), f"structure seed must be an integer: {seed!r}")
        def_ = make_structure(struct["name"], max_level=max_level, seed=seed)
    for field in ("setup", "concurrent"):
        _require(isinstance(doc[field], list),
                 f"{field} must be a list: {doc[field]!r}")
    setup = [parse_operation(_known(d, _OP_FIELDS, "operation")) for d in doc["setup"]]
    concurrent = []
    for d in doc["concurrent"]:
        _require(isinstance(d, dict) and "proc" in d, f"concurrent op needs proc: {d!r}")
        _require(_is_int(d["proc"]), f"proc must be an integer: {d!r}")
        _known(d, _OP_FIELDS | {"proc"}, "operation")
        concurrent.append((d["proc"], parse_operation(d)))
    impl = doc["impl"]
    _require(impl in ("hoh", "stm", "stm-commit-only"), f"unknown impl {impl!r}")
    try:
        w = Workload(def_, setup, concurrent)
    except ValueError as e:
        raise ScenarioError(str(e))
    sched = doc.get("schedule")
    schedule = None
    mode = "enumerate" if sched == "enumerate" else ("free" if sched is None else "drive")
    if mode == "drive":
        _require(isinstance(sched, list), "schedule must be a slot list or 'enumerate'")
        try:
            schedule = Schedule.from_json(sched)
        except (KeyError, ValueError) as e:
            raise ScenarioError(f"bad schedule slot: {e}")
    seed = doc.get("seed", 0)
    _require(_is_int(seed), f"seed must be an integer: {seed!r}")
    budget = doc.get("budget")  # None: the default, resolved by explore
    _require("budget" not in doc or _is_budget(budget),
             f"budget must be a positive integer: {budget!r}")
    return {"workload": w, "impl": impl, "mode": mode, "schedule": schedule,
            "seed": seed, "budget": budget}


def figure_name(elem: str) -> str:
    """Figure notation: r for the root, X_k for the node holding key k."""
    if elem == "root":
        return "r"
    if elem and elem.startswith("key:"):
        return f"X{elem[4:]}"
    return elem


def render_history(h: History) -> list[str]:
    out = []
    for e in h.events:
        if e.kind == OI:
            out.append(f"p{e.proc} invoke {e.value[0]}({e.value[1]})")
        elif e.kind == RI:
            out.append(f"p{e.proc} R({figure_name(e.elem)})")
        elif e.kind == WI:
            out.append(f"p{e.proc} W({figure_name(e.elem)})")
        elif e.kind == OR:
            out.append(f"p{e.proc} respond {e.value}")
    return out


def run_report(res: DriveResult, impl: str) -> dict:
    return {
        "impl": impl,
        "verdict": res.verdict,
        "reason": res.reason,
        "failing_slot": res.failing_slot,
        "responses": {str(i): res.responses[i] for i in sorted(res.responses)},
        "events": res.history.exported().events_json(),
    }


def cmd_run(args) -> int:
    try:
        with open(args.scenario) as f:
            doc = json.load(f)
        sc = parse_scenario(doc)
    except (OSError, json.JSONDecodeError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if sc["mode"] == "enumerate":
        print("error: use the explore command for enumerate scenarios", file=sys.stderr)
        return 1
    if sc["mode"] == "free":
        try:
            hist = free_run(sc["impl"], sc["workload"], seed=sc["seed"])
        except LivelockError as e:
            print(f"error: free run did not complete: {e}", file=sys.stderr)
            return 2
        report = {
            "impl": sc["impl"],
            "verdict": "completed",
            "responses": {str(i): o.response for i, o in sorted(hist.ops.items())
                          if o.proc != 0},
            "events": hist.exported().events_json(),
        }
        return _emit(args, report, [f"free run completed under {sc['impl']}"]
                     + render_history(hist.exported()), 0)
    try:
        res = drive(sc["impl"], sc["workload"], sc["schedule"])
    except MalformedScheduleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    lines = [f"{sc['impl']}: {res.verdict.upper()}"
             + (f" ({res.reason} at slot {res.failing_slot})" if res.reason else "")]
    lines += render_history(res.history.exported())
    return _emit(args, run_report(res, sc["impl"]), lines, 0 if res.accepted else 2)


def _json_text(x, indent: str = "") -> str:
    """``json.dumps(x, indent=2)``, the same bytes.  That encoder is the
    pure-Python one, whose nested closures refer to each other and so leave
    a reference cycle per call; this one leaves none.  Scalars and keys go
    through ``json.dumps``, which takes the C encoder for them."""
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [f"{inner}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_json_text(v, inner)}" for k, v in x.items()]
    elif isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = [inner + _json_text(v, inner) for v in x]
    else:
        return json.dumps(x)
    opening, closing = ("{", "}") if isinstance(x, dict) else ("[", "]")
    return f"{opening}\n" + ",\n".join(items) + f"\n{indent}{closing}"


def _emit(args, report: dict, lines: list[str], code: int) -> int:
    """Print the report, or write it to ``--out``; return `code`, or 1
    when the file cannot be written."""
    text = _json_text(report) if args.json else "\n".join(lines)
    if not args.out:
        print(text)
        return code
    try:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


# -- reproduce ---------------------------------------------------------------


def _claims_fig2() -> tuple[list[str], bool]:
    lines, ok = [], True
    w, s = fig2a()
    r_hoh, r_stm = drive("hoh", w, s), drive("stm", w, s)
    good = (not r_hoh.accepted and r_hoh.reason == "blocked" and r_stm.accepted
            and sorted(r_stm.responses.values()) == [False, False])
    ok &= good
    lines.append(f"fig2a sigma: hoh REJECTED({r_hoh.reason}@{r_hoh.failing_slot}); "
                 f"stm ACCEPTED, both inserts false"
                 + ("" if good else "  [DEVIATES]"))
    w2, s2 = fig2b()
    r_sp = drive("stm", w2, s2)
    good = not r_sp.accepted and r_sp.reason == "aborted"
    ok &= good
    lines.append(f"fig2b sigma': stm REJECTED({r_sp.reason}@{r_sp.failing_slot})"
                 + ("" if good else "  [DEVIATES]"))
    return lines, ok


def _claims_fig3() -> tuple[list[str], bool]:
    w, s = fig3()
    r = drive("hoh", w, s)
    resp = {o.describe(): o.response for o in r.history.ops.values()}
    ss = check_strictly_serializable(r.history)
    keys = workload_keys(w)
    lsl = check_ls_linearizable(r.history, w.structure, keys)
    ok = (r.accepted and resp == {"find(5)": True, "insert(2)": True,
                                  "insert(5)": True}
          and ss.verdict is False and lsl.verdict is True)
    lines = [("hoh: ACCEPTED sigma0; strict-serializable: "
              f"{'NO' if ss.verdict is False else 'YES'}; "
              f"LSL: {'YES' if lsl.verdict is True else 'NO'}")
             + ("" if ok else "  [DEVIATES]")]
    for e in (ss.violation or []):
        lines.append(f"  cycle: {e['from_op']} -> {e['to_op']} [{e['kind']}]")
    return lines, ok


def _claims_thm2() -> tuple[list[str], bool]:
    lines, ok = [], True
    for name in STRUCTURES:
        b = thm2_bundle(make_structure(name))
        r_hoh = drive("hoh", b.w_present, b.sigma)
        r_stm = drive("stm", b.w_present, b.sigma)
        r_sp = drive("stm", b.w_absent, b.sigma_prime)
        good = (not r_hoh.accepted and r_hoh.reason == "blocked"
                and r_stm.accepted
                and sorted(r_stm.responses.values()) == [False, False]
                and not r_sp.accepted and r_sp.reason == "aborted")
        ok &= good
        lines.append(f"thm2 [{name}] k={b.key}: hoh REJECTED sigma; "
                     f"stm ACCEPTED sigma, REJECTED sigma'"
                     + ("" if good else "  [DEVIATES]"))
    return lines, ok


def _claims_thm3() -> tuple[list[str], bool]:
    lines, ok = [], True
    for name in STRUCTURES:
        t = thm3_bundle(make_structure(name))
        r = drive("hoh", t.workload, t.sigma0)
        find_resp = next((o.response for o in r.history.ops.values()
                          if o.name == "find"), None)
        ss = check_strictly_serializable(r.history)
        keys = workload_keys(t.workload)
        lsl = check_ls_linearizable(r.history, t.structure, keys)
        good = (r.accepted and find_resp is False and ss.verdict is False
                and lsl.verdict is True and len(ss.violation) == 3)
        ok &= good
        lines.append(f"thm3 [{name}] find({t.key})/delete({t.mid_key})/delete({t.key}): "
                     f"hoh ACCEPTED; strict-serializable: NO; LSL: YES"
                     + ("" if good else "  [DEVIATES]"))
        for e in (ss.violation or []):
            lines.append(f"  cycle: {e['from_op']} -> {e['to_op']} [{e['kind']}] "
                         f"{e['detail']}")
    return lines, ok


def cmd_reproduce(args) -> int:
    table = {"fig2": _claims_fig2, "fig3": _claims_fig3,
             "thm2": _claims_thm2, "thm3": _claims_thm3}
    lines, ok = table[args.figure]()
    report = {"figure": args.figure, "ok": ok, "lines": lines}
    return _emit(args, report, lines, 0 if ok else 3)


# -- explore -----------------------------------------------------------------


def cmd_explore(args) -> int:
    if args.budget is not None and not _is_budget(args.budget):
        print(f"error: --budget must be a positive integer: {args.budget}",
              file=sys.stderr)
        return 1
    try:
        with open(args.scenario) as f:
            doc = json.load(f)
        sc = parse_scenario(doc)
        budget = args.budget or sc["budget"] or DEFAULT_BUDGET
    except (OSError, json.JSONDecodeError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    w, impl = sc["workload"], sc["impl"]
    gap = optimality_gap(impl, w, budget)
    report = {
        "workload": w.fingerprint(),
        "impl": impl,
        "total": gap.total,
        "accepted": gap.accepted,
        "lsl": gap.lsl,
        "ratio": round(gap.ratio, 6),
        "witnesses": [s.to_json() for s in gap.missing],
    }
    lines = [f"workload {report['workload']}: {report['total']} schedules, "
             f"{report['accepted']} accepted by {impl}, {report['lsl']} LSL, "
             f"ratio {report['ratio']}"]
    for s in gap.missing:
        lines.append("missed LSL schedule: "
                     + " ".join(f"p{sl.proc}:{sl.kind}"
                                + (f"({sl.elem})" if sl.elem else
                                   f"({sl.op_name} {sl.key})" if sl.op_name else "")
                                for sl in s.slots))
    return _emit(args, report, lines, 4 if gap.partial else 0)


def _parser() -> _Parser:
    # --help shows the docstring but for its last paragraph, the note above
    usage = (__doc__ or "").partition("\nThe argument parser")[0]
    p = _Parser(prog="schedlab", description=usage,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", metavar="PATH", help="write the report to a file")
    p.add_argument("--budget", type=int, default=None,
                   help="schedule budget for exploration")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one scenario file")
    run.add_argument("scenario")
    rep = sub.add_parser("reproduce", help="re-run a canned result")
    rep.add_argument("figure", choices=("fig2", "fig3", "thm2", "thm3"))
    exp = sub.add_parser("explore", help="enumerate and classify schedules")
    exp.add_argument("scenario")
    return p


# read-only after import: each parse builds a new namespace
_PARSER = _parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "reproduce":
            return cmd_reproduce(args)
        return cmd_explore(args)
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
