"""CLI surface: exit codes, report determinism, scenario validation."""

import json
import os
import re
import subprocess
import sys

import pytest

from schedlab import cli
from schedlab.cli import main, parse_scenario, ScenarioError
from schedlab.scheduler import LivelockError

from oracles import scenario_path
from test_golden import thm2_scenario


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "schedlab.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_run_rejected_scenario_exits_2():
    code, out, _ = run_cli("run", scenario_path("fig2a_hoh.json"))
    assert code == 2
    assert "REJECTED" in out and "blocked" in out


def test_run_accepted_scenario_exits_0():
    code, out, _ = run_cli("run", scenario_path("fig2a_stm.json"))
    assert code == 0
    assert "ACCEPTED" in out


def test_run_fig3_text_mirrors_figure_notation():
    code, out, _ = run_cli("run", scenario_path("fig3_hoh.json"))
    assert code == 0
    assert "R(r)" in out and "R(X5)" in out and "W(X4)" in out


def test_malformed_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("run", str(bad))
    assert code == 1 and "error" in err


def test_unknown_structure_exits_1(tmp_path):
    doc = {"structure": "treap", "setup": [], "concurrent": [], "impl": "hoh",
           "schedule": []}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code, _, err = run_cli("run", str(p))
    assert code == 1 and "treap" in err


def test_parse_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        parse_scenario({"structure": "bst", "setup": [], "impl": "hoh"})
    with pytest.raises(ScenarioError):
        parse_scenario({"structure": "bst", "setup": [{"op": "pop", "key": 1}],
                        "concurrent": [], "impl": "hoh", "schedule": []})


@pytest.mark.parametrize("impl", ["hoh", "stm", "stm-commit-only"])
def test_validation_field_is_an_input_error(tmp_path, impl):
    """Commit-only validation is an impl of its own; a scenario that asks
    for it through a `validation` field is refused and told which impl to
    name, whatever impl it names."""
    doc = {"structure": "sorted-list", "setup": [],
           "concurrent": [{"proc": 1, "op": "find", "key": 1}], "impl": impl,
           "validation": "commit-only", "schedule": []}
    with pytest.raises(ScenarioError, match="stm-commit-only"):
        parse_scenario(doc)
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli("run", str(p))
    assert code == 1 and "stm-commit-only" in err and not out
    del doc["validation"]
    assert parse_scenario(doc)["impl"] == impl


@pytest.mark.parametrize("figure", ["fig2", "fig3", "thm2", "thm3"])
def test_reproduce_exits_0(figure):
    code, out, _ = run_cli("reproduce", figure)
    assert code == 0
    assert "DEVIATES" not in out


def test_reproduce_fig3_summary_line():
    code, out, _ = run_cli("reproduce", "fig3")
    assert "ACCEPTED sigma0" in out
    assert "strict-serializable: NO" in out
    assert "LSL: YES" in out


def test_explore_reports_counts_and_ratio():
    code, out, _ = run_cli("--json", "explore", scenario_path("explore_fig2a_hoh.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 126 and doc["accepted"] == 2 and doc["lsl"] == 126
    assert 0 < doc["ratio"] < 1
    assert doc["witnesses"]


def test_explore_budget_exceeded_exits_4(tmp_path):
    with open(scenario_path("explore_fig2a_hoh.json")) as f:
        doc = json.load(f)
    doc["budget"] = 10
    p = tmp_path / "small.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli("explore", str(p))
    assert code == 4


def thm2_present_scenario(tmp_path, **fields):
    """The sorted-list Thm. 2 `w_present` scenario (924 schedules)."""
    doc = {**thm2_scenario("sorted-list", "w_present", "hoh"), **fields}
    p = tmp_path / "thm2.json"
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize("budget, code", [(923, 4), (924, 0), (925, 0)])
def test_explore_is_partial_only_below_the_universe_size(tmp_path, capsys,
                                                         budget, code):
    """A budget equal to the universe size classifies all of it."""
    p = thm2_present_scenario(tmp_path)
    assert main(["--json", "--budget", str(budget), "explore", str(p)]) == code
    assert json.loads(capsys.readouterr().out)["total"] == min(budget, 924)
    p = thm2_present_scenario(tmp_path, budget=budget)
    assert main(["--json", "explore", str(p)]) == code


@pytest.mark.parametrize("budget", ["abc", 0, -5, True, 1.5, None])
def test_explore_rejects_a_bad_scenario_budget(tmp_path, capsys, budget):
    p = thm2_present_scenario(tmp_path, budget=budget)
    assert main(["explore", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: budget must be a positive integer: {budget!r}\n"


def skiplist_scenario(tmp_path, structure=None, **concurrent):
    """A skiplist scenario of two concurrent operations; `structure` and
    `concurrent` override fields of the structure object and of the first
    concurrent operation."""
    doc = {"structure": {"name": "skiplist", **(structure or {})},
           "setup": [{"op": "insert", "key": 2}],
           "concurrent": [{"proc": 1, "op": "insert", "key": 1, **concurrent},
                          {"proc": 2, "op": "find", "key": 1}],
           "impl": "hoh", "schedule": "enumerate"}
    p = tmp_path / "skiplist.json"
    p.write_text(json.dumps(doc))
    return p, doc


@pytest.mark.parametrize("structure, concurrent, top, message", [
    ({}, {"proc": "a"}, {}, "proc must be an integer"),
    ({}, {"proc": True}, {}, "proc must be an integer"),
    ({}, {"key": True}, {}, "key must be a natural number"),
    ({"max_level": "3"}, {}, {}, "structure max_level must be a positive integer: '3'"),
    ({"max_level": 0}, {}, {}, "structure max_level must be a positive integer: 0"),
    ({"max_level": True}, {}, {}, "structure max_level must be a positive integer"),
    ({"seed": "x"}, {}, {}, "structure seed must be an integer: 'x'"),
    ({"seed": 1.5}, {}, {}, "structure seed must be an integer: 1.5"),
    ({"name": "bst", "max_level": 2}, {}, {},
     "only the skiplist takes max_level and seed"),
    ({"name": "sorted-list", "seed": 5}, {}, {},
     "only the skiplist takes max_level and seed"),
    ({"name": "bst", "max_level": 2, "seed": 5}, {}, {},
     "only the skiplist takes max_level and seed"),
    ({}, {}, {"bugdet": 5}, "unknown scenario field 'bugdet'"),
    ({"max_levels": 2}, {}, {}, "unknown structure field 'max_levels'"),
    ({}, {"vaule": 7}, {}, "unknown operation field 'vaule'"),
    ({}, {}, {"setup": [{"op": "insert", "key": 2, "proc": 3}]},
     "unknown operation field 'proc'"),
], ids=["proc-str", "proc-bool", "key-bool", "max_level-str", "max_level-0",
        "max_level-bool", "seed-str", "seed-float", "bst-max_level",
        "sorted-list-seed", "bst-max_level-seed", "bugdet", "max_levels", "vaule",
        "setup-proc"])
def test_explore_rejects_a_malformed_field(tmp_path, capsys, structure, concurrent,
                                           top, message):
    """A process or key that is no int, or a bool, a structure object's
    max_level that is no positive int or seed that is no int, a max_level
    or seed on a structure other than the skiplist, which would be dropped,
    and a field the scenario, its structure object or an operation does not
    take (only a concurrent one names its process), which would run with
    its default: an input error from either
    command, not a traceback or a report about process or key True or
    about a structure that ignored a field."""
    p, doc = skiplist_scenario(tmp_path, structure, **concurrent)
    doc.update(top)
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(doc)
    for command in ("run", "explore"):
        assert main([command, str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("fields, message", [
    ({"seed": [1]}, "seed must be an integer: [1]"),
    ({"seed": "1"}, "seed must be an integer: '1'"),
    ({"seed": True}, "seed must be an integer: True"),
    ({"setup": 5}, "setup must be a list: 5"),
    ({"setup": {"op": "insert", "key": 2}}, "setup must be a list"),
    ({"concurrent": "p1"}, "concurrent must be a list: 'p1'"),
    ({"concurrent": [{"proc": 1, "op": "insert", "key": 1, "value": [1]}]},
     "value must be an integer"),
    ({"concurrent": [{"proc": 1, "op": "insert", "key": 1, "value": True}]},
     "value must be an integer"),
    ({"setup": [{"op": "insert", "key": 2, "value": "x"}]},
     "value must be an integer"),
    ({"concurrent": [{"proc": 1, "op": "find", "key": 1, "value": 5}]},
     "only an insert takes a value: find(1) with value 5"),
    ({"setup": [{"op": "delete", "key": 2, "value": 5}]},
     "only an insert takes a value: delete(2) with value 5"),
], ids=["seed-list", "seed-str", "seed-bool", "setup-int", "setup-object",
        "concurrent-str", "value-list", "value-bool", "setup-value-str",
        "find-value", "setup-delete-value"])
@pytest.mark.parametrize("command", ["run", "explore"])
def test_scenario_field_of_the_wrong_type_is_an_input_error(tmp_path, capsys, command,
                                                            fields, message):
    """A top-level seed that is no int, a setup or concurrent that is no
    list, and an operation's value that is no int or is given to a find or
    a delete: an `error: ...` line and exit 1 from either command, not a
    traceback."""
    p, doc = skiplist_scenario(tmp_path)
    doc.update(fields)
    if command == "run":
        del doc["schedule"]  # a free run, which reads the seed
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario(doc)
    assert main([command, str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_an_integer_value_is_taken(tmp_path, capsys):
    p, doc = skiplist_scenario(tmp_path, value=7)
    assert parse_scenario(doc)["workload"].concurrent[0][1].val == 7
    assert main(["--json", "explore", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] > 0


def test_explore_takes_a_structure_object(tmp_path, capsys):
    p, doc = skiplist_scenario(tmp_path, {"max_level": 2, "seed": -1})
    assert parse_scenario(doc)["workload"].structure.fingerprint() == \
        ("skiplist", 2, -1)
    assert main(["--json", "explore", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] > 0


def fig2a_slots():
    with open(scenario_path("fig2a_stm.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("slot, change, message", [
    (0, 1, "slot must be an object: 1"),
    (0, [1], "slot must be an object: [1]"),
    (0, {"proc": [1]}, "proc must be an integer"),
    (0, {"proc": True}, "proc must be an integer"),
    (0, {"proc": "1"}, "proc must be an integer"),
    (0, {"op": "upsert"}, "unknown op 'upsert'"),
    (0, {"key": [1]}, "key must be a natural number"),
    (0, {"key": True}, "key must be a natural number"),
    (0, {"key": -1}, "key must be a natural number"),
    (1, {"elem": ["root"]}, "elem must be a string"),
    (1, {"elem": None}, "elem must be a string"),
], ids=["int", "list", "proc-list", "proc-bool", "proc-str", "op-unknown",
        "key-list", "key-bool", "key-negative", "elem-list", "elem-null"])
def test_a_malformed_schedule_slot_is_an_input_error(tmp_path, capsys, slot, change,
                                                     message):
    """A slot that is no object, a process that is no int or a bool, an oi
    slot's unknown op or key that is no natural number, and an ri slot's
    element that is no string: an `error: bad schedule slot: ...` line and
    exit 1, not a traceback or a driven run that is rejected."""
    doc = fig2a_slots()
    sched = doc["schedule"]
    sched[slot] = {**sched[slot], **change} if isinstance(change, dict) else change
    p = tmp_path / "slot.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=re.escape(f"bad schedule slot: {message}")):
        parse_scenario(doc)
    assert main(["run", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: bad schedule slot: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_explore_rejects_a_bad_budget_flag(tmp_path, capsys, budget):
    p = thm2_present_scenario(tmp_path)
    assert main(["--budget", budget, "explore", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --budget must be a positive integer: {budget}\n"


def test_reports_byte_identical(tmp_path):
    outs = []
    for i in range(2):
        path = tmp_path / f"r{i}.json"
        code = main(["--json", "--out", str(path), "run",
                     scenario_path("fig3_stm.json")])
        assert code == 2
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def free_run_scenario(tmp_path):
    with open(scenario_path("fig2a_stm.json")) as f:
        doc = json.load(f)
    del doc["schedule"]
    doc["seed"] = 9
    p = tmp_path / "free.json"
    p.write_text(json.dumps(doc))
    return p


def test_free_run_scenario(tmp_path):
    p = free_run_scenario(tmp_path)
    code, out, _ = run_cli("--json", "run", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "completed"
    assert sorted(report["responses"].values()) == [False, False]


def test_free_run_that_does_not_complete_exits_2(tmp_path, monkeypatch, capsys):
    def livelocked(impl, w, seed=0):
        raise LivelockError("restart budget 100 exhausted")

    monkeypatch.setattr(cli, "free_run", livelocked)
    code = main(["--json", "run", str(free_run_scenario(tmp_path))])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: free run did not complete: restart budget 100 exhausted\n"


@pytest.mark.parametrize("argv", [["--budget", "abc", "explore", "x.json"],
                                  ["explore"], ["reproduce", "fig9"], ["frobnicate"]])
def test_usage_errors_exit_1(capsys, argv):
    """A command line argparse rejects is an input error (exit 1), not a
    rejected schedule (exit 2)."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    """``main`` parses every call with the parser built at import: after a
    budget cut, a JSON report, a usage error or another command, each call
    prints and returns what it does alone in a fresh process."""
    thm2 = str(thm2_present_scenario(tmp_path))
    calls = [["--budget", "1", "explore", thm2], ["explore", thm2],
             ["--json", "explore", thm2], ["explore", thm2],
             ["--budget", "abc", "explore", thm2], ["explore", thm2],
             ["run", scenario_path("fig2a_stm.json")],
             ["explore", scenario_path("explore_fig2a_hoh.json")]]
    alone = {}
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        if tuple(argv) not in alone:
            alone[tuple(argv)] = run_cli(*argv)
        assert (code, out, err) == alone[tuple(argv)], argv
    assert [alone[tuple(argv)][0] for argv in calls] == [4, 0, 0, 0, 1, 0, 0, 0]


def test_there_is_no_global_seed_flag(tmp_path, capsys):
    """A free run takes its seed from the scenario's own "seed"; a global
    --seed is a usage error."""
    assert main(["--seed", "3", "run", str(free_run_scenario(tmp_path))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_no_environment_variable_sets_the_budget(tmp_path):
    """The budget is the flag, else the scenario's, else the default: a
    SCHEDLAB_BUDGET in the environment is not read, bad or good."""
    p = thm2_present_scenario(tmp_path)
    for value in ("abc", "100"):
        env = {**os.environ, "SCHEDLAB_BUDGET": value}
        proc = subprocess.run([sys.executable, "-m", "schedlab.cli", "--json",
                               "explore", str(p)], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total"] == 924


@pytest.mark.parametrize("command", ["run", "free-run", "reproduce", "explore"])
def test_an_unwritable_out_path_is_an_input_error(tmp_path, capsys, command):
    """Every command reports a report file it cannot write as one error
    line and exit 1, with no traceback."""
    argv = {"run": ["run", scenario_path("fig2a_hoh.json")],
            "free-run": ["run", str(free_run_scenario(tmp_path))],
            "reproduce": ["reproduce", "fig2"],
            "explore": ["explore", scenario_path("explore_fig2a_hoh.json")]}[command]
    out = tmp_path / "missing" / "r.json"
    assert main(["--out", str(out), *argv]) == 1
    assert not out.exists()
    got, err = capsys.readouterr()
    assert got == ""
    assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
