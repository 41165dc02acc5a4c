import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstab import cli, presets
from netstab.cli import main
from netstab.control import load_controller
from netstab.diagrams import save_diagrams
from netstab.network import save_network

from test_stability import mainline

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_emit_writes_the_bytes_of_one_dumps(capsys):
    """`_emit` streams the document with `json.dump` and then a newline:
    the bytes of `json.dumps(..., indent=2)` of the document with its numpy
    values converted by hand, plus a newline."""
    K = np.arange(12.0).reshape(3, 4) / 7.0
    doc = {"K": K, "n": np.int64(3), "ok": True, "passed": np.bool_(False),
           "m": None, "rows": [{"x": np.float64(0.1), "cell": "3"}, (1, 2.5e-300)]}
    plain = {"K": [[float(k) for k in row] for row in K], "n": 3, "ok": True,
             "passed": False, "m": None, "rows": [{"x": 0.1, "cell": "3"}, [1, 2.5e-300]]}
    cli._emit(doc, sys.stdout)
    out = capsys.readouterr().out
    assert out == json.dumps(plain, indent=2) + "\n"
    assert out.count("\n") == len(out.splitlines()) and json.loads(out)["n"] == 3


def test_validate_default_network(capsys):
    code, doc = run_cli(capsys, "validate")
    assert code == 0
    assert doc["ok"] and doc["acyclic"] and doc["violations"] == []


def test_validate_reports_violations(capsys, tmp_path):
    spec = presets.reference_with_backedge()
    path = tmp_path / "cyclic.json"
    save_network(spec, path)
    code, doc = run_cli(capsys, "validate", "--network", str(path))
    assert code == 1
    assert not doc["acyclic"]
    assert doc["cycle"]  # 1-based cycle listing


def _validate_edited(capsys, tmp_path, i, j, rate):
    """`netstab validate` on the benchmark with P[i, j] = rate (0-based)."""
    spec = presets.reference_network()
    P = np.array(spec.P)
    P[i, j] = rate
    path = tmp_path / "edited.json"
    save_network(replace(spec, P=P), path)
    code = main(["validate", "--network", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out)


def test_validate_reports_a_self_loop_by_edge(capsys, tmp_path):
    code, doc = _validate_edited(capsys, tmp_path, 2, 2, 0.5)
    assert code == 1 and not doc["ok"]
    loop = [v for v in doc["violations"] if v["constraint"] == "zero_diagonal"]
    assert loop == [{"constraint": "zero_diagonal", "edge": [3, 3],
                     "residual": 0.5, "message": loop[0]["message"]}]
    assert doc["cycle"] == [3]


def test_validate_reports_an_out_of_range_rate_by_edge(capsys, tmp_path):
    code, doc = _validate_edited(capsys, tmp_path, 0, 1, 1.5)
    assert code == 1 and not doc["ok"]
    by_kind = {v["constraint"]: v for v in doc["violations"]}
    assert by_kind["rate_range"]["edge"] == [1, 2]
    assert by_kind["rate_range"]["residual"] == pytest.approx(0.5)
    assert "cell" not in by_kind["rate_range"]
    assert by_kind["row_sum"]["cell"] == 1
    assert doc["acyclic"]


def test_missing_file_is_an_input_error(capsys):
    code = main(["validate", "--network", "/no/such/file.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_uep_outputs_equilibrium(capsys):
    code, doc = run_cli(capsys, "solve-uep")
    assert code == 0
    np.testing.assert_allclose(doc["xstar"],
                               [55, 55, 55, 55, 27.5, 27.5, 55, 55],
                               rtol=0, atol=1e-6)
    np.testing.assert_allclose(doc["flows"],
                               [25, 25, 25, 25, 12.5, 12.5, 25, 25],
                               rtol=0, atol=1e-8)


def test_custom_network_requires_vstar(capsys, tmp_path):
    path = tmp_path / "net.json"
    save_network(presets.reference_network(), path)
    code = main(["solve-uep", "--network", str(path)])
    assert code == 2
    assert "--vstar" in capsys.readouterr().err

    code, doc = run_cli(capsys, "solve-uep", "--network", str(path),
                        "--vstar", "25,0,0,0,12.5,0,0,0")
    assert code == 0
    assert doc["xstar"][4] == pytest.approx(27.5, abs=1e-6)


def test_synthesize_writes_a_loadable_controller(capsys, tmp_path):
    code, doc = run_cli(capsys, "synthesize", "--out", str(tmp_path))
    assert code == 0
    cfg = load_controller(tmp_path / "controller.json", 8)
    np.testing.assert_allclose(cfg.b, doc["b"], rtol=0, atol=0)
    assert cfg.tau == 0.5
    assert np.all(cfg.b[np.array([0, 4])] > 0)


def test_analyze_emits_a_full_certificate(capsys, tmp_path):
    code = main(["analyze", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"]
    assert doc["comparison"]["rho"] == pytest.approx(0.991, abs=1e-9)
    assert doc["checks"]["contraction_ok"]
    assert doc["trapping_steps"] > 0
    assert len(doc["audits"]["demand"]) == 8
    assert (tmp_path / "certificate.json").read_text(encoding="utf-8") == out


def test_a_failed_demand_audit_is_reported_in_one_document(capsys, tmp_path):
    """Cell 1's subcritical branch falls on [40, 45], so its slope test
    fails.  The audit's result is a Python bool: a numpy bool there cut
    the output short with a TypeError traceback."""
    path = tmp_path / "dia.json"
    save_diagrams(presets.reference_diagrams(), path)
    doc = json.loads(path.read_text())
    delta = presets.DELTA
    doc["cells"][0].update(
        family="piecewise", overcritical=[[delta, 170, [20]]],
        subcritical=[[0, 40, [0, 0.5]], [40, 45, [24, -0.1]], [45, delta, [-9.75, 0.65]]])
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--diagrams", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    out = json.loads(captured.out)
    assert out["audits"]["demand"][0]["passed"] is False
    assert out["ok"] is False


def test_simulate_runs_a_scenario_file(capsys, tmp_path):
    scenario = {
        "x0": [170.0] * 8,
        "horizon": 30,
        "disturbance": {"kind": "uniform", "seed": 3},
        "control": {"kind": "open-loop", "v": [25, 0, 0, 0, 12.5, 0, 0, 0]},
        "reference": [55, 55, 55, 55, 27.5, 27.5, 55, 55],
    }
    path = tmp_path / "jam.json"
    path.write_text(json.dumps(scenario))
    code, doc = run_cli(capsys, "simulate", "--scenario", str(path),
                        "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "jam.csv").exists()
    assert doc["horizon"] == 30
    assert doc["max_mass_balance_error"] < 1e-9


def test_simulate_rejects_unknown_scenario_fields(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"x0": [0] * 8, "horizon": 5,
                                "disturbance": {"kind": "uniform"},
                                "control": {"kind": "open-loop", "v": [0] * 8},
                                "plot": True}))
    code = main(["simulate", "--scenario", str(path)])
    assert code == 2
    assert "unknown scenario field" in capsys.readouterr().err


def test_gridlock_demo_cli(capsys):
    code, doc = run_cli(capsys, "gridlock-demo", "--horizon", "50")
    assert code == 0
    assert doc["locked"] and doc["max_drift"] == 0.0
    assert doc["cycle"] == [1, 2, 3]


def test_gridlock_demo_reads_diagrams_for_the_built_in_cycle(capsys, tmp_path):
    """--diagrams without --network pairs with the 3-cell cycle (it was
    dropped); diagrams of another cell count exit 2."""
    three, eight = tmp_path / "three.json", tmp_path / "eight.json"
    save_diagrams(presets.three_cell_cycle()[1], three)
    save_diagrams(presets.reference_diagrams(), eight)
    code, doc = run_cli(capsys, "gridlock-demo", "--horizon", "50", "--diagrams", str(three))
    assert code == 0 and doc == run_cli(capsys, "gridlock-demo", "--horizon", "50")[1]
    err = _input_error(capsys, "gridlock-demo", "--diagrams", str(eight))
    assert err == "error: network has 3 cells but diagrams describe 8\n"


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--seed", "-1"], "--seed: expected a non-negative integer, got '-1'"),
    (["synthesize", "--seed", "2.5"], "--seed: expected a non-negative integer"),
    (["gridlock-demo", "--horizon", "-5"], "--horizon: expected a positive integer"),
    (["gridlock-demo", "--horizon", "0"], "--horizon: expected a positive integer, got '0'"),
])
def test_bad_integer_options_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def _input_error(capsys, *argv):
    """Run the CLI on bad input: exit 2, nothing on stdout, no traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("command", ["solve-uep", "analyze"])
@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_non_finite_vstar_exits_2(capsys, command, entry):
    err = _input_error(capsys, command, "--vstar", f"25,0,0,0,{entry},0,0,0")
    assert f"--vstar entry 5 is {entry}, not a finite number" in err


@pytest.mark.parametrize("vstar, message", [
    ("-1,0,0,0,12.5,0,0,0", "cell 1: equilibrium inflow -1 is negative"),
    ("25,0,0,0,12.5,0,0,-0.5", "cell 8: equilibrium inflow -0.5 is negative"),
    ("26,0,0,0,12.5,0,0,0", "cell 1: equilibrium inflow 26 exceeds the admissible bound"),
    ("25,0,0,0,12.5,0,0,0.4", "cell 8: equilibrium inflow 0.4 exceeds the admissible bound"),
])
def test_vstar_outside_its_box_exits_2(capsys, vstar, message):
    err = _input_error(capsys, "solve-uep", f"--vstar={vstar}")
    assert err.startswith(f"error: {message}")


def test_infeasible_vstar_is_a_failed_check(capsys):
    """Inflows inside their box whose flows no subcritical demand carries."""
    code = main(["solve-uep", "--vstar=25,0,0,0,12.5,0,0,0.2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("check failed: cell 8: equilibrium flow 25.2 exceeds")


def _no_work(monkeypatch):
    """Make every command's first step fail loudly, so a test can show none ran."""
    for name in ("load_network", "reference_network", "reproduce_suite",
                 "three_cell_cycle"):  # every command's work starts with one
        monkeypatch.setattr(cli, name, None)


def _refused(capsys, *argv):
    """argparse refuses `argv`: exit 2, a usage line on stderr, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("command", [
    ["validate"], ["solve-uep"], ["synthesize"], ["analyze"], ["gridlock-demo"],
    ["reproduce-paper"], ["simulate", "--scenario", "unread.json"]],
    ids=lambda argv: argv[0])
@pytest.mark.parametrize("below", [False, True])
def test_out_naming_a_file_exits_2_before_any_work(capsys, tmp_path, monkeypatch,
                                                   command, below):
    """--out naming a file, or a path below one, used to fail with a traceback
    after the whole run; no command may start its work.  validate, solve-uep
    and gridlock-demo write nothing, and argparse refuses their --out."""
    _no_work(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "sub" if below else taken
    if command[0] in ("validate", "solve-uep", "gridlock-demo"):
        err = _refused(capsys, *command, "--out", str(out))
        assert "unrecognized arguments: --out" in err
    else:
        err = _input_error(capsys, *command, "--out", str(out))
        assert err == f"error: --out {out}: {taken} is a file, not a directory\n"
    assert taken.read_text() == "keep\n"


# the flags a subcommand took and never read, before each took only its own
_UNREAD = [("validate", "--controller"), ("validate", "--seed"), ("validate", "--out"),
           ("solve-uep", "--controller"), ("solve-uep", "--seed"), ("solve-uep", "--out"),
           ("synthesize", "--controller"),
           ("gridlock-demo", "--controller"), ("gridlock-demo", "--out"),
           ("reproduce-paper", "--network"), ("reproduce-paper", "--diagrams"),
           ("reproduce-paper", "--controller")]


@pytest.mark.parametrize("command, flag", _UNREAD)
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, tmp_path, monkeypatch,
                                                     command, flag):
    """`reproduce-paper --network nope.json` ran the built-in freeway and
    exited 0: a flag its subcommand ignores is refused before any work."""
    _no_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    value = "5" if flag == "--seed" else str(tmp_path / "unread")
    err = _refused(capsys, command, flag, value)
    assert f"unrecognized arguments: {flag} {value}" in err
    assert list(tmp_path.iterdir()) == []


def test_a_refused_flag_prints_its_subcommands_usage(capsys):
    """The usage printed with the refusal named the seven subcommands; it now
    names the flags `reproduce-paper` takes."""
    err = _refused(capsys, "reproduce-paper", "--network", "x.json")
    assert err.startswith("usage: netstab reproduce-paper [-h] [--seed SEED] [--out OUT]\n")
    assert err.endswith("netstab reproduce-paper: error: unrecognized arguments: "
                        "--network x.json\n")
    assert "gridlock-demo" not in err


def test_a_flag_before_the_subcommand_is_refused_by_the_top_level(capsys):
    err = _refused(capsys, "--bogus", "analyze", "--seed", "1")
    assert err.startswith("usage: netstab [-h]")
    assert err.endswith("netstab: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("command, flags", [
    ("validate", "network diagrams"),
    ("solve-uep", "network diagrams vstar"),
    ("synthesize", "network diagrams vstar seed out"),
    ("analyze", "network diagrams controller vstar seed out"),
    ("simulate", "network diagrams controller scenario seed out"),
    ("gridlock-demo", "network diagrams seed horizon"),
    ("reproduce-paper", "seed out"),
])
def test_each_subcommand_takes_the_flags_it_reads(command, flags):
    """28 (subcommand, flag) pairs parse; the other 28 of the 8 flags are refused."""
    parser = cli._build_parser()
    required = ["--scenario", "s.json"] if command == "simulate" else []
    for flag in ("network", "diagrams", "controller", "vstar", "scenario", "seed",
                 "out", "horizon"):
        argv = [command, *required, f"--{flag}", "1"]
        if flag in flags.split():
            want = 1 if flag in ("seed", "horizon") else "1"
            assert getattr(parser.parse_args(argv), flag) == want
        else:
            with pytest.raises(SystemExit), redirect_stderr(io.StringIO()):
                parser.parse_args(argv)


def _drop(*keys):
    def edit(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
        return doc
    return edit


def _set(*keys, value):
    def edit(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return doc
    return edit


# a valid piecewise curve for cell 1 of the benchmark (a = 170, delta = 55.00002)
_PIECEWISE = {"family": "piecewise", "subcritical": [[0, 55.00002, [0, 0.5]]],
              "overcritical": [[55.00002, 170, [40, -0.1]]]}


def _piecewise(**tables):
    """Make cell 1 piecewise, with `tables` in place of its valid tables."""
    def edit(doc):
        doc["cells"][0].update(_PIECEWISE, **tables)
        return doc
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("d_box"), "missing field(s) ['d_box']"),
    (lambda doc: {"cells": []}, "missing field(s) ['d_box']"),
    (lambda doc: [1, 2], "expected a JSON object of fields"),
    (lambda doc: {**doc, "cells": 3}, "cells must be a JSON list"),
    (lambda doc: {**doc, "cells": [5]}, "cell 1: expected a JSON object of fields"),
    (_drop("cells", 2, "a"), "cell 3: missing field(s) ['a']"),
    (_drop("cells", 7, "supply"), "cell 8: missing field(s) ['supply']"),
    (_drop("cells", 0, "supply", "qcap"), "cell 1: missing supply field(s) ['qcap']"),
    (lambda doc: {**doc, "cells": [{**doc["cells"][0], "supply": 1}]},
     "cell 1: expected a JSON object of supply fields"),
    (_set("cells", 0, "a", value="abc"), "cell 1: field 'a' must be a finite number, got 'abc'"),
    (_set("cells", 2, "L", value=None), "cell 3: field 'L' must be a finite number, got None"),
    (_set("cells", 4, "G", value=True), "cell 5: field 'G' must be a finite number, got True"),
    (_set("cells", 1, "supply", "qcap", value="x"),
     "cell 2: supply field 'qcap' must be a finite number, got 'x'"),
    (_set("cells", 7, "supply", "wave", value=float("inf")),
     "cell 8: supply field 'wave' must be a finite number, got inf"),
    (_set("d_box", 3, 0, value=float("nan")), "d_box: d4 lo must be a finite number, got nan"),
    (_set("d_box", 3, value=[0.1]), "d_box must be 4 [lo, hi] pairs"),
    (_set("d_box", 2, value=[0, 2]),
     "d_box: d3 hi = 2 is outside [0, 1], the range of a demand blend weight"),
    (_set("d_box", 0, value=[-0.5, 1.5]),
     "d_box: d1 lo = -0.5 is outside [0, 1], the range of a demand blend weight"),
    (_set("d_box", 3, value=[-0.1, 0.3]), "d_box: d4 lo = -0.1 must be positive"),
    (_set("cells", 0, "family", value=5), "cell 1: unknown demand family 5"),
    (_set("cells", 2, "family", value=None), "cell 3: unknown demand family None"),
    (_piecewise(subcritical=[[1, 2]]),
     "cell 1: field 'subcritical' must be a list of [lo, hi, [c0, c1, ...]] segments"),
    (_piecewise(overcritical={"lo": 0}),
     "cell 1: field 'overcritical' must be a list of [lo, hi, [c0, c1, ...]] segments"),
    (_piecewise(subcritical=[[0, "a", [1, 2, 3]]]),
     "cell 1: field 'subcritical' segment 1: hi must be a finite number, got 'a'"),
    (_piecewise(overcritical=[[55.00002, 170, [40, None]]]),
     "cell 1: field 'overcritical' segment 1: coefficients entry 2 must be a finite "
     "number, got None"),
    (_piecewise(subcritical=[[0, 55.00002, 0.5]]),
     "cell 1: field 'subcritical' segment 1: coefficients must be a list of numbers"),
    (_piecewise(subcritical=[[55, 0, [1]]]),
     "cell 1: field 'subcritical' segment 1: piece interval [55, 0] is empty"),
    (_piecewise(subcritical=[[0, 55.00002, []]]),
     "cell 1: field 'subcritical' segment 1: piece needs at least one coefficient"),
])
def test_bad_diagram_files_exit_2(capsys, tmp_path, edit, message):
    path = tmp_path / "dia.json"
    save_diagrams(presets.reference_diagrams(), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    err = _input_error(capsys, "analyze", "--diagrams", str(path))
    assert f"{path}: {message}" in err


def _other_cells(doc):
    doc["cells"].pop()
    return doc


@pytest.mark.parametrize("command", [["validate"], ["solve-uep"],
                                     ["simulate", "--scenario", "unread.json"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("edit, message", [
    (_set("cells", 2, "a", value=120.0),
     "cell 3: diagrams give jam capacity a = 120 but the network has a = 170"),
    (_other_cells, "network has 8 cells but diagrams describe 7"),
])
def test_diagrams_of_other_cells_exit_2(capsys, tmp_path, command, edit, message):
    """The diagrams must describe the network's cells: curves that jam at 120
    on a cell the network fills to 170 ran and broke mass balance."""
    path = tmp_path / "dia.json"
    save_diagrams(presets.reference_diagrams(), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    err = _input_error(capsys, *command, "--diagrams", str(path))
    assert err == f"error: {message}\n"


def _bad_file(capsys, path, doc, *argv):
    """Write `doc` to `path` and run `netstab <argv> path`: exit 2, one line."""
    path.write_text(json.dumps(doc))
    return _input_error(capsys, *argv, str(path))


@pytest.mark.parametrize("edit, message", [
    (_set("n", value=8.5), "field 'n' must be a positive integer, got 8.5"),
    (_set("n", value=0), "field 'n' must be a positive integer, got 0"),
    (_set("n", value="8"), "field 'n' must be a positive integer, got '8'"),
    (_set("a", 0, value="abc"), "field 'a' entry 1 must be a finite number, got 'abc'"),
    (_set("P", 1, 2, value=float("nan")),
     "field 'P' entry 2, 3 must be a finite number, got nan"),
    (_set("P", 3, value=[0.0] * 7), "field 'P' must be a list of 8 lists of 8 numbers"),
    (_set("Qexit", 7, value=None), "field 'Qexit' entry 8 must be a finite number, got None"),
    (_set("mu", value=[50.0] * 7), "field 'mu' must be a list of 8 numbers"),
    (_set("vmax", value={}), "field 'vmax' must be a list of 8 numbers"),
    (_set("vmax", 2, value=True), "field 'vmax' entry 3 must be a finite number, got True"),
])
def test_bad_network_files_exit_2(capsys, tmp_path, edit, message):
    path = tmp_path / "net.json"
    save_network(presets.reference_network(), path)
    err = _bad_file(capsys, path, edit(json.loads(path.read_text())),
                    "validate", "--network")
    assert err == f"error: {path}: {message}\n"


_XREF = [55.0, 55.0, 55.0, 55.0, 27.5, 27.5, 55.0, 55.0]


def _controller_doc() -> dict:
    """The benchmark's hand-tuned controller as a JSON document."""
    cfg = presets.experiment_controller(np.array(_XREF))
    return {"xstar": cfg.xstar.tolist(), "vstar": cfg.vstar.tolist(),
            "b": cfg.b.tolist(), "K": cfg.K.tolist(), "tau": cfg.tau}


@pytest.mark.parametrize("edit, message", [
    (_set("b", 1, value=float("nan")), "field 'b' entry 2 must be a finite number, got nan"),
    (_set("vstar", 0, value=float("inf")),
     "field 'vstar' entry 1 must be a finite number, got inf"),
    (_set("xstar", value=[55.0] * 7), "field 'xstar' must be a list of 8 numbers"),
    (_set("K", value=[0.016] * 63), "field 'K' must be a list of 64 numbers"),
    (_set("K", 2, 3, value=[1]), "field 'K' entry 3, 4 must be a finite number, got [1]"),
    (_set("tau", value="0.5"), "field 'tau' must be a finite number, got '0.5'"),
    (_drop("tau"), "missing field(s) ['tau']"),
    (_set("gain", value=1), "unknown field(s) ['gain']"),
    (_set("xstar", value=[10.0] * 8), "cell 1: field 'xstar' is 10 but the solved "
     "equilibrium has 55: built for another equilibrium"),
    (_set("vstar", 4, value=12.5 + 2e-6), "cell 5: field 'vstar' is 12.500002 but the "
     "solved equilibrium has 12.5: built for another equilibrium"),
])
def test_bad_controller_files_exit_2(capsys, tmp_path, edit, message):
    err = _bad_file(capsys, tmp_path / "ctrl.json", edit(_controller_doc()),
                    "analyze", "--controller")
    assert err == f"error: {tmp_path / 'ctrl.json'}: {message}\n"


def test_analyze_takes_the_benchmark_controller(capsys, tmp_path):
    """Its x* (55 and 27.5) is the solved one to within 1e-6, not exactly."""
    path = tmp_path / "ctrl.json"
    path.write_text(json.dumps(_controller_doc()))
    code = main(["analyze", "--controller", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert 0 < np.abs(np.array(_XREF) - doc["equilibrium"]["xstar"]).max() < 1e-6
    assert not doc["controller"]["synthesized"]
    assert code == 1
    assert [name for name, ok in doc["checks"].items() if not ok] == ["floor_budget_ok"]


def _scenario_doc() -> dict:
    return {"x0": [170.0] * 8, "horizon": 30,
            "disturbance": {"kind": "uniform", "seed": 3},
            "control": {"kind": "open-loop", "v": [25, 0, 0, 0, 12.5, 0, 0, 0]},
            "reference": list(_XREF)}


def _inline(edit):
    """A closed-loop scenario whose inline controller is `edit`ed."""
    def make(doc):
        doc["control"] = {"kind": "closed-loop", "controller": edit(_controller_doc())}
        return doc
    return make


def _closed_loop(edit):
    """The benchmark controller's closed loop, then `edit`: no inflow to check."""
    return lambda doc: edit(_inline(lambda ctrl: ctrl)(doc))


@pytest.mark.parametrize("edit, message", [
    (_set("horizon", value=2.5), "field 'horizon' must be a positive integer, got 2.5"),
    (_set("horizon", value=0), "field 'horizon' must be a positive integer, got 0"),
    (_set("disturbance", "seed", value=1.5),
     "disturbance field 'seed' must be a non-negative integer, got 1.5"),
    (_set("disturbance", "seed", value=-1),
     "disturbance field 'seed' must be a non-negative integer, got -1"),
    (_drop("disturbance", "kind"), "missing disturbance field(s) ['kind']"),
    (_set("disturbance", value={"kind": "constant", "d": [1, 0, 1]}),
     "disturbance field 'd' must be a list of 4 numbers"),
    (_set("x0", value=[170.0] * 7), "field 'x0' must be a list of 8 numbers"),
    (_set("reference", value=[55.0] * 9), "field 'reference' must be a list of 8 numbers"),
    (_set("control", "v", 4, value="12.5"),
     "control field 'v' entry 5 must be a finite number, got '12.5'"),
    (_drop("control"), "missing scenario field(s) ['control']"),
    (_set("step_seconds", value=15.0), "unknown scenario field(s) ['step_seconds']"),
    (_inline(_set("b", 0, value=float("nan"))),
     "control field 'controller': field 'b' entry 1 must be a finite number, got nan"),
    (_inline(_set("xstar", value=[55.0] * 7)),
     "control field 'controller': field 'xstar' must be a list of 8 numbers"),
    (_set("x0", 0, value=-1), "cell 1: density -1 outside [0, 170]"),
    (_set("x0", 7, value=170.5), "cell 8: density 170.5 outside [0, 170]"),
    (_set("control", "v", 1, value=-0.5), "cell 2: negative external inflow -0.5"),
    (_set("disturbance", value={"kind": "constant", "d": [1, 0, 1, 0.5]}),
     "disturbance coordinate d4 = 0.5 outside the uncertainty box [0.22, 0.3]"),
    # a closed loop fixes no inflow and a uniform disturbance no d: the rest is checked
    pytest.param(_closed_loop(_set("x0", 0, value=-1)), "cell 1: density -1 outside [0, 170]",
                 id="closed loop, x0 below 0"),
    pytest.param(_closed_loop(_set("x0", 2, value=170 + 2e-9)),
                 "cell 3: density 170 outside [0, 170]", id="closed loop, x0 past a"),
    pytest.param(_closed_loop(_set("disturbance",
                                   value={"kind": "constant", "d": [1, 0, 1, 0.5]})),
                 "disturbance coordinate d4 = 0.5 outside the uncertainty box [0.22, 0.3]",
                 id="closed loop, constant d out of its box"),
    pytest.param(_set("x0", 7, value=-2e-9), "cell 8: density -2e-09 outside [0, 170]",
                 id="uniform d, x0 below 0"),
])
def test_bad_scenario_files_exit_2(capsys, tmp_path, edit, message):
    path = tmp_path / "scenario.json"
    err = _bad_file(capsys, path, edit(_scenario_doc()),
                    "simulate", "--out", str(tmp_path), "--scenario")
    assert err == f"error: {path}: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("edit", [
    pytest.param(_closed_loop(_set("x0", 0, value=-1e-9)), id="closed loop, x0 at -STATE_TOL"),
    pytest.param(_closed_loop(_set("x0", 2, value=170 + 1e-9)),
                 id="closed loop, x0 at a + STATE_TOL"),
    pytest.param(_set("disturbance", value={"kind": "constant", "d": [1, 0, 1, 0.3 + 1e-12]}),
                 id="open loop, d4 at its bound + D_TOL"),
])
def test_scenario_read_admits_the_edges_of_the_box(capsys, tmp_path, edit):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(edit(_scenario_doc())))
    code, doc = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path))
    assert code == 0 and doc["horizon"] == 30


def _leaves(doc, at=()):
    """The key paths of every scalar in a parsed JSON document."""
    if not isinstance(doc, (dict, list)):
        return [at]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return [leaf for key, value in items for leaf in _leaves(value, at + (key,))]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Each kind of input file as a valid document, with the argv that reads it."""
    tmp = tmp_path_factory.mktemp("valid")
    save_network(presets.reference_network(), tmp / "net.json")
    save_diagrams(presets.reference_diagrams(), tmp / "dia.json")
    diagrams = json.loads((tmp / "dia.json").read_text())
    diagrams["cells"][0].update(_PIECEWISE)
    diagrams["cells"][1]["supply"]["wave"] = 0.25
    scenario = _inline(lambda doc: doc)(_scenario_doc())
    return {
        "network": (json.loads((tmp / "net.json").read_text()), ["validate", "--network"]),
        "diagrams": (diagrams, ["validate", "--diagrams"]),
        "controller": (_controller_doc(), ["analyze", "--controller"]),
        "scenario": (scenario, ["simulate", "--out", str(tmp), "--scenario"]),
    }


_WRONG = ["abc", True, False, None, float("nan"), float("inf"), -float("inf"),
          [1.0], {"x": 1.0}]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_wrongly_typed_value_exits_2_naming_the_file(valid_inputs, tmp_path_factory, data):
    """Any one scalar of a valid input file replaced by a wrongly typed JSON
    value (or by a fraction, in an integer field) exits 2 with one message
    that starts with the file's path."""
    kind = data.draw(st.sampled_from(sorted(valid_inputs)))
    doc, argv = valid_inputs[kind]
    at = data.draw(st.sampled_from(_leaves(doc)))
    wrong = _WRONG + [2.5] if at[-1] in ("n", "horizon", "seed") else _WRONG
    value = data.draw(st.sampled_from([v for v in wrong
                                       if not (at[-1] == "wave" and v is None)]))
    doc = copy.deepcopy(doc)
    _set(*at, value=value)(doc)
    path = tmp_path_factory.getbasetemp() / f"{kind}.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, str(path)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith(f"error: {path}: ")
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


def test_null_wave_is_accepted(capsys, tmp_path):
    path = tmp_path / "dia.json"
    save_diagrams(presets.reference_diagrams(), path)
    path.write_text(json.dumps(_set("cells", 0, "supply", "wave", value=None)(
        json.loads(path.read_text()))))
    code, doc = run_cli(capsys, "validate", "--diagrams", str(path))
    assert code == 0 and doc["ok"]


def test_analyze_names_the_cell_whose_box_collapses(capsys, tmp_path):
    spec, ds, v = mainline(16)
    net, dia = tmp_path / "net.json", tmp_path / "dia.json"
    save_network(spec, net)
    save_diagrams(ds, dia)
    code = main(["analyze", "--network", str(net), "--diagrams", str(dia),
                 "--vstar", ",".join(str(x) for x in v)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "cell 1: box width" in captured.err and "lost to rounding" in captured.err
    assert "Traceback" not in captured.err


def test_analyze_audits_each_distinct_curve_once(capsys, monkeypatch):
    audited = []
    real = cli.audit_demand_curve

    def counting(fd, **kw):
        audited.append(fd)
        return real(fd, **kw)

    monkeypatch.setattr(cli, "audit_demand_curve", counting)
    code, doc = run_cli(capsys, "analyze")
    demands = presets.reference_diagrams().demands
    assert code == 0
    assert len(audited) == len(set(demands)) < len(demands)
    by_curve = {fd: real(fd) for fd in set(demands)}
    assert doc["audits"]["demand"] == [
        {"cell": i + 1, "passed": by_curve[fd].passed, "L_hat": by_curve[fd].L_hat,
         "G_hat": by_curve[fd].G_hat, "fmin_hat": by_curve[fd].fmin_hat}
        for i, fd in enumerate(demands)]


# sha256 of the default-seed summary.json; the same under one BLAS thread and two
SUMMARY_SHA256 = "c54d452feff84519dd9aa570f0882ecb5ac9f232c608e10924f33c2341950dba"


def test_reproduce_writes_suite(capsys, tmp_path):
    code, doc = run_cli(capsys, "reproduce-paper", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "open_loop_congestion.csv").exists()
    closed = doc["scenarios"]["closed_loop_jam"]
    assert closed["terminal_deviation"] < 1.0
    assert closed["sigma_hat"] > 0
    # every byte of the default-seed CSVs, against the benchmark's digests
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert doc["seed"] == expected["reproduce_seed"]
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in expected["reproduce_csv_sha256"]}
    assert digests == expected["reproduce_csv_sha256"]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(digests)
    # summary.json too, whose max_mass_balance_error values no other test pins
    summary = hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest()
    assert summary == SUMMARY_SHA256


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_without_traceback(buffered):
    """`netstab analyze --seed 0 | head -1` with a reader gone before the
    first write: exit 141, nothing on stderr.  Unbuffered, the print meets
    the closed pipe; buffered, the output waits for the final flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "netstab.cli", "analyze", "--seed", "0"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_CLOSED_PIPE == 141
    assert err == b""


def _src_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def test_python_m_netstab_runs_the_command_line():
    proc = subprocess.run([sys.executable, "-m", "netstab", "validate"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)


def test_no_subcommand_loads_scipy_stats(tmp_path):
    """analyze, reproduce-paper, solve-uep and simulate, which draw Sobol'
    points or run the simulator, leave scipy.stats unimported."""
    scenario = tmp_path / "open.json"
    scenario.write_text(json.dumps(_scenario_doc()))
    runs = [["analyze", "--seed", "0"], ["reproduce-paper", "--out", str(tmp_path / "repro")],
            ["solve-uep"], ["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]]
    probe = ("import contextlib, io, json, sys\n"
             "from netstab import cli\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert cli.main(argv) == 0, argv\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
