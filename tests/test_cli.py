import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from netstab import cli, presets
from netstab.cli import main
from netstab.control import load_controller
from netstab.diagrams import save_diagrams
from netstab.network import save_network

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


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
    cfg = load_controller(tmp_path / "controller.json")
    np.testing.assert_allclose(cfg.b, doc["b"], rtol=0, atol=0)
    assert cfg.tau == 0.5
    assert np.all(cfg.b[np.array([0, 4])] > 0)


def test_analyze_emits_a_full_certificate(capsys, tmp_path):
    code, doc = run_cli(capsys, "analyze", "--out", str(tmp_path))
    assert code == 0
    assert doc["ok"]
    assert doc["comparison"]["rho"] == pytest.approx(0.991, abs=1e-9)
    assert doc["checks"]["contraction_ok"]
    assert doc["trapping_steps"] > 0
    assert len(doc["audits"]["demand"]) == 8
    saved = json.loads((tmp_path / "certificate.json").read_text())
    assert saved["comparison"]["rho"] == doc["comparison"]["rho"]


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


def _drop(*keys):
    def edit(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
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
])
def test_bad_diagram_files_exit_2(capsys, tmp_path, edit, message):
    path = tmp_path / "dia.json"
    save_diagrams(presets.reference_diagrams(), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    err = _input_error(capsys, "analyze", "--diagrams", str(path))
    assert f"{path}: {message}" in err


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
    by_curve = {fd: real(fd, seed=0) for fd in set(demands)}
    assert doc["audits"]["demand"] == [
        {"cell": i + 1, "passed": by_curve[fd].passed, "L_hat": by_curve[fd].L_hat,
         "G_hat": by_curve[fd].G_hat, "fmin_hat": by_curve[fd].fmin_hat}
        for i, fd in enumerate(demands)]


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
