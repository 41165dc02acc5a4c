import csv
import json
import math

import numpy as np
import pytest

from netstab import presets
from netstab.errors import MisuseError
from netstab.harness import (ControlSpec, DisturbanceSpec, ScenarioConfig,
                             TrajectoryRecord, estimate_decay, export_csv,
                             gridlock_demo, mass_balance_residuals,
                             reproduce_suite, run_scenario)


def _record_with_deviation(dev):
    dev = np.asarray(dev, dtype=float)
    T = len(dev) - 1
    z = np.zeros((T + 1, 1))
    return TrajectoryRecord(states=z, inflows=z, flows=(),
                            disturbances=np.zeros((T, 4)), deviation=dev,
                            lyapunov=np.zeros((T + 1, 2)), xref=np.zeros(1))


def _open_loop(horizon, seed=0):
    return ScenarioConfig(
        x0=presets.reference_vstar() * 2.0 + 10.0, horizon=horizon,
        disturbance=DisturbanceSpec(kind="uniform", seed=seed),
        control=ControlSpec(kind="open-loop", v=presets.reference_vstar()))


def test_run_scenario_shapes_and_determinism(ref_spec, ref_ds):
    cfg = _open_loop(25, seed=11)
    rec1 = run_scenario(ref_spec, ref_ds, cfg)
    rec2 = run_scenario(ref_spec, ref_ds, cfg)
    assert rec1.states.shape == (26, 8)
    assert rec1.inflows.shape == (26, 8)
    assert len(rec1.flows) == 25
    assert rec1.disturbances.shape == (25, 4)
    assert rec1.horizon == 25
    np.testing.assert_array_equal(rec1.states, rec2.states)
    np.testing.assert_array_equal(rec1.disturbances, rec2.disturbances)


def test_scenario_validation(ref_spec, ref_ds):
    with pytest.raises(ValueError, match="horizon"):
        _open_loop(0)
    with pytest.raises(ValueError, match="disturbance"):
        DisturbanceSpec(kind="gaussian")
    with pytest.raises(ValueError, match="needs d"):
        DisturbanceSpec(kind="constant")
    with pytest.raises(ValueError, match="controller"):
        ControlSpec(kind="closed-loop")


def test_closed_loop_uses_reference_from_controller(ref_spec, ref_ds, ref_eq,
                                                    bench_ctrl):
    cfg = ScenarioConfig(
        x0=np.full(8, 80.0), horizon=30,
        disturbance=DisturbanceSpec(kind="uniform", seed=2),
        control=ControlSpec(kind="closed-loop", controller=bench_ctrl))
    rec = run_scenario(ref_spec, ref_ds, cfg)
    np.testing.assert_array_equal(rec.xref, ref_eq.xstar)
    assert rec.deviation[0] == pytest.approx(
        float(np.linalg.norm(np.full(8, 80.0) - ref_eq.xstar)))


def test_estimate_decay_recovers_a_known_rate():
    dev = 2.0 ** -np.arange(40, dtype=float)
    fit = estimate_decay(_record_with_deviation(dev))
    assert fit.sigma_hat == pytest.approx(math.log(2.0), rel=1e-9)
    assert fit.M_hat == pytest.approx(1.0, rel=1e-9)
    assert fit.residual < 1e-12
    assert not fit.converged_immediately


def test_estimate_decay_burn_in_and_floor():
    dev = np.concatenate([np.full(10, 7.0), 5.0 * np.exp(-0.25 * np.arange(50))])
    fit = estimate_decay(_record_with_deviation(dev), burn_in=10)
    assert fit.sigma_hat == pytest.approx(0.25, rel=1e-9)

    flat = _record_with_deviation(np.zeros(20))
    fit = estimate_decay(flat)
    assert fit.converged_immediately
    assert fit.sigma_hat == math.inf and fit.M_hat == 0.0


def test_estimate_decay_flags_non_decaying_runs():
    plateau = _record_with_deviation(np.full(60, 125.5))
    fit = estimate_decay(plateau, burn_in=5)
    assert abs(fit.sigma_hat) < 1e-12
    assert not fit.converged_immediately
    growing = _record_with_deviation(np.exp(0.1 * np.arange(60)))
    assert estimate_decay(growing).sigma_hat == pytest.approx(-0.1, rel=1e-9)


def test_mass_balance_residuals_are_tiny(ref_spec, ref_ds):
    rec = run_scenario(ref_spec, ref_ds, _open_loop(40, seed=5))
    res = mass_balance_residuals(rec)
    assert res.shape == (40,)
    assert res.max() < 1e-10


def test_export_csv_round_trips(tmp_path, ref_spec, ref_ds):
    rec = run_scenario(ref_spec, ref_ds, _open_loop(12, seed=9))
    path = tmp_path / "run.csv"
    export_csv(rec, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["t", "x_1", "x_2"]
    assert rows[0][-1] == "V_16"
    assert len(rows) == 14  # header + horizon + 1 states
    got = np.array([float(v) for v in rows[3][1:9]])
    np.testing.assert_allclose(got, rec.states[2], rtol=1e-14)
    # byte-determinism: a second export is identical
    path2 = tmp_path / "run2.csv"
    export_csv(rec, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_gridlock_demo_locks_the_cycle():
    spec3, ds3 = presets.three_cell_cycle()
    rep = gridlock_demo(spec3, ds3, horizon=200, seed=4)
    assert rep.max_drift == 0.0
    assert sorted(rep.cycle) == [0, 1, 2]
    np.testing.assert_array_equal(rep.final_state[list(rep.cycle)],
                                  spec3.a[list(rep.cycle)])

    back = presets.reference_with_backedge()
    rep2 = gridlock_demo(back, presets.reference_diagrams(), horizon=50, seed=4)
    assert rep2.max_drift == 0.0


def test_gridlock_demo_rejects_acyclic_networks(ref_spec, ref_ds):
    with pytest.raises(MisuseError, match="acyclic"):
        gridlock_demo(ref_spec, ref_ds, horizon=10)


@pytest.mark.parametrize("horizon", [0, -5])
def test_gridlock_demo_refuses_a_horizon_below_one(horizon):
    with pytest.raises(ValueError, match="horizon"):
        gridlock_demo(*presets.three_cell_cycle(), horizon=horizon)


def test_reproduce_suite_writes_artifacts(tmp_path):
    summary = reproduce_suite(tmp_path, seed=1, horizon=40)
    names = {"open_loop_congestion", "closed_loop_jam", "closed_loop_heavy",
             "closed_loop_mixed", "closed_loop_light"}
    assert set(summary["scenarios"]) == names
    for name in names:
        assert (tmp_path / f"{name}.csv").exists()
        entry = summary["scenarios"][name]
        assert entry["max_mass_balance_error"] < 1e-9
        assert entry["horizon"] == 40
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["scenarios"].keys() == summary["scenarios"].keys()
    assert on_disk["seed"] == 1
