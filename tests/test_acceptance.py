"""The twelve acceptance checks, one test (and one summary line) each.

Mass-balance accumulators from the trajectory criteria feed the conservation
check; run the file as a whole to exercise it over every recorded run.
"""

import numpy as np
import pytest

import netstab
from netstab import presets
from netstab.control import control_law
from netstab.diagrams import (audit_demand_curve, audit_supply_margin,
                              d_corners, sample_uncertainty,
                              uniform_uncertainty, _philox)
from netstab.dynamics import step
from netstab.harness import (ControlSpec, DisturbanceSpec, ScenarioConfig,
                             estimate_decay, mass_balance_residuals,
                             run_scenario)
from netstab.stability import (build_gamma, contraction_check, spectral_radius,
                               weights_r, weights_xi)

from conftest import record_acceptance
import oracles


def _line(ok: bool, text: str) -> str:
    return ("[PASS] " if ok else "[FAIL] ") + text


def test_c01_uncongested_equilibrium(ref_eq):
    dx = float(np.max(np.abs(ref_eq.xstar - oracles.XSTAR)))
    df = float(np.max(np.abs(ref_eq.flows - oracles.EQ_FLOWS)))
    ok = dx <= 1e-6 and df <= 1e-8
    line = _line(ok, f"c01 equilibrium: |dx|={dx:.2e} (tol 1e-6), "
                     f"|dflow|={df:.2e} (tol 1e-8)")
    record_acceptance(line)
    assert ok, line


def test_c02_fixed_point_for_all_disturbances(ref_spec, ref_ds, ref_eq):
    D = sample_uncertainty(ref_ds, 100)
    worst = 0.0
    for d in D:
        x_next, _ = step(ref_spec, ref_ds, ref_eq.xstar, ref_eq.vstar, d)
        worst = max(worst, float(np.max(np.abs(x_next - ref_eq.xstar))))
    ok = worst <= 1e-9
    line = _line(ok, f"c02 fixed point: worst |step(x*)-x*|={worst:.2e} "
                     f"over 100 d incl 16 corners (tol 1e-9)")
    record_acceptance(line)
    assert ok, line


def test_c03_spectral_radius(ref_ds, ref_cert):
    L = np.array([fd.L for fd in ref_ds.demands])
    structural = float(np.max(1.0 - L))
    iterated = spectral_radius(ref_cert.Gamma)
    e_s = abs(structural - 0.991)
    e_i = abs(iterated - 0.991)

    rng = np.random.default_rng(33)
    rho_max = 0.0
    for _ in range(100):
        P, Lr, Gr = oracles.random_acyclic_instance(rng)
        n = len(Lr)
        vstar = rng.uniform(0, 30, n)
        b = rng.uniform(0, 1, n) * vstar
        K = rng.uniform(0, 2.0 / n, (n, n))
        _, rho = build_gamma(oracles.spec_of(P), Lr, Gr, vstar, b, K,
                             float(rng.uniform(0.1, 0.9)))
        rho_max = max(rho_max, rho)

    ok = e_s <= 1e-9 and e_i <= 1e-9 and rho_max < 1.0
    line = _line(ok, f"c03 spectral radius: structural err {e_s:.1e}, "
                     f"iterated err {e_i:.1e} (tol 1e-9); "
                     f"max rho over 100 random instances {rho_max:.4f} < 1")
    record_acceptance(line)
    assert ok, line


def test_c04_open_loop_congestion(ref_spec, ref_ds, ref_eq, congestion_d,
                                  mass_audit):
    cfg = ScenarioConfig(
        x0=np.array(ref_spec.a), horizon=450,
        disturbance=DisturbanceSpec(kind="constant", d=congestion_d),
        control=ControlSpec(kind="open-loop", v=ref_eq.vstar),
        reference=ref_eq.xstar)
    rec = run_scenario(ref_spec, ref_ds, cfg)
    mass_audit["c4"] = float(mass_balance_residuals(rec).max())

    dev = float(rec.deviation[-1])
    deficit4 = 25.0 - float(rec.flows[-1].attempted_demand[3])
    deficit8 = 25.0 - float(rec.flows[-1].attempted_demand[7])
    ok = (abs(dev - 125.5) <= 2.0 and abs(deficit4 - 7.4) <= 0.3
          and abs(deficit8 - 4.9) <= 0.3)
    line = _line(ok, f"c04 open-loop congestion: deviation {dev:.2f} "
                     f"(125.5±2), deficits {deficit4:.2f} (7.4±0.3) / "
                     f"{deficit8:.2f} (4.9±0.3) at t={rec.horizon}<=500")
    record_acceptance(line)
    assert ok, line


def test_c05_closed_loop_benchmark(ref_spec, ref_ds, bench_ctrl, mass_audit):
    worst_mass = 0.0
    results = []
    for k, x0 in enumerate(presets.benchmark_initial_states()):
        cfg = ScenarioConfig(
            x0=x0, horizon=500,
            disturbance=DisturbanceSpec(kind="uniform", seed=k),
            control=ControlSpec(kind="closed-loop", controller=bench_ctrl))
        rec = run_scenario(ref_spec, ref_ds, cfg)
        worst_mass = max(worst_mass, float(mass_balance_residuals(rec).max()))
        below = np.nonzero(rec.deviation < 1.0)[0]
        fit = estimate_decay(rec, burn_in=50)
        results.append((len(below) > 0 and int(below[0]) <= 500,
                        fit.sigma_hat > 0,
                        int(below[0]) if len(below) else -1, fit.sigma_hat))
    mass_audit["c5"] = worst_mass
    ok = all(hit and decays for hit, decays, _, _ in results)
    times = ", ".join(str(t) for _, _, t, _ in results)
    sigmas = ", ".join(f"{s:.3f}" for _, _, _, s in results)
    line = _line(ok, f"c05 closed-loop benchmark: <1 veh at t=[{times}] "
                     f"(all <=500), sigma_hat=[{sigmas}] all > 0")
    record_acceptance(line)
    assert ok, line


def test_c06_trapping_bound(ref_spec, ref_ds, ref_cert, mass_audit):
    ctrl = ref_cert.controller
    beta = ref_cert.beta
    m = ref_cert.m
    assert m is not None
    horizon = 220
    rng = _philox(606)
    starts = [np.array(ref_spec.a)]  # include the worst case explicitly
    starts += [rng.uniform(0.0, ref_spec.a) for _ in range(999)]

    worst_entry = -1
    stay_violations = 0
    never_entered = 0
    worst_mass = 0.0
    for x0 in starts:
        x = x0.copy()
        D = uniform_uncertainty(ref_ds, horizon, rng)
        entered = 0 if bool(np.all(x <= beta + 1e-12)) else None
        for t in range(1, horizon + 1):
            v = control_law(ctrl, x)
            total0 = x.sum()
            x, fb = step(ref_spec, ref_ds, x, v, D[t - 1])
            res = abs(x.sum() - total0 - (fb.w * v).sum() + fb.exit.sum())
            worst_mass = max(worst_mass, res)
            inside = bool(np.all(x <= beta + 1e-12))
            if entered is None:
                if inside:
                    entered = t
            elif not inside:
                stay_violations += 1
        if entered is None:
            never_entered += 1
        else:
            worst_entry = max(worst_entry, entered)
    mass_audit["c6"] = worst_mass

    ok = never_entered == 0 and stay_violations == 0 and worst_entry <= m
    line = _line(ok, f"c06 trapping: 1000 runs entered the box by "
                     f"t={worst_entry} (bound m={m}), exits after entry: "
                     f"{stay_violations}")
    record_acceptance(line)
    assert ok, line


def test_c07_contraction(ref_spec, ref_ds, ref_cert):
    report = contraction_check(ref_spec, ref_ds, ref_cert.controller, ref_cert,
                               n_samples=10_000, seed=7)
    assert report.tol == 1e-9
    ok = report.passed
    line = _line(ok, f"c07 contraction: max componentwise violation "
                     f"{report.max_violation:.2e} over 10^4 samples (tol 1e-9)")
    record_acceptance(line)
    assert ok, line


def test_c08_saturation(ref_spec, ref_ds, ref_cert):
    ctrl = ref_cert.controller
    beta = ref_cert.beta
    rng = _philox(808)
    checked = 0
    mismatches = 0
    while checked < 10_000:
        X = rng.uniform(0.0, ref_spec.a, size=(12_000, ref_spec.n))
        X = X[np.any(X > beta, axis=1)]
        for x in X[:10_000 - checked]:
            if not np.array_equal(control_law(ctrl, x), ctrl.b):
                mismatches += 1
        checked += min(len(X), 10_000 - checked)
    ok = mismatches == 0
    line = _line(ok, f"c08 saturation: {mismatches} of 10^4 states outside "
                     f"the box returned anything but the floor (exact match)")
    record_acceptance(line)
    assert ok, line


def test_c09_gridlock():
    spec3, ds3 = presets.three_cell_cycle()
    report = netstab.gridlock_demo(spec3, ds3, horizon=1000, seed=9)
    ok = report.max_drift == 0.0
    line = _line(ok, f"c09 gridlock: cycle density drift {report.max_drift} "
                     f"over 1000 steps (must be exactly 0)")
    record_acceptance(line)
    assert ok, line


def test_c10_conservation(ref_spec, ref_ds, ref_eq, congestion_d, mass_audit):
    # standalone fallback: regenerate a small slice of the earlier criteria
    if "c4" not in mass_audit:
        cfg = ScenarioConfig(
            x0=np.array(ref_spec.a), horizon=100,
            disturbance=DisturbanceSpec(kind="constant", d=congestion_d),
            control=ControlSpec(kind="open-loop", v=ref_eq.vstar),
            reference=ref_eq.xstar)
        mass_audit["c4"] = float(
            mass_balance_residuals(run_scenario(ref_spec, ref_ds, cfg)).max())
    if "c5" not in mass_audit:
        ctrl = presets.experiment_controller(ref_eq.xstar)
        cfg = ScenarioConfig(
            x0=presets.benchmark_initial_states()[0], horizon=120,
            disturbance=DisturbanceSpec(kind="uniform", seed=0),
            control=ControlSpec(kind="closed-loop", controller=ctrl))
        mass_audit["c5"] = float(
            mass_balance_residuals(run_scenario(ref_spec, ref_ds, cfg)).max())
    if "c6" not in mass_audit:
        cert = netstab.certify(ref_spec, ref_ds, ref_eq, n_gamma_samples=4096)
        rng = _philox(1010)
        worst = 0.0
        for _ in range(25):
            x = rng.uniform(0.0, ref_spec.a)
            D = uniform_uncertainty(ref_ds, 80, rng)
            for t in range(80):
                v = control_law(cert.controller, x)
                total0 = x.sum()
                x, fb = step(ref_spec, ref_ds, x, v, D[t])
                worst = max(worst,
                            abs(x.sum() - total0 - (fb.w * v).sum()
                                + fb.exit.sum()))
        mass_audit["c6"] = worst

    worst = max(mass_audit.values())
    ok = worst < 1e-9
    line = _line(ok, f"c10 conservation: worst per-step residual over the "
                     f"criterion 4-6 trajectories {worst:.2e} (tol 1e-9)")
    record_acceptance(line)
    assert ok, line


def test_c11_weight_rules(ref_spec, ref_ds):
    r = weights_r(ref_spec)
    L = np.array([fd.L for fd in ref_ds.demands])
    G = np.array([fd.G for fd in ref_ds.demands])
    xi = weights_xi(ref_spec, L, G)
    margin_r = float((r - ref_spec.P @ r).min())
    margin_xi = float((L * xi - ref_spec.P.T @ (G * xi)).min())

    rng = np.random.default_rng(1111)
    for _ in range(100):
        P, Lr, Gr = oracles.random_acyclic_instance(rng)
        spec = oracles.spec_of(P)
        rr = weights_r(spec)
        xr = weights_xi(spec, Lr, Gr)
        margin_r = min(margin_r, float((rr - P @ rr).min()))
        margin_xi = min(margin_xi, float((Lr * xr - P.T @ (Gr * xr)).min()))

    ok = margin_r > 0 and margin_xi > 0
    line = _line(ok, f"c11 weight rules: strict margins over benchmark + 100 "
                     f"random nets: routing {margin_r:.3g}, excess {margin_xi:.3g}")
    record_acceptance(line)
    assert ok, line


def test_c12_assumption_audits(ref_spec, ref_ds):
    demand_ok = []
    for fd in ref_ds.demands:
        audit = audit_demand_curve(fd)
        declared = (fd.L, fd.G, fd.fmin) in ((0.2, 0.71, 10.0), (0.009, 0.9, 10.0))
        demand_ok.append(audit.passed and declared and fd.delta == 55 + 2e-5)
    supply = audit_supply_margin(ref_spec, ref_ds)
    ok = all(demand_ok) and supply.passed
    line = _line(ok, f"c12 audits: demand curves {sum(demand_ok)}/8 pass with "
                     f"declared constants; supply margin min slack "
                     f"{supply.min_slack:.2e} (tol -1e-4)")
    record_acceptance(line)
    assert ok, line
