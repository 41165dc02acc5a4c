import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netstab import presets
from netstab.diagrams import (DemandFunction, DiagramSet, Piece,
                              SupplyFunction, audit_demand_curve,
                              audit_supply_margin, d_corners, demand_all,
                              demand_batch, eval_demand, eval_supply,
                              load_diagrams, sample_uncertainty, save_diagrams,
                              supply_all, supply_batch, uniform_uncertainty)
from netstab.errors import DimensionError, DomainError

import oracles

D_BOX = st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
                  st.floats(0.22, 0.3))


def _cells(ref_ds):
    main = ref_ds.demands[0]
    ramp = ref_ds.demands[4]
    return main, ramp


def test_demand_matches_exact_arithmetic(ref_ds):
    """Float evaluation agrees with exact rational evaluation of the curves."""
    main, ramp = _cells(ref_ds)
    grid = np.concatenate([np.linspace(0, 170, 57), [27.5, 55.0, 55.00002]])
    for d in d_corners(ref_ds)[:, :]:
        for z in grid:
            want_main = float(oracles.demand_exact("main", d, z))
            want_ramp = float(oracles.demand_exact("ramp", d, z))
            assert eval_demand(main, d, z) == pytest.approx(want_main, abs=1e-10)
            assert eval_demand(ramp, d, z) == pytest.approx(want_ramp, abs=1e-10)


def test_supply_matches_exact_arithmetic(ref_ds):
    sf = ref_ds.supplies[0]
    for d4 in (0.22, 0.26, 0.3):
        d = np.array([0.5, 0.5, 0.5, d4])
        for z in np.linspace(0, 170, 35):
            assert eval_supply(sf, d, z) == pytest.approx(
                float(oracles.supply_exact(d4, z)), abs=1e-10)


def test_all_curves_meet_at_the_equilibrium(ref_ds):
    """Every blend passes through the same uncongested operating point."""
    main, ramp = _cells(ref_ds)
    for d in sample_uncertainty(ref_ds, 40):
        assert eval_demand(main, d, 55.0) == pytest.approx(25.0, abs=1e-9)
        assert eval_demand(ramp, d, 27.5) == pytest.approx(12.5, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(d=D_BOX)
def test_branch_monotonicity(d):
    ds = presets.reference_diagrams()
    main, ramp = _cells(ds)
    d = np.array(d)
    for fd in (main, ramp):
        zs = np.linspace(0.0, fd.delta, 200)
        vals = np.array([eval_demand(fd, d, z) for z in zs])
        assert np.all(np.diff(vals) > 0), "subcritical branch must increase"
        zo = np.linspace(fd.delta, fd.a, 200)
        over = np.array([eval_demand(fd, d, z) for z in zo])
        # the congested branch is not monotone, but it never dips below the floor
        assert over.min() >= fd.fmin - 1e-9


@settings(max_examples=30, deadline=None)
@given(d=D_BOX, z=st.floats(0, 170))
@example(d=(0.0, 1.0, 0.0, 0.22), z=5e-324)  # 0.7 * z rounds back to z here
def test_demand_bounds(d, z):
    ds = presets.reference_diagrams()
    d = np.array(d)
    for fd in _cells(ds):
        val = eval_demand(fd, d, z)
        assert 0.0 <= val
        if z > 0:
            assert val < z  # strictly fewer vehicles leave than are present


def test_densities_below_the_floor_are_empty(ref_ds):
    """Both demand evaluators give 0 below DEMAND_FLOOR, subnormals included."""
    X = np.array([[0.0, 5e-324, 1e-300, 0.999e-12, 1e-12, 1e-9, 55.0, 170.0]])
    D = np.array([[0.0, 1.0, 0.0, 0.22]])
    F = demand_batch(ref_ds, D, X)
    want = [eval_demand(fd, D[0], x) for fd, x in zip(ref_ds.demands, X[0])]
    np.testing.assert_array_equal(F[0], want)
    np.testing.assert_array_equal(F[0, :4], np.zeros(4))
    assert np.all(F[0, 4:] > 0) and np.all(F[0, 4:] < X[0, 4:])


def test_eval_demand_domain_checks(ref_ds):
    main, _ = _cells(ref_ds)
    with pytest.raises(DomainError):
        eval_demand(main, np.array([0.5, 0.5, 0.5, 0.25]), 171.0)
    with pytest.raises(DimensionError):
        eval_demand(main, np.array([0.5, 0.5]), 10.0)
    sf = ref_ds.supplies[0]
    with pytest.raises(DomainError):
        eval_supply(sf, np.array([0.5, 0.5, 0.5, 0.25]), -1.0)
    with pytest.raises(DimensionError):
        eval_supply(sf, np.array([0.5]), 10.0)
    for d4 in (np.nan, np.inf, 0.0, -0.25):
        with pytest.raises(DomainError, match="d4"):
            eval_supply(sf, np.array([0.5, 0.5, 0.5, d4]), 10.0)


def test_batch_evaluators_match_scalar_loop(ref_spec, ref_ds):
    rng = np.random.default_rng(3)
    N = 64
    D = uniform_uncertainty(ref_ds, N, rng)
    X = rng.uniform(0, 170, size=(N, ref_spec.n))
    F = demand_batch(ref_ds, D, X)
    G = supply_batch(ref_ds, D, X)
    for k in (0, 7, 31, 63):
        np.testing.assert_allclose(F[k], demand_all(ref_ds, D[k], X[k]),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(G[k], supply_all(ref_ds, D[k], X[k]),
                                   rtol=0, atol=1e-12)


def test_uncertainty_sampling(ref_ds):
    corners = d_corners(ref_ds)
    assert corners.shape == (16, 4)
    assert len(np.unique(corners, axis=0)) == 16
    S = sample_uncertainty(ref_ds, 100)
    assert S.shape == (100, 4)
    np.testing.assert_array_equal(S[:16], corners)
    assert np.all(S >= ref_ds.d_lo) and np.all(S <= ref_ds.d_hi)
    with pytest.raises(ValueError, match="m >= 16"):
        sample_uncertainty(ref_ds, 15)

    rng = np.random.default_rng(0)
    U = uniform_uncertainty(ref_ds, 50, rng)
    assert np.all(U >= ref_ds.d_lo) and np.all(U <= ref_ds.d_hi)


def test_min_supply_at_zero(ref_ds):
    np.testing.assert_allclose(ref_ds.min_supply_at_zero(),
                               np.full(8, 0.22 * 115.0), rtol=0, atol=1e-12)


def test_demand_audit_accepts_reference(ref_ds):
    for fd in ref_ds.demands:
        audit = audit_demand_curve(fd)
        assert audit.passed
        assert audit.L_hat >= fd.L - 1e-9
        assert audit.G_hat <= fd.G + 1e-9
        assert audit.fmin_hat >= fd.fmin - 1e-9


def test_demand_audit_rejects_wrong_declarations(ref_ds):
    main, ramp = _cells(ref_ds)
    assert not audit_demand_curve(replace(ramp, L=0.5)).passed
    assert not audit_demand_curve(replace(main, G=0.5)).passed
    assert not audit_demand_curve(replace(main, fmin=20.0)).passed


def test_supply_margin_audit(ref_spec, ref_ds):
    audit = audit_supply_margin(ref_spec, ref_ds)
    assert audit.passed
    # tightest cell is pinned at the uncongested ceiling, low supply corner
    assert audit.min_slack > -1e-4
    assert audit.worst_d[3] == pytest.approx(0.22)

    greedy = np.array(ref_spec.vmax)
    greedy[:] = 30.0  # demand that no supply corner can absorb
    import netstab.network as net
    bloated = net.NetworkSpec(n=ref_spec.n, a=ref_spec.a, P=ref_spec.P,
                              Qexit=ref_spec.Qexit, mu=ref_spec.mu,
                              vmax=greedy)
    assert not audit_supply_margin(bloated, ref_ds).passed


def test_piecewise_family_round_trip(tmp_path):
    tri = DemandFunction(
        family="piecewise", a=100.0, delta=40.0, delta_tilde=40.0,
        L=0.5, G=0.5, fmin=10.0,
        subcritical=(Piece(0.0, 40.0, (0.0, 0.5)),),
        overcritical=(Piece(40.0, 100.0, (23.0, -0.08)),),
    )
    assert eval_demand(tri, np.zeros(4), 20.0) == pytest.approx(10.0)
    assert eval_demand(tri, np.ones(4) * 0.3, 50.0) == pytest.approx(19.0)
    audit = audit_demand_curve(tri)
    assert audit.passed

    ds = DiagramSet(demands=(tri,), supplies=(SupplyFunction(qcap=50.0, a=100.0),),
                    d_lo=(0, 0, 0, 0.2), d_hi=(1, 1, 1, 0.3))
    path = tmp_path / "diagrams.json"
    save_diagrams(ds, path)
    again = load_diagrams(path)
    assert again.demands[0] == tri
    assert again.supplies[0].qcap == 50.0


def test_diagram_io_round_trip_and_schema(tmp_path, ref_ds):
    path = tmp_path / "ref.json"
    save_diagrams(ref_ds, path)
    again = load_diagrams(path)
    assert again.demands == ref_ds.demands
    assert again.supplies == ref_ds.supplies
    np.testing.assert_array_equal(again.d_lo, ref_ds.d_lo)
    np.testing.assert_array_equal(again.d_hi, ref_ds.d_hi)

    doc = json.loads(path.read_text())
    doc["cells"][0]["color"] = "red"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown"):
        load_diagrams(path)


def test_diagram_set_validation():
    with pytest.raises(ValueError, match="empty"):
        DiagramSet(demands=(), supplies=(), d_lo=(1, 0, 0, 0.3),
                   d_hi=(0, 1, 1, 0.2))
    for lo, hi, message in [((0, 0, 0, 0.22), (1, 1, 2, 0.3), "d3 hi = 2 is outside"),
                            ((-0.5, 0, 0, 0.22), (1, 1, 1, 0.3), "d1 lo = -0.5 is outside"),
                            ((0, 0, 0, 0), (1, 1, 1, 0.3), "d4 lo = 0 must be positive")]:
        with pytest.raises(ValueError, match=message):
            DiagramSet(demands=(), supplies=(), d_lo=lo, d_hi=hi)
    with pytest.raises(ValueError, match="family"):
        DemandFunction(family="triangular", a=100, delta=40, delta_tilde=40,
                       L=0.5, G=0.5, fmin=10)
    with pytest.raises(ValueError):
        DemandFunction(family="freeway-main", a=170, delta=55, delta_tilde=55,
                       L=0.7, G=0.2, fmin=10)  # L > G
    with pytest.raises(ValueError):
        SupplyFunction(qcap=-5.0, a=100.0)


def test_import_leaves_scipy_stats_unloaded():
    """`import netstab` does not load scipy.stats (about 1 s of import time);
    netstab draws its Sobol' points itself, so no command loads it either."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import netstab; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
