import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netstab import diagrams, presets
from netstab.diagrams import (DemandFunction, DiagramSet, Piece,
                              SupplyFunction, _philox, audit_demand_curve,
                              audit_supply_margin, d_corners, demand_all,
                              demand_batch, eval_demand, eval_supply,
                              inflow_caps, load_diagrams, save_diagrams, supply_all,
                              supply_batch, uniform_uncertainty)
from netstab.errors import DimensionError, DomainError
from netstab.network import NetworkSpec

import oracles
from test_curve_table import PIECEWISE, _random_net

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
    for d in np.vstack([d_corners(ref_ds), uniform_uncertainty(ref_ds, 24, _philox(0))]):
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
    # the sampled cross-check draws the corners first, then Sobol' points
    S = oracles.sample_uncertainty(ref_ds, 100)
    assert S.shape == (100, 4)
    np.testing.assert_array_equal(S[:16], corners)
    assert np.all(S >= ref_ds.d_lo) and np.all(S <= ref_ds.d_hi)
    with pytest.raises(ValueError, match="m >= 16"):
        oracles.sample_uncertainty(ref_ds, 15)

    rng = np.random.default_rng(0)
    U = uniform_uncertainty(ref_ds, 50, rng)
    assert np.all(U >= ref_ds.d_lo) and np.all(U <= ref_ds.d_hi)


def test_inflow_caps(ref_spec, ref_ds):
    """The least of vmax and the empty cell's supply at the low d4 corner,
    0.22 * 115: vmax binds on the benchmark, the supply once vmax is 100."""
    np.testing.assert_array_equal(inflow_caps(ref_spec, ref_ds), ref_spec.vmax)
    wide = replace(ref_spec, vmax=np.full(8, 100.0))
    np.testing.assert_allclose(inflow_caps(wide, ref_ds), np.full(8, 0.22 * 115.0),
                               rtol=0, atol=1e-12)


def test_demand_audit_accepts_reference(ref_ds):
    for fd in ref_ds.demands:
        audit = audit_demand_curve(fd)
        assert audit.passed
        assert audit.L_hat >= fd.L - 1e-9
        assert audit.G_hat <= fd.G + 1e-9
        assert audit.fmin_hat >= fd.fmin - 1e-9
    # the exact extremes: the B branch's slope at 0 and at delta, the on-ramp
    # A branch's slope at its knee and at 0, the phi6 branch at jam
    main, ramp = _cells(ref_ds)
    exact = {main: (0.2, 0.2 + 28 / 3025 * presets.DELTA), ramp: (1 / 110, 0.9)}
    for fd, (L, G) in exact.items():
        audit = audit_demand_curve(fd)
        assert audit.L_hat == pytest.approx(L, abs=1e-12)
        assert audit.G_hat == pytest.approx(G, abs=1e-12)
        assert audit.fmin_hat == pytest.approx(10.0, abs=1e-12)


def test_demand_audit_rejects_wrong_declarations(ref_ds):
    main, ramp = _cells(ref_ds)
    assert not audit_demand_curve(replace(ramp, L=0.5)).passed
    assert not audit_demand_curve(replace(main, G=0.5)).passed
    assert not audit_demand_curve(replace(main, fmin=20.0)).passed
    # declarations within the sampled audit's grid error, which it accepted:
    # the true least ramp slope is 1/110, the true greatest main slope 0.709091
    # and the least main slope 0.2
    assert not audit_demand_curve(replace(ramp, L=0.012)).passed
    assert not audit_demand_curve(replace(main, G=0.7087)).passed
    assert not audit_demand_curve(replace(main, L=0.2004)).passed
    # f(0) = 0.01, so f(z) > z below z = 0.02, between the sampled grid's points
    lifted = DemandFunction(
        family="piecewise", a=100.0, delta=40.0, delta_tilde=40.0,
        L=0.5, G=0.7, fmin=10.0,
        subcritical=(Piece(0.0, 40.0, (0.01, 0.5)),),
        overcritical=(Piece(40.0, 100.0, (23.0, -0.08)),),
    )
    audit = audit_demand_curve(lifted)
    assert not audit.strict_bound_ok and not audit.passed


def test_demand_audit_reads_jumps_and_gaps():
    """A jump between pieces is an infinite slope; a gap is a DomainError."""
    up = audit_demand_curve(PIECEWISE)  # 15 below its seam at 30, 17.1 above
    assert up.monotone_ok and up.G_hat == np.inf and not up.passed
    down = replace(PIECEWISE, subcritical=(Piece(0.0, 30.0, (0.0, 0.5)),
                                           Piece(30.0, presets.DELTA, (-3.0, 0.5))))
    audit = audit_demand_curve(down)
    assert not audit.monotone_ok and audit.L_hat == -np.inf and not audit.passed
    gap = replace(PIECEWISE, subcritical=(Piece(0.0, 30.0, (0.0, 0.5)),
                                          Piece(31.0, presets.DELTA, (0.0, 0.5))))
    with pytest.raises(DomainError, match="covers density 30.5"):
        audit_demand_curve(gap)


def _random_poly(rng, degree, scale, start, value):
    """Ascending coefficients of a random polynomial through (start, value)."""
    c = [0.0] + [rng.uniform(-1, 1) / scale ** (k - 1) for k in range(1, degree + 1)]
    c[1] = abs(c[1])
    c[0] = value - np.polynomial.polynomial.polyval(start, c)
    return tuple(c)


def _random_branch(rng, lo, hi, value):
    """Continuous random polynomial pieces covering [lo, hi], through (lo, value)."""
    ends = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, rng.integers(0, 3))]))
    pieces = []
    for u, w in zip(ends, ends[1:]):
        c = _random_poly(rng, int(rng.integers(1, 4)), hi, u, value)
        pieces.append(Piece(u, w, c))
        value = np.polynomial.polynomial.polyval(w, c)
    return tuple(pieces)


def _assert_exact_bounds_sampled(fd):
    exact, sampled = audit_demand_curve(fd), oracles.audit_demand_curve_sampled(fd)
    assert exact.L_hat <= sampled.L_hat + 1e-9
    assert exact.G_hat >= sampled.G_hat - 1e-9
    assert exact.fmin_hat <= sampled.fmin_hat + 1e-9
    assert sampled.passed or not exact.passed
    return exact


def test_exact_demand_audit_bounds_the_sampled_one(monkeypatch):
    """The exact extremes are at least as extreme as the sampled ones, on
    random piecewise curves and random built-in-shaped quadratics."""
    rng = np.random.default_rng(19)
    passed = 0
    for _ in range(60):
        delta = rng.uniform(10.0, 60.0)
        a = delta + rng.uniform(10.0, 120.0)
        shape = dict(a=a, delta=delta, delta_tilde=rng.uniform(0.3, 1.0) * delta,
                     L=0.05, G=0.95, fmin=1.0)
        sub = _random_branch(rng, 0.0, delta, 0.0)
        end = np.polynomial.polynomial.polyval(delta, sub[-1].coeffs)
        over = _random_branch(rng, delta, a, end)
        passed += _assert_exact_bounds_sampled(DemandFunction(
            family="piecewise", subcritical=sub, overcritical=over, **shape)).passed

        # the built-in A and B branches as random quadratics, A with a knee
        # (c2, c1, c0) with c0 None through the origin
        knee = rng.uniform(0.2, 0.8) * delta
        below, other = (_random_poly(rng, 2, delta, 0.0, 0.0) for _ in range(2))
        above = _random_poly(rng, 2, delta, knee,
                             np.polynomial.polynomial.polyval(knee, below))
        branches = ((knee, (below[2], below[1], None), above[::-1]),
                    (None, (other[2], other[1], None), None))
        monkeypatch.setitem(diagrams._FAMILY_BRANCHES, "freeway-main", branches)
        _assert_exact_bounds_sampled(DemandFunction(family="freeway-main", **shape))
    assert passed  # some random curves pass, so the pass direction is exercised


def test_exact_supply_margin_bounds_the_sampled_one():
    """On random nets with mu <= delta the corner slack at x = mu is the
    least: no sampled (x, d) finds less."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        net, ds = _random_net(rng)
        delta = np.array([fd.delta for fd in ds.demands])
        spec = NetworkSpec(n=net.n, a=net.a, P=net.P, Qexit=net.Qexit,
                           mu=rng.uniform(0.05, 1.0, net.n) * delta, vmax=net.vmax)
        exact = audit_supply_margin(spec, ds)
        sampled = oracles.audit_supply_margin_sampled(spec, ds)
        assert exact.min_slack <= sampled.min_slack + 1e-12
        assert sampled.passed or not exact.passed


def test_supply_margin_audit(ref_spec, ref_ds):
    audit = audit_supply_margin(ref_spec, ref_ds)
    assert audit.passed
    # tightest cell is pinned at the uncongested ceiling, low supply corner
    # (bit for bit under one BLAS thread: it rests on how F @ P is split)
    assert audit.min_slack == -1.124545306296909e-05
    assert audit.worst_cell == 6
    np.testing.assert_array_equal(audit.worst_d, [0.0, 1.0, 0.0, 0.22])

    greedy = np.array(ref_spec.vmax)
    greedy[:] = 30.0  # demand that no supply corner can absorb
    import netstab.network as net
    bloated = net.NetworkSpec(n=ref_spec.n, a=ref_spec.a, P=ref_spec.P,
                              Qexit=ref_spec.Qexit, mu=ref_spec.mu,
                              vmax=greedy)
    assert not audit_supply_margin(bloated, ref_ds).passed


def test_supply_margin_audit_refuses_mu_above_delta(ref_spec, ref_ds):
    """Past delta a demand may fall with x, so x = mu need not be the worst
    case: such a cell fails the audit, even with room to spare at x = mu."""
    mu = ref_spec.mu.copy()
    mu[2] = 60.0
    spec = NetworkSpec(n=ref_spec.n, a=ref_spec.a, P=ref_spec.P,
                       Qexit=ref_spec.Qexit, mu=mu, vmax=ref_spec.vmax)
    audit = audit_supply_margin(spec, ref_ds)
    assert not audit.passed and audit.worst_cell == 2


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
