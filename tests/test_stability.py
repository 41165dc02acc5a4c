import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from netstab import network, presets, stability
from netstab.control import ControllerConfig
from netstab.diagrams import DiagramSet
from netstab.equilibrium import solve_uep
from netstab.errors import (DimensionError, NumericalError, StructuralError,
                            TrappingInfeasible)
from netstab.network import NetworkSpec, find_cycle
from netstab.stability import (CONTRACTION_CHUNK, build_gamma, certify,
                               contraction_check, drain_constants, invariant_region,
                               lyapunov_eval, spectral_radius, trapping_bound,
                               weights_r, weights_xi)

import oracles
from test_curve_table import _corridor


def _ref_slopes(ref_ds):
    L = np.array([fd.L for fd in ref_ds.demands])
    G = np.array([fd.G for fd in ref_ds.demands])
    return L, G


def test_weights_match_hand_values(ref_spec, ref_ds):
    r = weights_r(ref_spec)
    np.testing.assert_array_equal(r, oracles.R_WEIGHTS)
    L, G = _ref_slopes(ref_ds)
    xi = weights_xi(ref_spec, L, G)
    np.testing.assert_allclose(xi, oracles.XI_WEIGHTS, rtol=1e-9)


def test_weight_rules_hold_strictly_on_random_networks():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        P, L, G = oracles.random_acyclic_instance(rng)
        spec = oracles.spec_of(P)
        r = weights_r(spec)
        assert np.all(P @ r < r)
        xi = weights_xi(spec, L, G)
        assert np.all(L * xi > P.T @ (G * xi))


def _chain(order):
    """A single mainline through the cells in `order`."""
    n = len(order)
    P = np.zeros((n, n))
    P[order[:-1], order[1:]] = 1.0
    return P


@pytest.mark.parametrize("order, cell, power", [("forward", 1, 1099),
                                                ("reversed", 1025, 1024)])
def test_weight_overflow_is_a_typed_error_naming_the_cell(order, cell, power):
    """Halving weights 2^(n-1-rank) overflow float64 on an 1,100-cell chain.
    No RuntimeWarning and no inf weights: NumericalError names the first
    (lowest-numbered) cell whose weight overflows."""
    n = 1100
    P = _chain(np.arange(n) if order == "forward" else np.arange(n)[::-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = rf"^cell {cell}: weight 2\^{power} overflows"
        with pytest.raises(NumericalError, match=message) as exc:
            weights_r(oracles.spec_of(P))
    assert exc.value.cell == cell - 1
    r = weights_r(oracles.spec_of(_chain(np.arange(1024))))  # the longest chain that fits
    assert np.isfinite(r).all() and r[0] == 2.0 ** 1023


def _freeway_copies(copies, seed):
    """`copies` disjoint benchmark freeways, cells relabelled by a seeded permutation."""
    spec8, ds8 = presets.reference_network(), presets.reference_diagrams()
    n = 8 * copies
    perm = np.random.default_rng(seed).permutation(n).reshape(copies, 8)
    P = np.zeros((n, n))
    fields = {k: np.zeros(n) for k in ("a", "Qexit", "mu", "vmax")}
    demands, supplies = [None] * n, [None] * n
    for new in perm:
        P[np.ix_(new, new)] = spec8.P
        for k, vec in fields.items():
            vec[new] = getattr(spec8, k)
        for i, j in enumerate(new):
            demands[j], supplies[j] = ds8.demands[i], ds8.supplies[i]
    spec = NetworkSpec(n=n, P=P, **fields)
    return spec, DiagramSet(tuple(demands), tuple(supplies), ds8.d_lo, ds8.d_hi)


def test_weighted_jam_mass_overflow_is_a_typed_error_naming_the_cell(constants):
    """On 128 freeway copies (1,024 cells) the top weight 2^1023 is finite,
    but r @ a is not: the gamma search refuses the weights, naming the cell
    of largest weight, before any weighted sum can overflow."""
    spec, ds = _freeway_copies(128, seed=1)
    constants(GAMMA_SAMPLES=256)
    r = weights_r(spec)
    assert np.isfinite(r).all() and r.max() == 2.0 ** 1023
    top = int(np.argmax(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = rf"^cell {top + 1}: weight 8.99e\+307 makes the weighted jam mass"
        with pytest.raises(NumericalError, match=message) as exc:
            drain_constants(spec, ds, r)
    assert exc.value.cell == top


def test_weights_xi_ignores_edges_below_the_edge_tolerance():
    """P[3, 1] = 1e-16 is at most EDGE_TOL: the ordering, the cycle search and
    the predecessor lists treat it as absent, and so do the weights, which
    are those of the clean chain 1 -> 2 -> 3."""
    P = np.zeros((3, 3))
    P[0, 1] = P[1, 2] = 1.0
    L, G = np.full(3, 0.2), np.full(3, 0.7)
    clean = weights_xi(oracles.spec_of(P), L, G)
    P[2, 0] = 1e-16
    spec = oracles.spec_of(P)
    assert find_cycle(P) == () and spec.predecessors[0] == ()
    xi = weights_xi(spec, L, G)
    assert np.array_equal(xi, clean)
    np.testing.assert_allclose(xi, [1.0, 7.0, 49.0], rtol=1e-15)


def test_analysis_sorts_the_network_once(monkeypatch, constants):
    """solve_uep plus certify on one spec sort it once, counted at every
    module binding of topological_sort."""
    original, calls = network.topological_sort, []

    def counting(P):
        calls.append(P)
        return original(P)

    for name, mod in list(sys.modules.items()):
        if name == "netstab" or name.startswith("netstab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    spec, ds = presets.reference_network(), presets.reference_diagrams()
    eq = solve_uep(spec, ds, presets.reference_vstar())
    constants(GAMMA_SAMPLES=1024)
    certify(spec, ds, eq)
    assert len(calls) == 1


def test_spectral_radius_matches_eigensolver():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        M = rng.normal(0, 1, (n, n))
        want = oracles.spectral_radius_eig(M)
        assert spectral_radius(M) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_spectral_radius_handles_defective_matrices():
    """A Jordan block defeats plain power iteration; squaring must not care.

    Floating point caps the accuracy at roughly eps**(1/p) for a defective
    eigenvalue of index p under a dense similarity, so only the small blocks
    that shared release rates actually produce get a tight tolerance.
    """
    J = 0.7 * np.eye(5) + np.diag(np.ones(4), k=1)
    assert spectral_radius(J) == pytest.approx(0.7, abs=1e-9)
    rng = np.random.default_rng(1)
    for _ in range(10):
        J2 = 0.7 * np.eye(2) + np.diag([1.0], k=1)
        T = rng.normal(0, 1, (2, 2))
        sim = np.linalg.solve(T, J2 @ T)  # same spectrum, dense entries
        assert spectral_radius(sim) == pytest.approx(0.7, abs=1e-4)
    nil = np.diag(np.ones(3), k=1)
    assert spectral_radius(nil) == 0.0
    assert spectral_radius(np.zeros((4, 4))) == 0.0


def test_spectral_radius_input_checks():
    with pytest.raises(DimensionError):
        spectral_radius(np.zeros((2, 3)))
    with pytest.raises(NumericalError):
        spectral_radius(np.array([[np.nan, 0], [0, 1]]))


def test_gamma_block_structure(ref_spec, ref_ds, ref_cert):
    n = ref_spec.n
    L, G = _ref_slopes(ref_ds)
    ctl = ref_cert.controller
    Gamma, rho = build_gamma(ref_spec, L, G, ctl.vstar, ctl.b, ctl.K, ctl.tau)
    A = np.eye(n) + ref_spec.P.T * G - np.diag(L)
    B = (ctl.vstar - ctl.b)[:, None] * ctl.K / ctl.tau
    np.testing.assert_allclose(Gamma[:n, :n], A, rtol=0, atol=0)
    np.testing.assert_allclose(Gamma[n:, n:], A, rtol=0, atol=0)
    np.testing.assert_array_equal(Gamma[:n, n:], np.zeros((n, n)))
    np.testing.assert_allclose(Gamma[n:, :n], B, rtol=0, atol=0)
    assert rho == pytest.approx(oracles.RHO_CLOSED_FORM, abs=1e-12)
    assert oracles.spectral_radius_eig(Gamma) == pytest.approx(rho, abs=1e-9)


def test_gamma_radius_below_one_for_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(50):
        P, L, G = oracles.random_acyclic_instance(rng)
        n = len(L)
        vstar = rng.uniform(0, 30, n)
        b = rng.uniform(0, 1, n) * vstar
        K = rng.uniform(0, 2.0 / n, (n, n))
        tau = float(rng.uniform(0.1, 0.9))
        Gamma, rho = build_gamma(oracles.spec_of(P), L, G, vstar, b, K, tau)
        assert rho < 1
        assert oracles.spectral_radius_eig(Gamma) == pytest.approx(rho, abs=1e-9)


def test_gamma_must_be_triangular_in_topological_order():
    """A coupling below the edge tolerance escapes the ordering but not the
    exact triangularity check, which names both cells."""
    P = np.zeros((3, 3))
    P[0, 1] = P[1, 2] = 1.0
    P[2, 0] = 1e-16
    args = (np.full(3, 0.2), np.full(3, 0.5), np.ones(3), np.zeros(3),
            np.zeros((3, 3)), 0.5)
    with pytest.raises(StructuralError, match="cell 1: .* cell 3"):
        build_gamma(oracles.spec_of(P), *args)
    P[2, 0] = 0.0
    _, rho = build_gamma(oracles.spec_of(P), *args)
    assert rho == 0.8
    with pytest.raises(NumericalError, match="cell 2"):
        build_gamma(oracles.spec_of(P), *args[:4], np.diag([0.0, np.inf, 0.0]), 0.5)


def mainline(n):
    """An n-cell mainline of benchmark cells fed at cell 1: (spec, ds, v*)."""
    P = np.diag(np.ones(n - 1), k=1)
    Qexit = np.zeros(n)
    Qexit[-1] = 1.0
    vmax = np.full(n, 0.3)
    vmax[0] = 25.0
    spec = NetworkSpec(n=n, a=np.full(n, presets.JAM), P=P, Qexit=Qexit,
                       mu=np.full(n, presets.MU_MAIN), vmax=vmax)
    ref = presets.reference_diagrams()
    ds = DiagramSet((ref.demands[0],) * n, (ref.supplies[0],) * n,
                    ref.d_lo, ref.d_hi)
    v = np.zeros(n)
    v[0] = 25.0
    return spec, ds, v


@pytest.mark.parametrize("n", [8, 12, 16])
def test_badly_scaled_chain_certifies(n, monkeypatch):
    """On an n-cell mainline xi grows like 7.1^k and the synthesized gain is
    above 1e10; rho still comes out as max(1 - L_i).  At n = 16 eps* is
    1.7e-18, too small to lift beta above x* at the upstream cells, and the
    box check names cell 1 before the drain constants are sampled."""
    spec, ds, v = mainline(n)
    eq = solve_uep(spec, ds, v)
    if n == 16:
        def unreachable(*args, **kwargs):
            raise AssertionError("drain_constants ran on a collapsed box")

        monkeypatch.setattr(stability, "drain_constants", unreachable)
        with pytest.raises(NumericalError, match="cell 1: .* lost to rounding") as exc:
            certify(spec, ds, eq)
        assert exc.value.cell == 0
        return
    cert = certify(spec, ds, eq)
    assert cert.rho == pytest.approx(0.8, abs=1e-12)
    assert cert.floor_budget_ok and cert.m is not None
    assert np.max(np.abs(cert.controller.K)) > 1e10


def test_invariant_region_hand_computation(ref_eq, ref_cert, ref_spec):
    eps, beta = invariant_region(ref_eq.xstar, ref_cert.xi, ref_spec.mu)
    want = 1e-5 / oracles.XI_WEIGHTS[7]  # the tail cell binds
    assert eps == pytest.approx(want, rel=1e-6)
    assert np.all(beta <= ref_spec.mu)
    assert beta[7] == pytest.approx(ref_spec.mu[7], abs=1e-12)
    assert np.all(beta > ref_eq.xstar)

    with pytest.raises(ValueError, match="reaches"):
        invariant_region(ref_spec.mu, ref_cert.xi, ref_spec.mu)
    with pytest.raises(ValueError, match="positive"):
        invariant_region(ref_eq.xstar, np.zeros(8), ref_spec.mu)


def test_drain_constants_reference_values(ref_spec, ref_ds, ref_cert):
    drain = ref_cert.drain
    assert drain.Qconst == pytest.approx(0.5, abs=1e-12)
    L = np.array([fd.L for fd in ref_ds.demands])
    fmin = np.array([fd.fmin for fd in ref_ds.demands])
    dtl = np.array([fd.delta_tilde for fd in ref_ds.demands])
    theta_hand = np.minimum(L, np.minimum(fmin / ref_spec.a,
                                          L * dtl / ref_spec.a))
    np.testing.assert_allclose(drain.theta, theta_hand, rtol=0, atol=1e-15)
    assert drain.Theta == pytest.approx(0.0029117657647, abs=1e-9)
    # the sampled infimum lands in the hand-located basin
    assert 0.0011 < drain.gamma < 0.0011604
    assert drain.C == pytest.approx(
        drain.Qconst * drain.Theta * min(1.0, drain.gamma), rel=1e-12)
    np.testing.assert_allclose(
        drain.v_box,
        np.where(np.arange(8) % 4 == 0, 24.85, 0.15), rtol=0, atol=1e-12)
    assert drain.n_evaluated > 100_000


def test_drain_constants_input_checks(ref_spec, ref_ds, constants):
    constants(GAMMA_SAMPLES=64)
    with pytest.raises(ValueError, match="positive"):
        drain_constants(ref_spec, ref_ds, np.zeros(8))
    with pytest.raises(DimensionError):
        drain_constants(ref_spec, ref_ds, np.ones(3))


def _jam_capacity(ds, cell, a):
    """`ds` with cell `cell` (0-based) jamming at density `a`."""
    dem, sup = list(ds.demands), list(ds.supplies)
    dem[cell], sup[cell] = replace(dem[cell], a=a), replace(sup[cell], a=a)
    return DiagramSet(tuple(dem), tuple(sup), ds.d_lo, ds.d_hi)


def test_drain_constants_refuse_diagrams_of_another_jam_capacity(ref_spec, ref_ds,
                                                                 constants):
    """Curves jamming at 120 on a cell that the network fills to 170 would
    bound throttles of densities those curves never admit."""
    constants(GAMMA_SAMPLES=64)
    with pytest.raises(ValueError, match=r"^cell 3: diagrams give jam capacity "
                                         r"a = 120 but the network has a = 170$"):
        drain_constants(ref_spec, _jam_capacity(ref_ds, 2, 120.0), weights_r(ref_spec))


def test_certify_refuses_diagrams_of_another_jam_capacity(ref_spec, ref_ds, ref_eq,
                                                          constants):
    """The pair check in `ThrottleBound` stops `certify` too."""
    constants(GAMMA_SAMPLES=64)
    with pytest.raises(ValueError, match=r"^cell 3: diagrams give jam capacity "
                                         r"a = 120 but the network has a = 170$"):
        certify(ref_spec, _jam_capacity(ref_ds, 2, 120.0), ref_eq)


def test_trapping_bound_is_minimal():
    C, r = 0.01, np.array([1.0, 1.0])
    beta = np.array([10.0, 10.0])
    b = np.array([0.001, 0.001])
    a = np.array([100.0, 100.0])
    m = trapping_bound(C, r, beta, b, a)
    gap = C * float(np.min(r * beta)) - float(r @ b)
    start = C * float(r @ a)
    assert start * (1 - C) ** m <= gap
    assert start * (1 - C) ** (m - 1) > gap

    with pytest.raises(TrappingInfeasible):
        trapping_bound(C, r, beta, np.array([2.0, 2.0]), a)
    with pytest.raises(ValueError):
        trapping_bound(1.5, r, beta, b, a)


def test_lyapunov_eval_stacks_excess_then_deficit():
    x = np.array([3.0, 1.0, 2.0])
    xstar = np.array([2.0, 2.0, 2.0])
    np.testing.assert_array_equal(lyapunov_eval(x, xstar),
                                  [1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def test_contraction_check_passes_on_certified_box(ref_spec, ref_ds, ref_cert, constants):
    constants(CONTRACTION_SAMPLES=1500)
    report = contraction_check(ref_spec, ref_ds, ref_cert, seed=3)
    assert report.passed
    assert report.max_violation <= 1e-9
    assert report.n_samples == 1500


def test_contraction_check_matches_per_sample_loop(ref_spec, ref_ds, ref_cert, constants):
    """The stacked Lyapunov maps give the per-sample loop's worst gap, bit for
    bit, where that gap is positive and sensitive to every rounding."""
    from netstab.control import control_law
    from netstab.diagrams import _philox, uniform_uncertainty
    from netstab.dynamics import step

    rng = np.random.default_rng(41)
    constants(CONTRACTION_SAMPLES=300)
    for trial in range(3):
        cert = SimpleNamespace(beta=np.array(ref_spec.a), controller=ref_cert.controller,
                               Gamma=rng.uniform(0.0, 0.3, (16, 16)))
        report = contraction_check(ref_spec, ref_ds, cert, seed=trial)
        src = _philox(trial)
        X = src.uniform(0.0, cert.beta, size=(300, 8))
        D = uniform_uncertainty(ref_ds, 300, src)
        xstar = ref_cert.controller.xstar
        worst = -math.inf
        for x, d in zip(X, D):
            x_next, _ = step(ref_spec, ref_ds, x,
                             control_law(ref_cert.controller, x), d)
            gap = lyapunov_eval(x_next, xstar) - cert.Gamma @ lyapunov_eval(x, xstar)
            worst = max(worst, float(gap.max()))
        assert worst > 0.0
        assert report.max_violation == worst


def test_contraction_check_reports_a_nan_gap(ref_spec, ref_ds, ref_cert, constants):
    """A NaN gap fails the check rather than falling out of the running max."""
    Gamma = np.array(ref_cert.Gamma)
    Gamma[3, 5] = math.nan
    cert = SimpleNamespace(beta=ref_cert.beta, Gamma=Gamma, controller=ref_cert.controller)
    constants(CONTRACTION_SAMPLES=CONTRACTION_CHUNK + 1)
    report = contraction_check(ref_spec, ref_ds, cert)
    assert math.isnan(report.max_violation)
    assert not report.passed


def _corridor_check(ref_cert, copies, seed):
    """`_corridor(copies, seed)` with the benchmark controller on each copy's
    relabelled cells."""
    spec, ds = _corridor(copies, seed)
    ctrl = ref_cert.controller
    perm = np.random.default_rng(seed).permutation(spec.n)
    vec = {k: np.zeros(spec.n) for k in ("xstar", "vstar", "b")}
    K = np.zeros((spec.n, spec.n))
    for c in range(copies):
        new = perm[8 * c:8 * c + 8]
        for k in vec:
            vec[k][new] = getattr(ctrl, k)
        K[np.ix_(new, new)] = ctrl.K
    return spec, ds, ControllerConfig(K=K, tau=ctrl.tau, **vec)


@pytest.mark.parametrize("n_samples", [1, CONTRACTION_CHUNK - 1, CONTRACTION_CHUNK,
                                       CONTRACTION_CHUNK + 1, 2000])
@pytest.mark.parametrize("net", ["benchmark", "corridor of 8 copies"])
def test_chunked_contraction_check_equals_whole_arrays(ref_spec, ref_ds, ref_cert,
                                                       net, n_samples, constants):
    """The chunks give the whole-array worst gap bit for bit, where that gap
    is positive and sensitive to every rounding, across a chunk's edges."""
    if net == "benchmark":
        spec, ds, ctrl = ref_spec, ref_ds, ref_cert.controller
    else:
        spec, ds, ctrl = _corridor_check(ref_cert, 8, 11)
    rng = np.random.default_rng(n_samples)
    cert = SimpleNamespace(beta=np.array(spec.a), controller=ctrl,
                           Gamma=rng.uniform(0.0, 2.4 / spec.n, (2 * spec.n, 2 * spec.n)))
    constants(CONTRACTION_SAMPLES=n_samples)
    report = contraction_check(spec, ds, cert, seed=5)
    want = oracles.contraction_reference(spec, ds, ctrl, cert, n_samples, seed=5)
    assert want > 0.0
    assert report.max_violation == want
    assert report.n_samples == n_samples


def test_contraction_check_runs_in_chunk_memory(ref_cert, constants):
    """On 64 cells, doubling the samples adds only their X and D rows to the
    peak: the successors, Lyapunov vectors and products live one chunk at a
    time."""
    spec, ds, ctrl = _corridor_check(ref_cert, 8, 11)
    cert = SimpleNamespace(beta=np.array(spec.a), Gamma=np.eye(2 * spec.n), controller=ctrl)
    constants(CONTRACTION_SAMPLES=CONTRACTION_CHUNK)
    contraction_check(spec, ds, cert)  # warm caches
    peaks = []
    for n_samples in (500, 1000):
        constants(CONTRACTION_SAMPLES=n_samples)
        tracemalloc.start()
        try:
            contraction_check(spec, ds, cert)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 4 KiB for a few Python objects; whole (N, 2n) arrays would add about 2.6 MB
    assert peaks[1] - peaks[0] <= 500 * (spec.n + 4) * 8 + 4096


def test_certificate_consistency(ref_spec, ref_eq, ref_cert):
    cert = ref_cert
    assert cert.rho == pytest.approx(0.991, abs=1e-9)
    assert cert.floor_budget_ok
    assert cert.m is not None and cert.m > 0
    assert cert.m == trapping_bound(cert.drain.C, cert.r, cert.beta,
                                    cert.controller.b, ref_spec.a)
    assert cert.Gamma.shape == (16, 16)
    assert 0 < cert.floor_fraction < 1e-6
    assert cert.epsstar == pytest.approx(1e-5 / oracles.XI_WEIGHTS[7], rel=1e-6)


def test_certificate_flags_oversized_floor(ref_spec, ref_ds, ref_eq, bench_ctrl, constants):
    """The hand-tuned benchmark floor busts the drain budget: no finite bound."""
    constants(GAMMA_SAMPLES=4096)
    cert = certify(ref_spec, ref_ds, ref_eq, controller=bench_ctrl)
    assert not cert.floor_budget_ok
    assert cert.m is None
    assert cert.rho == pytest.approx(0.991, abs=1e-9)
