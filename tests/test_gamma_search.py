"""The batched drain-constant search against its loop references, bit for bit.

`ThrottleBound` evaluates the junction claims by priority level, `supply_batch`
evaluates all cells at once, and `drain_constants` runs the bound in row
blocks and refines its best seeds in lockstep.  It also evaluates the curves
only where its samples differ: the jam-pattern seeds gather theirs from
corner tables, and a coordinate scan re-evaluates only the scanned cell (x),
no curve (v) or every cell (d).  None of that may change a single bit of the
throttle bounds, gamma, its argmin or the sample count.
"""

from dataclasses import replace

import numpy as np
import pytest

from netstab import presets, stability
from netstab.diagrams import (DiagramSet, SupplyFunction, d_corners,
                              demand_batch, supply_batch, uniform_uncertainty)
from netstab.network import NetworkSpec
from netstab.stability import (ROW_BLOCK, ThrottleBound, _seed_cloud,
                               _struct_throttles, _zoom_grid, drain_constants,
                               weights_r)

import oracles
from test_curve_table import PIECEWISE


def _diagrams_for(n, rng, pinned=(), piecewise=0.0):
    """Benchmark curves on n cells, ramp-shaped at random; `pinned` cells fix
    their supply scale (the `wave` option) instead of following d4, and a
    `piecewise` share of cells take a user polynomial curve."""
    ref = presets.reference_diagrams()
    main, ramp = ref.demands[0], ref.demands[4]
    demands = tuple(PIECEWISE if rng.random() < piecewise
                    else ramp if rng.random() < 0.3 else main for _ in range(n))
    supplies = tuple(
        SupplyFunction(qcap=presets.QCAP, a=presets.JAM,
                       wave=float(rng.uniform(0.2, 0.35)) if k in pinned else None)
        for k in range(n))
    return DiagramSet(demands, supplies, ref.d_lo, ref.d_hi)


def _spec_for(P, rng):
    n = len(P)
    vmax = rng.uniform(0.3, 25.0, n)
    return NetworkSpec(n=n, a=np.full(n, presets.JAM), P=P,
                       Qexit=1.0 - P.sum(axis=1), mu=np.full(n, presets.MU_MAIN),
                       vmax=vmax)


def _dense_net(rng, n):
    """Acyclic net whose cells route to up to four later cells."""
    perm = rng.permutation(n)
    P = np.zeros((n, n))
    for k in range(n - 1):
        targets = rng.choice(np.arange(k + 1, n),
                             size=int(rng.integers(1, min(4, n - 1 - k) + 1)),
                             replace=False)
        w = rng.uniform(0.05, 1.0, len(targets))
        P[perm[k], perm[targets]] = w * rng.uniform(0.3, 1.0) / w.sum()
    return P


def _claim_shape(spec):
    """(most claimants at one junction, whether a sender repeats in a level)."""
    preds = [p for p in spec.predecessors if p]
    depth = max(len(p) for p in preds)
    repeats = any(
        len({p[k] for p in preds if len(p) > k}) < sum(len(p) > k for p in preds)
        for k in range(depth))
    return depth, repeats


def _states(spec, ds, rng, N):
    X = rng.uniform(0.0, spec.a, (N, spec.n))
    X[rng.random((N, spec.n)) < 0.15] = 0.0
    jam = rng.random((N, spec.n)) < 0.15
    X[jam] = np.broadcast_to(spec.a, X.shape)[jam]
    V = rng.uniform(0.0, 30.0, (N, spec.n))
    D = np.vstack([d_corners(ds), uniform_uncertainty(ds, N - 16, rng)])
    return X, V, D


def test_supply_batch_matches_cell_loop_with_pinned_waves():
    rng = np.random.default_rng(5)
    ds = _diagrams_for(9, rng, pinned=(0, 3, 8))
    X, _, D = _states(_spec_for(_dense_net(rng, 9), rng), ds, rng, 300)
    assert np.array_equal(supply_batch(ds, D, X), oracles.supply_loop(ds, D, X))
    want = np.array([oracles.supply_loop(ds, ds.d_lo[None, :], np.zeros((1, 9)))[0]])
    assert np.array_equal(ds.min_supply_at_zero(), want[0])


def test_stilde_levels_match_junction_loop_on_random_nets():
    rng = np.random.default_rng(11)
    shapes = []
    for trial in range(30):
        n = int(rng.integers(3, 16))
        spec = _spec_for(_dense_net(rng, n), rng)
        pinned = tuple(np.nonzero(rng.random(n) < 0.3)[0]) if trial % 2 else ()
        ds = _diagrams_for(n, rng, pinned)
        X, V, D = _states(spec, ds, rng, 200)
        S = ThrottleBound(spec, ds)(X, V, D)
        assert np.array_equal(S, oracles.stilde_bound_loop(spec, ds)(X, V, D))
        # rows do not interact: any batch shape gives the same bits
        assert np.array_equal(S[37:38], ThrottleBound(spec, ds)(X[37], V[37], D[37]))
        shapes.append(_claim_shape(spec))
    assert max(depth for depth, _ in shapes) >= 3
    assert sum(repeats for _, repeats in shapes) >= 5


def test_allocate_on_batch_curves_matches_junction_loop():
    """The bound split into curve evaluation and junction allocation."""
    rng = np.random.default_rng(17)
    for trial in range(12):
        n = int(rng.integers(3, 16))
        spec = _spec_for(_dense_net(rng, n), rng)
        pinned = tuple(np.nonzero(rng.random(n) < 0.3)[0])
        ds = _diagrams_for(n, rng, pinned, piecewise=0.3)
        X, V, D = _states(spec, ds, rng, 200)
        S = ThrottleBound(spec, ds).allocate(demand_batch(ds, D, X),
                                            supply_batch(ds, D, X), V)
        assert np.array_equal(S, oracles.stilde_bound_loop(spec, ds)(X, V, D))


def test_stilde_levels_match_junction_loop_on_hand_net():
    """Sender 7 claims first at junctions 0, 1 and 8, sender 6 second at 0
    and 1 (0-based), so both levels repeat a sender; junction 8 has five
    claimants."""
    n = 10
    P = np.zeros((n, n))
    P[7, [0, 1, 8]] = [0.3, 0.3, 0.3]   # first claimant of junctions 0, 1, 8
    P[6, [0, 1]] = [0.4, 0.4]           # second claimant of junctions 0, 1
    P[[2, 3, 4, 5], 8] = 0.5             # junction 8: claimants 7, 5, 4, 3, 2
    P[8, 9] = 1.0
    rng = np.random.default_rng(3)
    spec = _spec_for(P, rng)
    assert spec.predecessors[8] == (7, 5, 4, 3, 2)
    ds = _diagrams_for(n, rng, pinned=(1, 9))
    X, V, D = _states(spec, ds, rng, 400)
    assert np.array_equal(ThrottleBound(spec, ds)(X, V, D),
                          oracles.stilde_bound_loop(spec, ds)(X, V, D))


def _freeways_and_chain(copies, chain, pinned=()):
    """`copies` disjoint freeways plus a `chain`-cell mainline feeding the
    last copy's cell 5 (0-based 4); `pinned` cells fix their supply scale."""
    ref, rds = presets.reference_network(), presets.reference_diagrams()
    n = 8 * copies + chain
    P = np.zeros((n, n))
    for c in range(copies):
        P[8 * c:8 * c + 8, 8 * c:8 * c + 8] = ref.P
    for k in range(8 * copies, n - 1):
        P[k, k + 1] = 1.0
    P[n - 1, 8 * (copies - 1) + 4] = 1.0
    vmax = np.r_[np.tile(ref.vmax, copies), 25.0, np.full(chain - 1, 0.3)]
    spec = NetworkSpec(n=n, a=np.full(n, presets.JAM), P=P, Qexit=1.0 - P.sum(axis=1),
                       mu=np.full(n, presets.MU_MAIN), vmax=vmax)
    sup = rds.supplies * copies + (rds.supplies[0],) * chain
    sup = tuple(replace(sf, wave=0.25) if k in pinned else sf for k, sf in enumerate(sup))
    ds = DiagramSet(rds.demands * copies + (rds.demands[0],) * chain, sup,
                    rds.d_lo, rds.d_hi)
    return spec, ds


def _twenty_cells():
    return _freeways_and_chain(2, 4)


def _pinned_benchmark(piecewise=()):
    """The benchmark with cells 3 and 7 pinned to a fixed supply scale and
    the `piecewise` cells (0-based) on a user polynomial curve."""
    ds = presets.reference_diagrams()
    sup = tuple(replace(sf, wave=0.25) if k in (2, 6) else sf
                for k, sf in enumerate(ds.supplies))
    dem = tuple(PIECEWISE if k in piecewise else fd for k, fd in enumerate(ds.demands))
    return presets.reference_network(), DiagramSet(dem, sup, ds.d_lo, ds.d_hi)


def _degenerate_box():
    """The benchmark with d2 and d4 pinned: two zero-width zoom windows."""
    ds = presets.reference_diagrams()
    lo, hi = ds.d_lo.copy(), ds.d_hi.copy()
    hi[1] = lo[1]
    lo[3] = hi[3]
    return presets.reference_network(), DiagramSet(ds.demands, ds.supplies, lo, hi)


def _assert_same_search(spec, ds, bound=None, **kw):
    """`drain_constants` against the reference; `bound`, a ThrottleBound
    subclass, stands in for the built-in bound in both."""
    r = weights_r(spec)
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(stability, "ThrottleBound", bound)
        got = drain_constants(spec, ds, r, **kw)
    stilde = None if bound is None else bound(spec, ds)
    gamma, argmin, n_evaluated = oracles.gamma_search_reference(spec, ds, r, stilde,
                                                                **kw)
    assert got.gamma == gamma
    assert got.argmin["ratio"] == argmin["ratio"]
    for key in "xvd":
        assert np.array_equal(got.argmin[key], argmin[key])
    assert got.n_evaluated == n_evaluated
    return got


@pytest.mark.parametrize("net", ["benchmark", "pinned-wave benchmark",
                                 "piecewise and pinned cells", "degenerate box",
                                 "11 cells", "20 cells"])
def test_drain_constants_match_per_seed_refinement(net):
    spec, ds = {"benchmark": lambda: (presets.reference_network(),
                                      presets.reference_diagrams()),
                "pinned-wave benchmark": _pinned_benchmark,
                "piecewise and pinned cells": lambda: _pinned_benchmark((1, 2, 5)),
                "degenerate box": _degenerate_box,
                "11 cells": lambda: _freeways_and_chain(1, 3, pinned=(9,)),
                "20 cells": _twenty_cells}[net]()
    kw = {"n_samples": 2048, "seed": 4}
    if spec.n > 12:
        kw["refine_sweeps"] = 1
    got = _assert_same_search(spec, ds, **kw)
    assert got.n_evaluated > ROW_BLOCK  # the seed cloud spans several blocks
    # cells without a junction (no routed inflow) take v scans as well
    assert () in spec.predecessors


class _LowCornerBound(ThrottleBound):
    """A stand-in bound that knows two curve values at the low corner d_lo:
    each cell's supply when empty and its demand when jammed."""

    def __init__(self, spec, ds):
        super().__init__(spec, ds)
        self.g_low = ds.min_supply_at_zero()
        self.f_jam = demand_batch(ds, ds.d_lo[None, :], spec.a[None, :])[0]


class _Overflowing(_LowCornerBound):
    """The built-in bound, finite on two kinds of rows only.  One kind has no
    inflow, supplies at most those of the low d4 corner and at most one
    jammed cell (zero supply; three on 20 cells), whose demand is that of
    the low d3 corner: a few jam-pattern seeds.  The other has exactly one
    jammed cell and no empty one (zero demand): no seed, but an x scan that
    jams a cell of a Sobol seed gets there, and on 20 cells it then undercuts
    the finite seeds.  Elsewhere S = 1e308, so S * X overflows to an
    infinite ratio."""

    def allocate(self, F, G, V):
        S = super().allocate(F, G, V)
        jam, count = G == 0, (G == 0).sum(axis=1)
        seeds = ((V == 0).all(axis=1) & (G <= self.g_low).all(axis=1)
                 & (count <= (1 if F.shape[1] <= 12 else 3))
                 & ((F == self.f_jam) | ~jam).all(axis=1))
        S[~(seeds | ((count == 1) & (F > 0).all(axis=1)))] = 1e308
        return S


@pytest.mark.parametrize("net", ["benchmark", "20 cells"])
def test_drain_constants_skip_infinite_seeds_like_the_reference(net):
    """A bound that overflows off a handful of seeds leaves inf-ratio seeds
    among the best ones; both searches must skip the same ones (refining
    them would lower gamma on 20 cells)."""
    spec, ds = ((presets.reference_network(), presets.reference_diagrams())
                if net == "benchmark" else _twenty_cells())
    kw = {"n_samples": 1024, "seed": 2, "refine_top": 40, "refine_sweeps": 1}
    with np.errstate(over="ignore"):
        got = _assert_same_search(spec, ds, _Overflowing, **kw)
    assert 0 < got.n_evaluated < kw["refine_top"]


class _Landscape(_LowCornerBound):
    """A uniform throttle c(F, G, V), so every ratio equals c.  A cell's fill
    y = 1 - G / g(d_lo, 0) is 0 up to a - qcap and rises to 1 at jam.  Well
    A is cell 1 jammed and all else empty, well B cell 2 jammed; beside B
    lies a deeper well at y_1 = 0.272, off the scan grid.  Inflow, a supply
    above the low d4 corner or a jam demand off the low d3 corner adds 1."""

    def allocate(self, F, G, V):
        y = 1.0 - G / self.g_low
        n = y.shape[1]
        well = np.eye(n)
        away = ((V.sum(axis=1) > 0) | (y < 0).any(axis=1)
                | ((F != self.f_jam) & (G == 0)).any(axis=1))
        c_a = 0.5 + np.abs(y - well[0]).sum(axis=1) / n
        c_b = (0.6 + 10.0 * np.abs(y[:, 1:] - well[1, 1:]).sum(axis=1) / n
               - 0.5 * np.maximum(0.0, 1.0 - np.abs(y[:, 0] - 0.272) / 0.12))
        c = np.minimum(c_a, c_b) + away
        return np.repeat(c[:, None], n, axis=1)


def test_a_later_seed_can_win_with_its_own_zoom_windows():
    """The best seed sits in a shallow well, the next ones beside a deeper
    well off the scan grid.  The winner then comes from a later seed and the
    zoom windows that seed chose, not from the first seed's."""
    spec = presets.reference_network()
    got = _assert_same_search(spec, presets.reference_diagrams(), _Landscape,
                              n_samples=1024, refine_sweeps=1)
    assert got.gamma < 0.2 and got.argmin["x"][1] == spec.a[1]
    fill = (got.argmin["x"][0] - (spec.a[0] - presets.QCAP)) / presets.QCAP
    assert abs(fill - 0.272) < 5e-4


@pytest.mark.parametrize("net", ["benchmark", "20 cells"])
def test_jam_pattern_seeds_come_from_corner_tables(net):
    """The structured seeds' throttles gathered from 16-corner x {0, a}
    tables equal the bound on the rows themselves.  On the benchmark the
    8,160 rows end inside a ROW_BLOCK; above 12 cells they are 131,072."""
    spec, ds = ((presets.reference_network(), presets.reference_diagrams())
                if net == "benchmark" else _twenty_cells())
    v_box = np.minimum(spec.vmax, ds.min_supply_at_zero()) * 0.5
    X, V, D, n_struct = _seed_cloud(spec, ds, v_box, 1024, 3)
    want = oracles.seed_cloud_reference(spec, ds, v_box, 1024, 3)
    for got, ref in zip((X, V, D), want):
        assert np.array_equal(got, ref)
    assert n_struct == (8160 if net == "benchmark" else 4096 * 32)
    if net == "benchmark":
        assert n_struct % ROW_BLOCK != 0
    S = np.empty((n_struct, spec.n))
    bound = ThrottleBound(spec, ds)
    _struct_throttles(bound, X[:n_struct], V[:n_struct], S)
    rows = (X[:n_struct], V[:n_struct], D[:n_struct])
    assert np.array_equal(S, bound(*rows))
    assert np.array_equal(S, oracles.stilde_bound_loop(spec, ds)(*rows))


class _CurveSensitiveBound(ThrottleBound):
    """A stand-in allocation whose throttles swing with every demand, supply
    and inflow value, so that every kind of scan keeps finding improvements.
    A stale, misplaced or wrongly weighted curve value in any scan then
    changes the path of the search."""

    def allocate(self, F, G, V):
        return 0.5 + 0.4 * np.cos(0.37 * F + 0.11 * G + 0.05 * V)


@pytest.mark.parametrize("net", ["benchmark", "piecewise and pinned cells",
                                 "degenerate box", "20 cells"])
def test_scans_reuse_curves_like_a_full_evaluation(net, monkeypatch):
    """The search (tables, base-point curves, one re-evaluated column)
    against the reference, which evaluates this bound on whole rows."""
    spec, ds = {"benchmark": lambda: (presets.reference_network(),
                                      presets.reference_diagrams()),
                "piecewise and pinned cells": lambda: _pinned_benchmark((1, 2, 5)),
                "degenerate box": _degenerate_box,
                "20 cells": _twenty_cells}[net]()
    kw = {"n_samples": 1024, "seed": 6, "refine_sweeps": 1 if spec.n > 12 else 2}
    got = _assert_same_search(spec, ds, _CurveSensitiveBound, **kw)
    monkeypatch.setattr(stability, "ThrottleBound", _CurveSensitiveBound)
    seeds = drain_constants(spec, ds, weights_r(spec), **{**kw, "refine_sweeps": 0})
    assert got.gamma < seeds.gamma  # the scans moved the points


@pytest.mark.parametrize("w", [33, 10])
def test_zoom_grid_is_linspace_row_by_row(w):
    """Zero-width windows mixed with others: np.linspace on the arrays would
    compute every row as (k / (w - 1)) * width, which rounds differently
    unless w - 1 is a power of two; the grid must match it row by row."""
    rng = np.random.default_rng(8)
    lo = rng.uniform(-3.0, 170.0, 40)
    hi = lo + rng.uniform(0.0, 90.0, 40) * (rng.random(40) < 0.7)
    lo[:3], hi[:3] = 0.0, [170.0, 1e-300, 0.0]
    ts, span = _zoom_grid(lo, hi, w)
    assert (hi == lo).sum() > 5
    for b in range(len(lo)):
        assert np.array_equal(ts[b], np.linspace(lo[b], hi[b], w))
        assert span[b] == (hi[b] - lo[b]) / (w - 1)
    if w == 10:
        assert not np.array_equal(ts, np.linspace(lo, hi, w, axis=1))
