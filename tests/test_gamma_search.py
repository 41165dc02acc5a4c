"""The batched drain-constant search against its loop references, bit for bit.

`ThrottleBound.allocate` evaluates the junction claims by priority level,
`supply_batch` evaluates all cells at once, and `drain_constants` streams its
seed cloud in row blocks, keeps its best seeds with their curves and refines
them in lockstep.  It also evaluates the curves only where its
samples differ: the cloud gathers the jam-pattern seeds' curves from corner
tables, the refined points carry theirs, and a coordinate scan re-evaluates
only the scanned cell (x), no curve (v) or every cell (d).  An x or v scan
re-allocates only the throttle columns that its cell can move.
None of that may change a single bit of the throttle bounds, gamma, its
argmin or the sample count.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netstab import presets, stability
from netstab.diagrams import (DiagramSet, SupplyFunction, d_corners,
                              demand_batch, supply_batch, uniform_uncertainty)
from netstab.network import NetworkSpec
from netstab.stability import (ROW_BLOCK, ThrottleBound, _keep_best, _ratios,
                               _seed_blocks, _zoom_grid, drain_constants, weights_r)

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


def _curves(ds, X, D):
    return demand_batch(ds, D, X), supply_batch(ds, D, X)


@pytest.mark.parametrize("seed, piecewise", [(11, 0.0), (17, 0.3)],
                         ids=["freeway", "piecewise"])
def test_stilde_levels_match_junction_loop_on_random_nets(seed, piecewise):
    """`allocate` on batch curves against the junction loop; a `piecewise`
    share of cells take a user polynomial curve."""
    rng = np.random.default_rng(seed)
    shapes = []
    for trial in range(30):
        n = int(rng.integers(3, 16))
        spec = _spec_for(_dense_net(rng, n), rng)
        pinned = tuple(np.nonzero(rng.random(n) < 0.3)[0]) if trial % 2 else ()
        ds = _diagrams_for(n, rng, pinned, piecewise)
        X, V, D = _states(spec, ds, rng, 200)
        bound, (F, G) = ThrottleBound(spec, ds), _curves(ds, X, D)
        S = bound.allocate(F, G, V)
        assert np.array_equal(S, oracles.stilde_bound_loop(spec, ds)(X, V, D))
        # rows do not interact: any batch shape gives the same bits
        assert np.array_equal(S[37:38], bound.allocate(F[37:38], G[37:38], V[37:38]))
        shapes.append(_claim_shape(spec))
    assert max(depth for depth, _ in shapes) >= 3
    assert sum(repeats for _, repeats in shapes) >= 5


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
    assert np.array_equal(ThrottleBound(spec, ds).allocate(*_curves(ds, X, D), V),
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


def _relabelled_copies(copies, seed):
    """`copies` disjoint benchmark freeways, cells relabelled by a seeded
    permutation (corridor64 at eight copies)."""
    ref, rds = presets.reference_network(), presets.reference_diagrams()
    n = 8 * copies
    perm = np.random.default_rng(seed).permutation(n)
    P, old = np.zeros((n, n)), np.empty(n, dtype=int)
    for c in range(copies):
        new = perm[8 * c:8 * c + 8]
        P[np.ix_(new, new)] = ref.P
        old[new] = np.arange(8)
    spec = NetworkSpec(n=n, a=ref.a[old], P=P, Qexit=ref.Qexit[old], mu=ref.mu[old],
                       vmax=ref.vmax[old])
    return spec, DiagramSet(tuple(rds.demands[k] for k in old),
                            tuple(rds.supplies[k] for k in old), rds.d_lo, rds.d_hi)


def _assert_local_equals_full(spec, ds, rng, N=120):
    """For every cell, rows that move only that cell's density or inflow off
    some base rows: `allocate` from the base rows' bounds equals a full one."""
    X, V, D = _states(spec, ds, rng, N)
    bound, (F, G) = ThrottleBound(spec, ds), _curves(ds, X, D)
    S = bound.allocate(F, G, V)
    moved = 0
    for i in range(spec.n):
        Xi, Vi = X.copy(), V.copy()
        Xi[:, i] = rng.permutation(X[:, i])
        Vi[:, i] = rng.uniform(0.0, 30.0, N)
        for X2, V2 in ((Xi, V), (X, Vi)):
            F2, G2 = F.copy(), G.copy()  # only cell i's columns are evaluated again
            F2[:, i], G2[:, i] = (part[:, i] for part in _curves(ds, X2, D))
            full = bound.allocate(F2, G2, V2)
            local = bound.allocate(F2, G2, V2, cell=i, S=S.copy())
            assert np.array_equal(local, full), f"cell {i}"
            moved += not np.array_equal(full, S)
    assert moved > spec.n  # most moves change some bound


def test_local_allocation_equals_a_full_one_on_random_nets():
    """Dense random nets, among them nets where a sender claims at two
    junctions of one level."""
    rng = np.random.default_rng(23)
    shapes = []
    for _ in range(12):
        n = int(rng.integers(3, 16))
        spec = _spec_for(_dense_net(rng, n), rng)
        pinned = tuple(np.nonzero(rng.random(n) < 0.3)[0])
        _assert_local_equals_full(spec, _diagrams_for(n, rng, pinned, 0.2), rng)
        shapes.append(_claim_shape(spec))
    assert max(depth for depth, _ in shapes) >= 3
    assert sum(repeats for _, repeats in shapes) >= 3


@pytest.mark.parametrize("net", ["20 cells", "8 relabelled copies"])
def test_local_allocation_equals_a_full_one(net):
    spec, ds = _twenty_cells() if net == "20 cells" else _relabelled_copies(8, 11)
    _assert_local_equals_full(spec, ds, np.random.default_rng(spec.n))


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

    def allocate(self, F, G, V, cell=None, S=None):
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

    def allocate(self, F, G, V, cell=None, S=None):
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


def _net(name):
    return ((presets.reference_network(), presets.reference_diagrams())
            if name == "benchmark" else _twenty_cells())


def _v_box(spec, ds):
    return np.minimum(spec.vmax, ds.min_supply_at_zero()) * 0.5


def _jam_pattern_rows(spec):
    return 32 * (2 ** spec.n - 1 if spec.n <= 12 else 4096)


def _stream(spec, ds, n_samples, seed):
    """The seed blocks stacked into (X, V, D, F, G), checking that each block
    holds at most ROW_BLOCK rows of one kind and that its X, V and D are the
    reference cloud's rows."""
    v_box = _v_box(spec, ds)
    want = oracles.seed_cloud_reference(spec, ds, v_box, n_samples, seed)
    n_struct, blocks, end = _jam_pattern_rows(spec), [], 0
    for block in _seed_blocks(spec, ds, v_box, n_samples, seed):
        lo, end = end, end + len(block[0])
        assert 0 < end - lo <= ROW_BLOCK
        assert (lo < n_struct) == (end <= n_struct)  # one kind per block
        for got, ref in zip(block[:3], want):
            assert np.array_equal(got, ref[lo:end])
        blocks.append(block)
    assert end == len(want[0])
    return tuple(np.vstack(part) for part in zip(*blocks))


@pytest.mark.parametrize("n_samples", [300, 1000])
@pytest.mark.parametrize("net", ["benchmark", "20 cells"])
def test_seed_stream_equals_the_whole_cloud(net, n_samples):
    """The blocks' X, V and D are the reference cloud's rows bit for bit,
    with a Sobol part of 512 rows (under one ROW_BLOCK) or 1,024 (one
    ROW_BLOCK); the benchmark's 8,160 jam-pattern rows end inside a block."""
    spec, ds = _net(net)
    X = _stream(spec, ds, n_samples, 3)[0]
    assert len(X) - _jam_pattern_rows(spec) == (512 if n_samples == 300 else 1024)


@pytest.mark.parametrize("net", ["benchmark", "20 cells"])
def test_jam_pattern_seeds_come_from_corner_tables(net):
    """Every block yields the demands and supplies of its own rows: the
    jam-pattern blocks gather them from 16-corner x {0, a} tables, the Sobol
    blocks evaluate them.  Both equal `demand_batch`/`supply_batch` of the
    reference rows, and the jam-pattern rows' throttles equal the junction
    loop's.  On the benchmark the 8,160 jam-pattern rows end inside a
    ROW_BLOCK; above 12 cells they are 131,072."""
    spec, ds = _net(net)
    n_struct = _jam_pattern_rows(spec)
    assert n_struct == (8160 if net == "benchmark" else 4096 * 32)
    if net == "benchmark":
        assert n_struct % ROW_BLOCK != 0
    X, V, D, F, G = _stream(spec, ds, 1024, 3)
    for part, ref in zip((F, G), _curves(ds, X, D)):
        assert np.array_equal(part, ref)
    S = ThrottleBound(spec, ds).allocate(F[:n_struct], G[:n_struct], V[:n_struct])
    assert np.array_equal(S, oracles.stilde_bound_loop(spec, ds)(
        X[:n_struct], V[:n_struct], D[:n_struct]))


def test_kept_seeds_are_the_stable_order_of_the_whole_cloud():
    """Equal ratios on both sides of the first ROW_BLOCK seam, on a
    jam-pattern and a Sobol row, and on rows that sort later: the seeds kept
    from the stream, rows and curves included, are the first k of a stable
    sort of the whole cloud's ratios, so ties go in row order."""
    spec, ds = _net("benchmark")
    blocks = list(_seed_blocks(spec, ds, _v_box(spec, ds), 1024, 3))
    whole = tuple(np.vstack(part) for part in zip(*blocks))
    vals = np.round(whole[0].sum(axis=1) / presets.JAM) + 1.0  # ties among jam patterns
    vals[::7] = np.inf
    vals[[9000, ROW_BLOCK + 1, 5, ROW_BLOCK - 2, 8500, ROW_BLOCK, ROW_BLOCK - 1,
          3000]] = 0.5
    vals[8800] = 0.25
    want = np.argsort(vals, kind="stable")[:6]
    assert list(want) == [8800, 5, ROW_BLOCK - 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1]
    ends = np.cumsum([0] + [len(b[0]) for b in blocks])
    stream = ((vals[lo:hi], *block) for lo, hi, block in zip(ends, ends[1:], blocks))
    kept, n_finite = _keep_best(stream, 6)
    for got, ref in zip(kept, (vals, *whole)):
        assert np.array_equal(got, ref[want])
    assert n_finite == np.isfinite(vals).sum()
    for ratios, k in ((vals, len(vals)), (np.arange(len(vals), dtype=float), 2000)):
        # more seeds than finite ratios (the infinite ones follow in row order),
        # and more seeds than the first block holds
        kept, _ = _keep_best(((ratios[lo:hi], np.arange(lo, hi))
                              for lo, hi in zip(ends, ends[1:])), k)
        assert np.array_equal(kept[1], np.argsort(ratios, kind="stable")[:k])


@pytest.mark.parametrize("n", [8, 64, 128])
def test_ratios_in_blocks_equal_the_whole_batch(n):
    """The search weighs the seed cloud ROW_BLOCK rows at a time and every
    scan's seeds as one (K, 33, n) stack.  Both must give each row the bits
    of one whole-batch call, rows below the mass floor included (they read
    inf).  BLAS may round a row differently in another batch shape: OpenBLAS
    gives the last two rows of a batch that leaves 2 or 3 rows over a
    multiple of four to another kernel, which is why `_ratios` weighs every
    row and masks afterwards instead of weighing only the rows above the
    floor, and why ROW_BLOCK is a multiple of four."""
    rng = np.random.default_rng(n)
    N, floor = 33 * 100, 0.5
    r = 2.0 ** rng.permutation(n)
    X = rng.uniform(0.0, presets.JAM, (N, n)) * (rng.random((N, n)) < 0.6)
    X[rng.random(N) < 0.2] *= 1e-4  # rows below the floor
    X[rng.random(N) < 0.05] = 0.0
    S = rng.uniform(0.0, 1.0, (N, n))
    want = _ratios(S.copy(), X, r, floor)
    assert np.array_equal(np.isinf(want), X.sum(axis=1) < floor)
    assert 0 < np.isinf(want).sum() < N // 2
    blocks = [_ratios(S[lo:lo + ROW_BLOCK].copy(), X[lo:lo + ROW_BLOCK], r, floor)
              for lo in range(0, N, ROW_BLOCK)]
    assert N % ROW_BLOCK and np.array_equal(np.concatenate(blocks), want)
    stacked = _ratios(S.reshape(-1, 33, n).copy(), X.reshape(-1, 33, n), r, floor)
    assert np.array_equal(stacked.ravel(), want)
    ok = ~np.isinf(want)
    np.testing.assert_allclose(want[ok], ((S * X)[ok] @ r) / (X[ok] @ r), rtol=1e-15)


def test_gamma_search_runs_in_fixed_memory():
    """262,144 seeds on 20 cells: holding the whole cloud's X, V, D and S
    peaked at 138 MiB; the stream keeps one block and its best seeds."""
    spec, ds = _twenty_cells()
    r = weights_r(spec)
    tracemalloc.start()
    try:
        got = drain_constants(spec, ds, r, n_samples=2 ** 17, refine_sweeps=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n_evaluated > 2 ** 17
    assert peak < 16 * 2 ** 20


class _CurveSensitiveBound(ThrottleBound):
    """A stand-in allocation whose throttles swing with every demand, supply
    and inflow value, so that every kind of scan keeps finding improvements.
    A stale, misplaced or wrongly weighted curve value in any scan then
    changes the path of the search."""

    def allocate(self, F, G, V, cell=None, S=None):
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
