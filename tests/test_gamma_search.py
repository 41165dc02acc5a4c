"""The batched drain-constant search against its loop references, bit for bit.

`ThrottleBound.allocate` evaluates the junction claims by priority level,
`supply_batch` evaluates all cells at once, and `drain_constants` streams its
seed cloud in row blocks, keeps its best seeds with their curves and refines
them in lockstep.  It also evaluates the curves only where its
samples differ: the cloud gathers the jam-pattern seeds' curves from corner
tables, the refined points carry theirs, and a coordinate scan re-evaluates
only the scanned cell (x), no curve (v) or every cell (d).  An x or v scan
re-allocates only the throttle columns that its cell can move, and a Sobol
block whose witness floor (its heaviest cells' throttles with every demand at
its cap) rules it out is skipped unevaluated.  None of that may change a
single bit of the throttle bounds, gamma, its argmin or the sample count.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netstab import diagrams, presets, stability
from netstab.diagrams import (DiagramSet, SupplyFunction, _philox, d_corners,
                              demand_batch, supply_batch, uniform_uncertainty)
from netstab.network import NetworkSpec
from netstab.sobol import Sobol
from netstab.stability import (ThrottleBound, _block_rows, _cloud_rows, _jam_patterns,
                               _ratios, _seed_blocks, _zoom_grid, drain_constants,
                               weights_r)

import oracles
from test_curve_table import PIECEWISE, _corridor, _random_net


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
    some base rows: `allocate` from the base rows' bounds equals a full one.
    So does the witness form of random cell sets, on their junctions'
    supplies and inflows alone, in those cells' columns, with the rows'
    demands and with every demand at its cap."""
    X, V, D = _states(spec, ds, rng, N)
    bound, (F, G) = ThrottleBound(spec, ds), _curves(ds, X, D)
    S = bound.allocate(F, G, V)
    capped = np.broadcast_to(ds._fcap, F.shape)
    for k in (1, 2, 4, spec.n):
        cells = rng.choice(spec.n, size=min(k, spec.n), replace=False)
        J = bound.junctions(cells)
        assert np.array_equal(bound.allocate(F, G[:, J], V[:, J], cells=cells), S[:, cells])
        assert np.array_equal(bound.allocate(capped, G[:, J], V[:, J], cells=cells),
                              bound.allocate(capped, G, V)[:, cells])
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


def _assert_same_search(spec, ds, bound=None, seed=0):
    """`drain_constants` against the reference at the search constants in
    force; `bound`, a ThrottleBound subclass, stands in for the built-in
    bound in both."""
    r = weights_r(spec)
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(stability, "ThrottleBound", bound)
        got = drain_constants(spec, ds, r, seed=seed)
    stilde = None if bound is None else bound(spec, ds)
    gamma, argmin, n_evaluated = oracles.gamma_search_reference(
        spec, ds, r, stilde, n_samples=stability.GAMMA_SAMPLES, seed=seed,
        refine_top=stability.REFINE_TOP, refine_sweeps=stability.REFINE_SWEEPS)
    assert got.gamma == gamma
    assert got.argmin["ratio"] == argmin["ratio"]
    for key in "xvd":
        assert np.array_equal(got.argmin[key], argmin[key])
    assert got.n_evaluated == n_evaluated
    return got


def _scan_count(spec, ds, seed):
    """The coordinate scans `drain_constants` runs: each zooms in three
    times, and only a scan draws a zoom grid (`_zoom_grid`)."""
    grids = []

    def counting(lo, hi, w):
        grids.append(w)
        return _zoom_grid(lo, hi, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_zoom_grid", counting)
        drain_constants(spec, ds, weights_r(spec), seed=seed)
    return len(grids) // 3


@pytest.mark.parametrize("net", ["benchmark", "pinned-wave benchmark",
                                 "piecewise and pinned cells", "degenerate box",
                                 "one corner class", "11 cells", "20 cells",
                                 "20 cells, three sweeps"])
def test_drain_constants_match_per_seed_refinement(net, constants):
    """The reference refines every seed for all REFINE_SWEEPS sweeps.  On the
    nets up to 12 cells the last move comes in the first sweep, so the search
    stops early (`test_refinement_stops_once_a_cycle_of_scans_is_idle`); on
    20 cells over three sweeps seeds still move in the third, so it runs
    every scan."""
    spec, ds = {"benchmark": lambda: (presets.reference_network(),
                                      presets.reference_diagrams()),
                "pinned-wave benchmark": _pinned_benchmark,
                "piecewise and pinned cells": lambda: _pinned_benchmark((1, 2, 5)),
                "degenerate box": _degenerate_box,
                "one corner class": lambda: _classed_net("1 class")[:2],
                "11 cells": lambda: _freeways_and_chain(1, 3, pinned=(9,)),
                "20 cells": _twenty_cells,
                "20 cells, three sweeps": _twenty_cells}[net]()
    constants(GAMMA_SAMPLES=2048)
    if net == "20 cells":
        constants(REFINE_SWEEPS=1)
    got = _assert_same_search(spec, ds, seed=4)
    assert got.n_evaluated > _block_rows(spec.n)  # the seed cloud spans several blocks
    # cells without a junction (no routed inflow) take v scans as well
    assert () in spec.predecessors
    if net == "20 cells, three sweeps":
        assert _scan_count(spec, ds, seed=4) == 3 * (2 * spec.n + 4)


def test_refinement_stops_once_a_cycle_of_scans_is_idle():
    """A scan that moves no seed changes nothing the next scan reads, so after
    2n + 4 idle scans in a row every later one would repeat.  On the
    benchmark the last move comes in scan 7: the search stops after scan
    27 of 60."""
    spec, ds = presets.reference_network(), presets.reference_diagrams()
    assert stability.REFINE_SWEEPS * (2 * spec.n + 4) == 60
    assert _scan_count(spec, ds, seed=0) == 7 + 2 * spec.n + 4


def _no_witness(G, cells):
    """A stand-in's answer to the witness form of `allocate` when its
    throttles can exceed 1 or read columns that form does not pass: zeros,
    which rule out no block with a row above the mass floor."""
    return np.zeros((len(G), len(cells)))


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
    the low d3 corner, the largest jam demand in the box: a few jam-pattern
    seeds.  The other has exactly one jammed cell and no empty one (zero
    demand): no seed, but an x scan that jams a cell of a Sobol seed gets
    there, and on 20 cells it then undercuts the finite seeds.  Elsewhere
    S = 1e308, so S * X overflows to an infinite ratio."""

    def allocate(self, F, G, V, cell=None, S=None, cells=None):
        if cells is not None:
            return _no_witness(G, cells)
        S = super().allocate(F, G, V)
        jam, count = G == 0, (G == 0).sum(axis=1)
        seeds = ((V == 0).all(axis=1) & (G <= self.g_low).all(axis=1)
                 & (count <= (1 if F.shape[1] <= 12 else 3))
                 & ((F >= self.f_jam) | ~jam).all(axis=1))
        S[~(seeds | ((count == 1) & (F > 0).all(axis=1)))] = 1e308
        return S


@pytest.mark.parametrize("net", ["benchmark", "20 cells"])
def test_drain_constants_skip_infinite_seeds_like_the_reference(net, constants):
    """A bound that overflows off a handful of seeds leaves inf-ratio seeds
    among the best ones; both searches must skip the same ones (refining
    them would lower gamma on 20 cells)."""
    spec, ds = ((presets.reference_network(), presets.reference_diagrams())
                if net == "benchmark" else _twenty_cells())
    constants(GAMMA_SAMPLES=1024, REFINE_TOP=40, REFINE_SWEEPS=1)
    with np.errstate(over="ignore"):
        got = _assert_same_search(spec, ds, _Overflowing, seed=2)
    assert 0 < got.n_evaluated < stability.REFINE_TOP


class _Landscape(_LowCornerBound):
    """A uniform throttle c(F, G, V), so every ratio equals c.  A cell's fill
    y = 1 - G / g(d_lo, 0) is 0 up to a - qcap and rises to 1 at jam.  Well
    A is cell 1 jammed and all else empty, well B cell 2 jammed; beside B
    lies a deeper well at y_1 = 0.272, off the scan grid.  Inflow, a supply
    above the low d4 corner or a jam demand below the low d3 corner's (the
    largest in the box) adds 1."""

    def allocate(self, F, G, V, cell=None, S=None, cells=None):
        if cells is not None:
            return _no_witness(G, cells)
        y = 1.0 - G / self.g_low
        n = y.shape[1]
        well = np.eye(n)
        away = ((V.sum(axis=1) > 0) | (y < 0).any(axis=1)
                | ((F < self.f_jam) & (G == 0)).any(axis=1))
        c_a = 0.5 + np.abs(y - well[0]).sum(axis=1) / n
        c_b = (0.6 + 10.0 * np.abs(y[:, 1:] - well[1, 1:]).sum(axis=1) / n
               - 0.5 * np.maximum(0.0, 1.0 - np.abs(y[:, 0] - 0.272) / 0.12))
        c = np.minimum(c_a, c_b) + away
        return np.repeat(c[:, None], n, axis=1)


def test_a_later_seed_can_win_with_its_own_zoom_windows(constants):
    """The best seed sits in a shallow well, the next ones beside a deeper
    well off the scan grid.  The winner then comes from a later seed and the
    zoom windows that seed chose, not from the first seed's."""
    spec = presets.reference_network()
    constants(GAMMA_SAMPLES=1024, REFINE_SWEEPS=1)
    got = _assert_same_search(spec, presets.reference_diagrams(), _Landscape)
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


def _filled(block, spec, ds, v_box):
    """A `_seed_blocks` block as (X, V, F, G, rows, D): a Sobol block is its
    draw, which the consumer maps to rows (`_cloud_rows`) and evaluates like
    this."""
    if isinstance(block, tuple):
        return block
    X, V, D = _cloud_rows(block, spec, ds, v_box)
    return X, V, demand_batch(ds, D, X), supply_batch(ds, D, X), np.arange(len(X)), D


def _expanded(block, spec, ds, v_box):
    """A `_seed_blocks` block as (X, V, D, F, G) on every stream row."""
    X, V, F, G, rows, D = _filled(block, spec, ds, v_box)
    return X[rows], V[rows], D, F[rows], G[rows]


def _stream(spec, ds, n_samples, seed):
    """The seed blocks expanded to every stream row and stacked into
    (X, V, D, F, G), checking that each block covers at most `_block_rows`
    stream rows of one kind and that its X, V and D are the reference
    cloud's rows.  A Sobol block's witness form, X cell-major and V and d4
    at every cell taken as a junction, holds the same rows."""
    v_box = _v_box(spec, ds)
    want = oracles.seed_cloud_reference(spec, ds, v_box, n_samples, seed)
    n_struct, blocks, end = _jam_pattern_rows(spec), [], 0
    for block in _seed_blocks(spec, ds, v_box, n_samples, seed):
        jam = isinstance(block, tuple)
        lo, end = end, end + len(block[4] if jam else block)
        assert 0 < end - lo <= _block_rows(spec.n)
        assert (lo < n_struct) == (end <= n_struct) == jam  # one kind per block
        if not jam:
            X, V, d4 = _cloud_rows(block, spec, ds, v_box, np.arange(spec.n))
            assert X.flags.c_contiguous and d4.shape == (end - lo, 1)
            for got, ref in zip((X.T, V, d4), (want[0], want[1], want[2][:, 3:])):
                assert np.array_equal(got, ref[lo:end])
        block = _expanded(block, spec, ds, v_box)
        for got, ref in zip(block[:3], want):
            assert np.array_equal(got, ref[lo:end])
        blocks.append(block)
    assert end == len(want[0])
    return tuple(np.vstack(part) for part in zip(*blocks))


@pytest.mark.parametrize("n_samples", [300, 1000])
@pytest.mark.parametrize("net", ["benchmark", "20 cells"])
def test_seed_stream_equals_the_whole_cloud(net, n_samples):
    """The blocks' X, V and D, expanded to every stream row, are the
    reference cloud's rows bit for bit, with a Sobol part of 512 rows (under
    one block) or 1,024 (one block); the benchmark's 8,160 jam-pattern rows
    end inside a block."""
    spec, ds = _net(net)
    X = _stream(spec, ds, n_samples, 3)[0]
    assert len(X) - _jam_pattern_rows(spec) == (512 if n_samples == 300 else 1024)


@pytest.mark.parametrize("net", ["benchmark", "20 cells"])
def test_jam_pattern_seeds_come_from_corner_tables(net):
    """Every block yields the demands and supplies of its own rows: the
    jam-pattern blocks gather them from 16-corner x {0, a} tables, the Sobol
    blocks evaluate them.  Expanded to every stream row, both equal
    `demand_batch`/`supply_batch` of the reference rows, and the jam-pattern
    rows' throttles equal the junction loop's.  On the benchmark the 8,160
    jam-pattern rows end inside a block; above 12 cells they are 131,072."""
    spec, ds = _net(net)
    n_struct = _jam_pattern_rows(spec)
    assert n_struct == (8160 if net == "benchmark" else 4096 * 32)
    if net == "benchmark":
        assert n_struct % _block_rows(spec.n) != 0
    X, V, D, F, G = _stream(spec, ds, 1024, 3)
    for part, ref in zip((F, G), _curves(ds, X, D)):
        assert np.array_equal(part, ref)
    S = ThrottleBound(spec, ds).allocate(F[:n_struct], G[:n_struct], V[:n_struct])
    assert np.array_equal(S, oracles.stilde_bound_loop(spec, ds)(
        X[:n_struct], V[:n_struct], D[:n_struct]))


def _searched(spec, ds, bound, seed):
    """`drain_constants` with `bound`, a ThrottleBound subclass, standing in,
    and the (F, G, V) of the seeds it kept: the first coordinate scan (an x
    scan) bounds the finite kept seeds, in kept order, as its base points
    right before its first local allocation.  Needs REFINE_SWEEPS >= 1."""
    seen = {}

    class Recording(bound):
        def allocate(self, F, G, V, cell=None, S=None, cells=None):
            if cell is not None:
                seen.setdefault("base", seen["last"])
            elif "base" not in seen and cells is None:
                seen["last"] = (F.copy(), G.copy(), V.copy())
            return super().allocate(F, G, V, cell, S, cells)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "ThrottleBound", Recording)
        got = drain_constants(spec, ds, weights_r(spec), seed=seed)
    return got, seen["base"]


class _Ties(ThrottleBound):
    """A uniform throttle: 0.5 on the zero-inflow rows of two jam patterns,
    cell 6 alone and cells 1 and 6, which the benchmark's seed stream puts
    on either side of its first block seam; 1 on the other zero-inflow rows
    with at most two jammed cells (of zero supply); 1e308 elsewhere, so that
    S * X overflows to an infinite ratio.  It does not read F, so it is
    non-increasing in F."""

    def allocate(self, F, G, V, cell=None, S=None, cells=None):
        if cells is not None:
            return _no_witness(G, cells)
        jam, low = G == 0, (V == 0).all(axis=1)
        tie = low & jam[:, 5] & (jam.sum(axis=1) - jam[:, 0] == 1)
        c = np.where(tie, 0.5, np.where(low & (jam.sum(axis=1) <= 2), 1.0, 1e308))
        return np.repeat(c[:, None], F.shape[1], axis=1)


def test_kept_seeds_are_the_stable_order_of_the_whole_cloud(constants):
    """Equal ratios on both sides of the first block seam (`_Ties`): the
    seeds the search keeps are the first REFINE_TOP of a stable sort of the
    whole cloud's ratios, curves included, so ties go in row order.  That
    holds with 20 seeds, 16 tie rows before the seam and 4 after it, and
    with 1,100, more than the first block's rows and than the 576 finite
    ratios.  No scan undercuts 0.5, so the first tie row is the argmin."""
    spec, ds = _net("benchmark")
    B = _block_rows(spec.n)
    for k in (20, 1100):
        constants(GAMMA_SAMPLES=1024, REFINE_TOP=k, REFINE_SWEEPS=1)
        with np.errstate(over="ignore"):
            got, base = _searched(spec, ds, _Ties, seed=3)
            X, V, D = oracles.seed_cloud_reference(spec, ds, got.v_box, 1024, 3)
            F, G = _curves(ds, X, D)
            vals = _ratios(_Ties(spec, ds).allocate(F, G, V), X, weights_r(spec),
                           got.mass_floor)
        want = np.argsort(vals, kind="stable")[:k]
        want = want[np.isfinite(vals[want])]
        if k == 20:  # the 16 corners of cell 6 jammed alone, then 4 of cells 1 and 6
            assert list(want) == [*range(B - 32, B - 16), *range(B, B + 4)]
        else:
            assert len(want) == 576
        for part, ref in zip(base, (F, G, V)):
            assert np.array_equal(part, ref[want])
        assert got.n_evaluated == np.isfinite(vals).sum() == 576
        assert got.gamma == 0.5
        for key, ref in zip("xvd", (X, V, D)):
            assert np.array_equal(got.argmin[key], ref[B - 32])


def _classed_net(name):
    """(spec, ds, corner classes): the freeway curves give 4 classes (d3 x d4);
    pinning every supply scale leaves 2 (d3), and a piecewise demand curve
    on every cell as well leaves 1."""
    if name in ("benchmark", "20 cells"):
        return (*_net(name), 4)
    if name == "8 relabelled copies":
        return (*_relabelled_copies(8, 11), 4)
    spec, ds = presets.reference_network(), presets.reference_diagrams()
    pinned = tuple(replace(sf, wave=0.25) for sf in ds.supplies)
    one = name == "1 class"
    return spec, DiagramSet((PIECEWISE,) * 8 if one else ds.demands, pinned,
                            ds.d_lo, ds.d_hi), 1 if one else 2


def _rows_at(blocks, idx, spec, ds, v_box):
    """The whole cloud's expanded (X, V, D, F, G) at sorted stream rows idx."""
    got, lo = [], 0
    for block in blocks:
        block = _expanded(block, spec, ds, v_box)
        t = idx[(idx >= lo) & (idx < lo + len(block[0]))] - lo
        got.append(tuple(part[t] for part in block))
        lo += len(block[0])
    return tuple(np.vstack(part) for part in zip(*got))


@pytest.mark.parametrize("net", ["benchmark", "20 cells", "8 relabelled copies",
                                 "2 classes", "1 class"])
def test_distinct_rows_give_the_whole_cloud_ratios(net, constants):
    """A jam-pattern block bounds and weighs one row per (pattern, inflow
    end, corner class), padded to a multiple of four rows.  Expanded to
    every stream row, its ratios equal those of bounding and weighing all
    of the block's rows, which a whole-cloud call gives too
    (`test_ratios_in_blocks_equal_the_whole_batch`), and so do its curves.
    The seeds the search keeps are then those of a stable sort of the whole
    cloud, curves and inflows included, with the same count of finite
    ratios.  On 1 class the benchmark's last block of 992 rows has 62
    distinct rows, which OpenBLAS would weigh with its remainder kernel
    unpadded.  A mass floor of 1.5 jammed cells (n / 2 above 12 cells) makes
    some jam-pattern rows inf."""
    spec, ds, n_classes = _classed_net(net)
    constants(GAMMA_SAMPLES=1024, REFINE_SWEEPS=1)
    got, base = _searched(spec, ds, ThrottleBound, seed=3)
    r, bound = weights_r(spec), ThrottleBound(spec, ds)
    floor = presets.JAM * (1.5 if spec.n <= 12 else spec.n / 2)
    n_struct, whole, searched = _jam_pattern_rows(spec), [], []

    def blocks():
        return _seed_blocks(spec, ds, got.v_box, 1024, 3)

    for block in blocks():
        X, V, F, G, rows, D = _filled(block, spec, ds, got.v_box)
        Xe, Ve, De, Fe, Ge = _expanded(block, spec, ds, got.v_box)
        for part, ref in zip((Fe, Ge), _curves(ds, Xe, De)):
            assert np.array_equal(part, ref)
        S = bound.allocate(Fe, Ge, Ve)
        searched.append(_ratios(S.copy(), Xe, r, got.mass_floor))
        full = _ratios(S, Xe, r, floor)
        assert np.array_equal(_ratios(bound.allocate(F, G, V), X, r, floor)[rows], full)
        if sum(map(len, whole)) < n_struct:
            distinct = len(rows) // 16 * n_classes
            assert len(X) == distinct + -distinct % 4
        whole.append(full)
    whole, searched = np.concatenate(whole), np.concatenate(searched)
    assert np.isinf(whole[:n_struct]).any() and np.isfinite(whole[:n_struct]).any()
    want = np.argsort(searched, kind="stable")[:stability.REFINE_TOP]
    want = want[np.isfinite(searched[want])]
    _, V, _, F, G = _rows_at(blocks(), np.sort(want), spec, ds, got.v_box)
    for part, ref in zip(base, (F, G, V)):
        assert np.array_equal(part, ref[np.argsort(np.argsort(want))])
    assert got.n_evaluated == np.isfinite(searched).sum()


@pytest.mark.parametrize("n", [8, 20, 64, 512])
def test_seed_blocks_keep_to_the_block_rule(n):
    """Every block covers at most 1,024 stream rows and max(65,536, 64 n)
    entries, and bounds a multiple of four rows: 1,024 rows up to 64 cells,
    then the largest power of two in 65,536 / n, at least 64."""
    assert [_block_rows(m) for m in (1, 8, 64, 65, 100, 256, 512, 1024, 3000)] == \
        [1024, 1024, 1024, 512, 512, 256, 128, 64, 64]
    spec, ds = _net("benchmark") if n == 8 else (_twenty_cells() if n == 20 else
                                                 _relabelled_copies(n // 8, 1))
    rows_seen = 0
    for block in _seed_blocks(spec, ds, _v_box(spec, ds), 300, 1):
        jam = rows_seen < _jam_pattern_rows(spec)
        assert isinstance(block, tuple) == jam
        if jam:
            X, V, F, G, rows, D = block
            assert len(X) % 4 == 0 and len(X) <= len(rows)
            assert V.shape == F.shape == G.shape == X.shape and len(D) == len(rows)
        else:  # a Sobol block is its draw, which the consumer evaluates
            rows = block
            assert block.shape == (len(block), 2 * n + 4) and len(block) % 4 == 0
        assert len(rows) <= 1024 and len(rows) * n <= max(65_536, 64 * n)
        rows_seen += len(rows)
    assert rows_seen == _jam_pattern_rows(spec) + 512


@pytest.mark.parametrize("n", [20, 64, 512])
def test_chunked_pattern_draw_equals_the_whole_draw(n):
    """Above 12 cells the random jam patterns are drawn one block's worth
    at a time; the chunks are the rows of one (4096, n) draw."""
    chunk = _block_rows(n) // 32
    got = np.vstack(list(_jam_patterns(n, 5, chunk)))
    assert np.array_equal(got, _philox(5 ^ 0x9E3779B9).random((4096, n)) < 0.5)
    assert chunk == {20: 32, 64: 32, 512: 4}[n]


@pytest.mark.parametrize("n", [8, 64, 128])
def test_ratios_in_blocks_equal_the_whole_batch(n):
    """The search weighs the seed cloud one block at a time and every scan's
    seeds as one (K, 33, n) stack.  Both must give each row the bits of one
    whole-batch call, rows below the mass floor included (they read inf).
    BLAS may round a row differently in another batch shape: OpenBLAS gives
    the last two rows of a batch that leaves 2 or 3 rows over a multiple of
    four to another kernel, which is why `_ratios` weighs every row and
    masks afterwards instead of weighing only the rows above the floor, and
    why every seed block weighs a multiple of four rows."""
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
    B = _block_rows(n)
    blocks = [_ratios(S[lo:lo + B].copy(), X[lo:lo + B], r, floor) for lo in range(0, N, B)]
    assert N % B and np.array_equal(np.concatenate(blocks), want)
    stacked = _ratios(S.reshape(-1, 33, n).copy(), X.reshape(-1, 33, n), r, floor)
    assert np.array_equal(stacked.ravel(), want)
    ok = ~np.isinf(want)
    np.testing.assert_allclose(want[ok], ((S * X)[ok] @ r) / (X[ok] @ r), rtol=1e-15)


def test_gamma_search_runs_in_fixed_memory(constants):
    """262,144 seeds on 20 cells: holding the whole cloud's X, V, D and S
    peaked at 138 MiB; the stream keeps one block and its best seeds."""
    spec, ds = _twenty_cells()
    r = weights_r(spec)
    constants(GAMMA_SAMPLES=2 ** 17, REFINE_SWEEPS=1)
    tracemalloc.start()
    try:
        got = drain_constants(spec, ds, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n_evaluated > 2 ** 17
    assert peak < 16 * 2 ** 20


class _CurveSensitiveBound(ThrottleBound):
    """A stand-in allocation whose throttles swing with every supply and
    inflow value and fall with every demand, so that every kind of scan
    keeps finding improvements.  A stale, misplaced or wrongly weighted
    curve value in any scan then changes the path of the search."""

    def allocate(self, F, G, V, cell=None, S=None, cells=None):
        if cells is not None:
            return _no_witness(G, cells)
        return 0.55 + 0.4 * np.cos(0.11 * G + 0.05 * V) - 0.004 * F


class _Floors(ThrottleBound):
    """A uniform throttle in [0, 1], looked up in `table` by a row's inflow
    into cell 2 (0-based 1), a junction of the benchmark's heaviest cell: a
    (floor, exact) pair, the floor when every demand is at its cap, as the
    search asks the witness form, the exact value otherwise.  Other rows
    read 1.  No floor exceeds its exact value, so the throttle is
    non-increasing in F."""

    table = {}

    def __init__(self, spec, ds):
        super().__init__(spec, ds)
        self.fcap = ds._fcap

    def allocate(self, F, G, V, cell=None, S=None, cells=None):
        if cells is not None and 1 not in self.junctions(cells):
            return _no_witness(G, cells)
        key = V[:, 1 if cells is None else list(self.junctions(cells)).index(1)]
        exact = (F < self.fcap).any(axis=1).tolist()
        c = [self.table.get(v, (1.0, 1.0))[e] for v, e in zip(key.tolist(), exact)]
        return np.repeat(np.array(c)[:, None], F.shape[1] if cells is None else len(cells),
                         axis=1)


BOUNDS = {"built-in": ThrottleBound, "overflowing": _Overflowing,
          "landscape": _Landscape, "curve-sensitive": _CurveSensitiveBound,
          "floors": _Floors}


@pytest.mark.parametrize("name", BOUNDS)
def test_allocate_is_non_increasing_in_demand(name):
    """The search skips a Sobol block whose witness floor, its heaviest
    cells' bounds under every demand at its cap, rules it out, so F <= F'
    entrywise must give allocate(F') <= allocate(F), for the built-in bound
    and for every stand-in the tests swap in.  Raised demands: random increments, whole
    rows at the caps, and unchanged rows; on the benchmark's first block of
    jam-pattern seeds (which reach the stand-ins' jam cases) and on random
    states of the benchmark and of dense random nets, among them nets where
    a sender claims at two junctions of one level."""
    rng = np.random.default_rng(31)
    spec, ds = _net("benchmark")
    v_box = _v_box(spec, ds)
    X, V, _, F, G = _expanded(next(_seed_blocks(spec, ds, v_box, 300, 1)), spec, ds, v_box)
    cases, nets, shapes = [(spec, ds, F, G, V)], [(spec, ds)], []
    for _ in range(12):
        n = int(rng.integers(3, 16))
        spec = _spec_for(_dense_net(rng, n), rng)
        nets.append((spec, _diagrams_for(n, rng, tuple(np.nonzero(rng.random(n) < 0.3)[0]),
                                         0.2)))
        shapes.append(_claim_shape(spec))
    assert sum(repeats for _, repeats in shapes) >= 3
    for spec, ds in nets:
        X, V, D = _states(spec, ds, rng, 300)
        cases.append((spec, ds, *_curves(ds, X, D), V))
    for spec, ds, F, G, V in cases:
        up = F + rng.uniform(0.0, 40.0, F.shape) * (rng.random(F.shape) < 0.5)
        up[::7] = ds._fcap
        up[1::7] = F[1::7]
        bound = BOUNDS[name](spec, ds)
        assert (bound.allocate(up, G, V) <= bound.allocate(F, G, V)).all()


def test_search_skips_a_block_its_floor_rules_out(monkeypatch, constants):
    """Two seeds kept, the benchmark's jam-pattern seeds all of ratio 1/4,
    and four Sobol blocks (`_Floors`, 1 elsewhere): block 0 holds a row of
    ratio 1/8, so its witness floor cannot rule it out; block 1 none below
    1; block 2 a floor of 1/16 over an exact 1/8; block 3 a row of 1/2,
    which from the heaviest cells alone still lies above the last kept
    ratio, now 1/8.  Blocks 1 and 3 are skipped: their rows never reach
    `demand_batch`, they make `n_ruled_out`, and their rows, all above the
    mass floor, count in `n_evaluated`.  Blocks 0 and 2 are evaluated, and
    block 2 is merged by its exact ratio, after the equal one of block 0."""
    spec, ds = _net("benchmark")
    constants(GAMMA_SAMPLES=4096, REFINE_TOP=2, REFINE_SWEEPS=0)
    caps = np.minimum(spec.vmax, ds.min_supply_at_zero())
    v_box = caps - 0.5 * caps.min()  # the search's inflow box
    sobol = [block for block in _seed_blocks(spec, ds, v_box, 4096, 5)
             if not isinstance(block, tuple)]
    rows = [_cloud_rows(u, spec, ds, v_box) for u in sobol]
    key = [V[:, 1].tolist() for _, V, _ in rows]
    table = {0.0: (0.25, 0.25), float(v_box[1]): (0.25, 0.25),  # the jam-pattern rows
             key[0][3]: (0.125, 0.125), key[2][5]: (0.0625, 0.125), key[3][7]: (0.5, 0.5)}
    monkeypatch.setattr(_Floors, "table", table)
    evaluated = []
    monkeypatch.setattr(stability, "demand_batch",
                        lambda ds, D, X: evaluated.append(X) or demand_batch(ds, D, X))
    got = _assert_same_search(spec, ds, _Floors, seed=5)
    evaluated = [X for X in evaluated if len(X) == _block_rows(spec.n)]
    assert len(sobol) == 4 and len(evaluated) == 2
    for X, b in zip(evaluated, (0, 2)):
        assert np.array_equal(X, rows[b][0])
    assert got.n_ruled_out == 2 * _block_rows(spec.n)
    assert got.n_evaluated == _jam_pattern_rows(spec) + 4096
    assert got.gamma == 0.125
    for key, part in zip("xvd", rows[0]):
        assert np.array_equal(got.argmin[key], part[3])


def _uncapped(ds):
    """`ds` with every demand cap infinite, so that no block is ruled out."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagrams, "demand_cap", lambda fd: math.inf)
        return DiagramSet(ds.demands, ds.supplies, ds.d_lo, ds.d_hi)


@pytest.mark.parametrize("net", ["benchmark", "piecewise and pinned cells", "20 cells",
                                 "corridor of 8 copies"])
def test_skipping_sobol_blocks_changes_no_bit(net, monkeypatch, constants):
    """With every demand cap infinite no Sobol block is skipped.  The search
    gives the same gamma, C, argmin and n_evaluated bit for bit either way,
    and the caps do skip blocks: counted by `n_ruled_out`, and by the rows
    that do not reach `demand_batch`; on the benchmark at the default
    100,000 samples every Sobol row is ruled out."""
    spec, ds = {"benchmark": lambda: _net("benchmark"),
                "piecewise and pinned cells": lambda: _pinned_benchmark((1, 2, 5)),
                "20 cells": _twenty_cells,
                "corridor of 8 copies": lambda: _corridor(8, 11)}[net]()
    if spec.n > 12:
        constants(GAMMA_SAMPLES=2 ** 14, REFINE_SWEEPS=1)
    uncapped = _uncapped(ds)
    assert np.isfinite(ds._fcap).all() and np.isinf(uncapped._fcap).all()
    rows = []
    monkeypatch.setattr(stability, "demand_batch",
                        lambda ds, D, X: rows.append(len(X)) or demand_batch(ds, D, X))
    got = []
    for curves in (ds, uncapped):
        rows.clear()
        got.append((drain_constants(spec, curves, weights_r(spec)), sum(rows)))
    (capped, n_capped), (full, n_full) = got
    assert capped.gamma == full.gamma and capped.C == full.C
    assert capped.n_evaluated == full.n_evaluated
    assert capped.argmin["ratio"] == full.argmin["ratio"]
    for key in "xvd":
        assert np.array_equal(capped.argmin[key], full.argmin[key])
    cloud, skipped = 2 ** math.ceil(math.log2(stability.GAMMA_SAMPLES)), capped.n_ruled_out
    assert 0 < skipped <= cloud and skipped % _block_rows(spec.n) == 0
    assert full.n_ruled_out == 0 and n_full - n_capped == skipped
    if net == "benchmark":
        assert skipped == cloud


@pytest.mark.parametrize("net", ["benchmark", "piecewise and pinned cells",
                                 "degenerate box", "20 cells"])
def test_scans_reuse_curves_like_a_full_evaluation(net, monkeypatch, constants):
    """The search (tables, base-point curves, one re-evaluated column)
    against the reference, which evaluates this bound on whole rows."""
    spec, ds = {"benchmark": lambda: (presets.reference_network(),
                                      presets.reference_diagrams()),
                "piecewise and pinned cells": lambda: _pinned_benchmark((1, 2, 5)),
                "degenerate box": _degenerate_box,
                "20 cells": _twenty_cells}[net]()
    constants(GAMMA_SAMPLES=1024, REFINE_SWEEPS=1 if spec.n > 12 else 2)
    got = _assert_same_search(spec, ds, _CurveSensitiveBound, seed=6)
    monkeypatch.setattr(stability, "ThrottleBound", _CurveSensitiveBound)
    constants(REFINE_SWEEPS=0)
    seeds = drain_constants(spec, ds, weights_r(spec), seed=6)
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


def _witness_log(mp):
    """Patch `stability._cloud_rows` to log each Sobol block the search
    draws as [draw, witness form asked, rows evaluated]."""
    log = []

    def logged(u, spec, ds, v_box, junctions=None):
        if not log or log[-1][0] is not u:
            log.append([u, False, False])
        log[-1][1 if junctions is not None else 2] = True
        return _cloud_rows(u, spec, ds, v_box, junctions)

    mp.setattr(stability, "_cloud_rows", logged)
    return log


def _assert_witness_floor_sound(spec, ds, seed, reference=True):
    """Runs the search, against the reference if `reference`, and checks
    every Sobol block it ruled out: each finite ratio of the block, as
    `_ratios` weighs it, is at least kappa, the REFINE_TOP-th smallest
    ratio of the stream rows before the block (in stable order), which is
    the last kept ratio there.  The count of the whole stream's finite
    ratios is n_evaluated, and with REFINE_SWEEPS = 0 gamma and its argmin
    are the stream's first smallest ratio and its row.  Returns (blocks
    ruled out, blocks evaluated after the witness form was asked)."""
    r = weights_r(spec)
    with pytest.MonkeyPatch.context() as mp:
        log = _witness_log(mp)
        got = (_assert_same_search(spec, ds, seed=seed) if reference
               else drain_constants(spec, ds, r, seed=seed))
    bound, ratios, rows = ThrottleBound(spec, ds), [], []
    for block in _seed_blocks(spec, ds, got.v_box, stability.GAMMA_SAMPLES, seed):
        X, V, F, G, idx, D = _filled(block, spec, ds, got.v_box)
        ratios.append(_ratios(bound.allocate(F, G, V), X, r, got.mass_floor)[idx])
        rows.append((X[idx], V[idx], D))
    sobol = [b for b, block in enumerate(ratios) if len(ratios) - b <= len(log)]
    ruled_out = 0
    for b, (u, asked, evaluated) in zip(sobol, log):
        assert asked or evaluated
        if evaluated:
            continue
        ruled_out += 1
        prior = np.concatenate(ratios[:b])
        kappa = np.sort(prior, kind="stable")[stability.REFINE_TOP - 1]
        finite = ratios[b][np.isfinite(ratios[b])]
        assert (finite >= kappa).all()
    assert len(log) == len(sobol)
    assert got.n_ruled_out == ruled_out * _block_rows(spec.n)
    whole = np.concatenate(ratios)
    assert got.n_evaluated == np.isfinite(whole).sum()
    if stability.REFINE_SWEEPS == 0:
        k = int(np.argmin(whole))
        assert got.gamma == whole[k]
        for key, part in zip("xvd", (np.vstack(p) for p in zip(*rows))):
            assert np.array_equal(got.argmin[key], part[k])
    return ruled_out, sum(asked and evaluated for _, asked, evaluated in log)


@pytest.mark.parametrize("net", ["random nets", "20 cells", "corridor of 8 copies"])
def test_witness_floor_rules_out_only_blocks_at_or_above_kappa(net, constants):
    """Random acyclic nets built as `oracles.random_acyclic_instance` builds
    them, with `piecewise` cells and pinned waves, among them nets where a
    sender claims at two junctions of one level, and the 20- and 64-cell
    nets: every block the witness floor rules out holds no finite ratio
    below the last kept one, and the search equals the reference (the whole
    stream's ratios on 64 cells) bit for bit.  The random nets have blocks
    ruled out and blocks the witness floor cannot rule out, which are
    evaluated."""
    constants(GAMMA_SAMPLES=4096, REFINE_SWEEPS=1 if net == "random nets" else 0)
    if net != "random nets":
        spec, ds = _twenty_cells() if net == "20 cells" else _corridor(8, 11)
        ruled_out, fallback = _assert_witness_floor_sound(spec, ds, 7, reference=spec.n < 64)
        assert ruled_out == 4 and fallback == 0
        return
    rng, repeats, piecewise, ruled_out, fallback = np.random.default_rng(42), 0, 0, 0, 0
    for _ in range(10):
        spec, ds = _random_net(rng)
        counts = _assert_witness_floor_sound(spec, ds, 3)
        ruled_out, fallback = ruled_out + counts[0], fallback + counts[1]
        repeats += any(spec.predecessors) and _claim_shape(spec)[1]
        piecewise += bool(ds._piecewise)
    assert repeats >= 5 and piecewise >= 4
    assert ruled_out >= 15 and fallback >= 15


def _planted(plant):
    """The search's Sobol' engine with its third block of points passed
    through `plant`, which writes into the draw."""
    class Planted(Sobol):
        def random(self, n):
            u = super().random(n)
            if self.num_generated == 3 * n:
                plant(u)
            return u
    return Planted


def _assert_same_as_uncapped(spec, ds, plant, bound=ThrottleBound):
    """The search on a planted cloud, capped and uncapped: the same gamma,
    argmin and n_evaluated.  Returns the capped search and its block log."""
    got = []
    for curves in (ds, _uncapped(ds)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "Sobol", _planted(plant))
            mp.setattr(stability, "ThrottleBound", bound)
            log = _witness_log(mp)
            got.append((drain_constants(spec, curves, weights_r(spec)), log))
    (capped, log), (full, _) = got
    assert capped.gamma == full.gamma and capped.n_evaluated == full.n_evaluated
    for key in "xvd":
        assert np.array_equal(capped.argmin[key], full.argmin[key])
    return capped, log


def test_a_row_at_the_mass_floor_sends_its_block_to_evaluation(constants):
    """Row 5 of the third Sobol block is planted with cell 1 (0-based 0)
    just below the benchmark's mass floor and seven cells at half a unit in
    its last place: its mass reaches the floor in `_ratios`' pairwise order
    and falls below it cell by cell.  The witness floor cannot tell which,
    so the block is evaluated and n_evaluated counts the row as `_ratios`
    does; the other three blocks are ruled out."""
    spec, ds = _net("benchmark")
    constants(GAMMA_SAMPLES=4096, REFINE_SWEEPS=0)
    floor, a = drain_constants(spec, ds, weights_r(spec)).mass_floor, spec.a[0]

    def fraction(x):
        """A fraction of the jam density a that the draw maps to x exactly."""
        u = x / a
        for _ in range(4):
            if u * a == x:
                return u
            u = np.nextafter(u, math.inf if u * a < x else -math.inf)
        return None

    big = np.nextafter(floor, 0.0)
    while not (np.frexp(big)[0] * 2.0 ** 53 % 2 == 0 and fraction(big) is not None):
        big = np.nextafter(big, 0.0)  # an even last bit: adding half a unit rounds to it
    row = [fraction(big)] + [fraction(math.ulp(big) / 2)] * 7

    def plant(u):
        u[5, :8] = row
        X, XT = _cloud_rows(u, spec, ds, _v_box(spec, ds))[0], (
            _cloud_rows(u, spec, ds, _v_box(spec, ds), np.arange(8))[0])
        assert X.sum(axis=-1)[5] >= floor > XT.sum(axis=0)[5]

    got, log = _assert_same_as_uncapped(spec, ds, plant)
    assert [asked for _, asked, _ in log] == [True] * 4
    assert [evaluated for _, _, evaluated in log] == [False, False, True, False]
    assert got.n_ruled_out == 3 * _block_rows(spec.n)


class _Half(ThrottleBound):
    """Every throttle 1/2, in every form: every ratio is exactly 1/2."""

    def allocate(self, F, G, V, cell=None, S=None, cells=None):
        return np.full((len(G), F.shape[1] if cells is None else len(cells)), 0.5)


def test_a_witness_floor_within_the_margin_of_kappa_rules_nothing_out(constants):
    """Every throttle 1/2 (`_Half`), so kappa is exactly 1/2.  The third
    Sobol block is planted with densities on the benchmark's four heaviest
    cells only, multiples of 1/64, whose every product and sum is exact: its
    witness floor meets kappa times its weighted mass exactly, which is
    within the margin and not above it.  So that block is evaluated too,
    and no block is ruled out."""
    spec, ds = _net("benchmark")
    constants(GAMMA_SAMPLES=4096, REFINE_SWEEPS=0)
    assert np.array_equal(np.argsort(-weights_r(spec))[:4], np.arange(4))
    grid = np.random.default_rng(3).integers(0, 129, (_block_rows(spec.n), 4)) / 128.0

    def plant(u):
        u[:, :8] = np.c_[grid, np.zeros((len(u), 4))]  # densities k * 170 / 128 = k * 85 / 64

    got, log = _assert_same_as_uncapped(spec, ds, plant, _Half)
    assert got.gamma == 0.5 and got.n_ruled_out == 0
    assert [asked and evaluated for _, asked, evaluated in log] == [True] * 4
