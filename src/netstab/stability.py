"""Certificate pipeline: weights, drain constants, comparison matrix, bounds.

The pipeline has two stages.  Stage one depends on the network alone: the
geometric cell weights r, the excess-propagation weights xi with the invariant
box they certify, and the drain constants (Q, Theta, gamma, C) bounding how
much weighted mass every step must release.  Stage two adds a controller
(synthesizing one if needed), builds the comparison matrix Gamma for the
stacked deviation vector, and converts C into a worst-case step count m after
which any trajectory is trapped inside the invariant box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import control
from .control import ControllerConfig, h_map
from .diagrams import (DiagramSet, _demand_values, _philox, _supply_values,
                       check_pair, d_corners, demand_batch, supply_batch,
                       uniform_uncertainty)
from .dynamics import step
from .errors import (DimensionError, NumericalError, StructuralError,
                     ThrottleBoundViolation, TrappingInfeasible)
from .network import NetworkSpec, check_spec, group_claims
from .sobol import Sobol

SQUARINGS = 48         # matrix squarings in the spectral-radius estimator
CONTRACTION_TOL = 1e-9  # largest violation the contraction check lets pass
CONTRACTION_SAMPLES = 2000  # closed-loop steps the contraction check samples
CONTRACTION_CHUNK = 128  # samples the contraction check steps and compares at a time
JAM_PATTERN_LIMIT = 12  # enumerate binary jam patterns up to this cell count
BLOCK_ENTRIES = 65_536  # entries (rows x cells) per block of the gamma search's seed stream
SCAN_WIDTH = 33         # grid points per zoom level of a gamma-search scan
GAMMA_SAMPLES = 100_000  # Sobol points of the gamma search, rounded up to a power of two
REFINE_TOP = 8          # best seeds the gamma search refines
REFINE_SWEEPS = 3       # coordinate-descent sweeps over every x, v and d coordinate
WITNESS_CELLS = 4       # heaviest cells whose throttle floor first bounds a Sobol' block
WITNESS_MARGIN = 2.0 ** -30  # relative margin of the witness floor's comparisons


def weights_r(spec: NetworkSpec) -> np.ndarray:
    """Cell weights halving along the flow direction: r_i = 2^(n-1-rank_i).

    All successors of a cell sit at least one topological rank downstream and
    row sums of P are at most one, so the weighted routing loses at least half
    the weight per hop: sum_j P[i, j] r_j < r_i strictly.  That margin is what
    the drain constants build on; its failure is reported as structural.
    The weights overflow float64 beyond n = 1024 cells, which raises
    NumericalError naming the first cell whose weight is infinite.
    """
    rank = spec.order.rank()
    n = spec.n
    with np.errstate(over="ignore"):
        r = np.power(2.0, n - 1 - rank)
    huge = ~np.isfinite(r)
    if huge.any():
        i = int(np.argmax(huge))
        raise NumericalError(
            f"cell {i + 1}: weight 2^{n - 1 - rank[i]} overflows float64 "
            f"(halving weights allow at most 1024 cells, the network has {n})",
            cell=i)
    slack = r - spec.P @ r
    bad = ~(slack > 0)  # NaN fails too
    if bad.any():
        i = int(np.argmin(np.where(bad, slack, np.inf)))
        raise StructuralError(
            f"cell {i + 1}: routed weight is not strictly dominated "
            f"(slack {slack[i]:.3g})")
    return r


def weights_xi(spec: NetworkSpec, L: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Excess-propagation weights: source cells get 1, others amplify inflow.

    Along a topological order, xi_i = (2 / L_i) * sum of G_j xi_j over the
    predecessors j of i.  The factor two leaves a strict margin
    L_i xi_i > sum_j P[j, i] G_j xi_j, which makes every box
    [0, x* + eps * xi] forward invariant for small eps.
    """
    L = np.asarray(L, dtype=float)
    G = np.asarray(G, dtype=float)
    n = spec.n
    if L.shape != (n,) or G.shape != (n,):
        raise DimensionError(f"L and G must have shape ({n},)")
    if np.any(L <= 0) or np.any(G <= 0):
        raise ValueError("sector slopes must be positive")
    xi = np.zeros(n)
    for i in spec.order.order:
        preds = list(reversed(spec.predecessors[i]))  # summed in ascending order
        if not preds:
            xi[i] = 1.0
        else:
            xi[i] = (2.0 / L[i]) * float(np.sum(G[preds] * xi[preds]))
    margin = L * xi - spec.P.T @ (G * xi)
    if np.any(margin <= 0):
        i = int(np.argmin(margin))
        raise StructuralError(
            f"cell {i + 1}: inflow growth is not strictly dominated "
            f"(margin {margin[i]:.3g})")
    return xi


def spectral_radius(M: np.ndarray) -> float:
    """Spectral radius via norm-normalized repeated squaring.

    Single-vector power iteration degrades to O(1/k) convergence on repeated
    or defective leading eigenvalues, which the comparison matrix has
    whenever two cells share the slowest release rate.  Squaring instead
    evaluates ||M^(2^J)||_F^(1/2^J) with the scale tracked in log space, so
    the polynomial Jordan factor is annihilated by the 2^-J exponent.

    `certify` does not use it: `build_gamma` reads rho off the triangular
    structure exactly, while the squarings here underflow to 0 on badly
    scaled matrices (a mainline's gains grow like (2G/L)^depth).  It remains
    an independent estimate to check that value against.
    """
    B = np.array(M, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DimensionError("matrix must be square")
    if not np.isfinite(B).all():
        raise NumericalError("matrix has non-finite entries")
    scale = float(np.linalg.norm(B))
    if scale == 0.0:
        return 0.0
    B /= scale
    log_acc = math.log(scale)
    for _ in range(SQUARINGS):
        B = B @ B
        s = float(np.linalg.norm(B))
        if s == 0.0:
            return 0.0  # nilpotent
        B /= s
        log_acc = 2.0 * log_acc + math.log(s)
    return math.exp(log_acc / 2.0 ** SQUARINGS)


def build_gamma(spec: NetworkSpec, L, G, vstar, b, K, tau) -> tuple[np.ndarray, float]:
    """Comparison matrix for the stacked deviation vector (excess, deficit).

    Gamma = [[A, 0], [diag(v* - b) K / tau, A]] with
    A = I + P' diag(G) - diag(L): excesses contract on their own, deficits
    additionally absorb whatever inflow the controller withholds, which the
    lower-left block bounds through the gain.  A couples each cell only to
    its upstream senders, so in topological order it is lower triangular and
    Gamma is block lower-triangular with triangular diagonal blocks.  Its
    spectral radius is then exactly the largest diagonal modulus,
    max_i |1 - L_i| for a network without self-loops.  That structure is
    checked entry by entry: a nonzero coupling to a cell placed later in the
    order raises StructuralError naming both cells.
    """
    L = np.asarray(L, dtype=float)
    G = np.asarray(G, dtype=float)
    vstar = np.asarray(vstar, dtype=float)
    b = np.asarray(b, dtype=float)
    K = np.asarray(K, dtype=float)
    n = spec.n
    A = np.eye(n) + spec.P.T * G - np.diag(L)
    B = (vstar - b)[:, None] * K / tau
    Gamma = np.block([[A, np.zeros((n, n))], [B, A]])
    bad = ~np.isfinite(Gamma).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad)) % n
        raise NumericalError(f"cell {i + 1}: comparison matrix has non-finite "
                             f"entries", cell=i)
    order = list(spec.order.order)
    upper = np.triu(A[np.ix_(order, order)], k=1)
    if np.any(upper != 0):
        row, col = (int(k) for k in np.argwhere(upper != 0)[0])
        i, j = order[row], order[col]
        raise StructuralError(
            f"cell {i + 1}: Gamma couples it to cell {j + 1} ({A[i, j]:.3g}), "
            f"which the topological order places after it, so Gamma is not "
            f"triangular")
    rho = float(np.max(np.abs(np.diag(A))))
    return Gamma, rho


def invariant_region(xstar, xi, mu) -> tuple[float, np.ndarray]:
    """Largest box ceiling beta = x* + eps* xi that stays below mu.

    eps* = min_i (mu_i - x*_i) / xi_i; the returned beta is clipped to mu so
    rounding at the binding cell cannot push it above the threshold.  Raises
    ValueError when some equilibrium density already reaches mu, and
    NumericalError naming the first cell whose width eps* xi_i is lost to
    rounding (beta_i == x*_i), as on long chains where xi spans many orders
    of magnitude.
    """
    xstar = np.asarray(xstar, dtype=float)
    xi = np.asarray(xi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any(xi <= 0):
        raise ValueError("weights xi must be positive")
    room = mu - xstar
    if np.any(room <= 0):
        i = int(np.argmin(room))
        raise ValueError(
            f"cell {i + 1}: equilibrium density {xstar[i]:.6g} reaches the "
            f"uncongested threshold {mu[i]:.6g}")
    epsstar = float(np.min(room / xi))
    beta = np.minimum(xstar + epsstar * xi, mu)
    flat = ~(beta > xstar)
    if flat.any():
        i = int(np.argmax(flat))
        raise NumericalError(
            f"cell {i + 1}: box width eps* xi_{i + 1} = {epsstar * xi[i]:.3g} "
            f"is lost to rounding at x*_{i + 1} = {xstar[i]:.6g} "
            f"(eps* = {epsstar:.3g}), so beta_{i + 1} does not exceed x*_{i + 1}",
            cell=i)
    return epsstar, beta


class ThrottleBound:
    """Allocation-free lower bound on the outflow throttles, batched.

    `allocate(F, G, V)` maps demands F, supplies G and inflows V, all (N, n),
    to an (N, n) array S with S <= s pointwise: each junction's remaining
    supply after external inflow and after all higher-priority attempted
    demands is divided by the claimant's worst-case demand P[i, j] * a_i
    instead of the realized one.  Demands never reach the jam capacity, so
    the realized throttle can only be larger.  The caller evaluates the
    curves, so it can reuse what it already holds: the seed cloud gathers
    its jam-pattern rows' F and G from corner tables, and a scan keeps the
    curves of the cells it does not move.  `ThrottleBound(spec, ds)` checks
    that the diagrams describe the network's cells (`check_pair`).

    The claims are grouped once by priority level (`spec.claim_levels`), so
    an allocation costs a few array operations per level, not per junction
    edge; a sender claiming at two junctions of one level takes the smaller
    bound through ``np.minimum.at``.  Every value is computed with the same
    floating-point operations as a per-junction loop, and rows do not
    interact, so S is bit-identical to the loop's at any batch size.

    `allocate(F, G, V, cell=i, S=S)` is the local form, for rows that differ
    from rows whose bounds S already holds in cell i's demand, supply or
    inflow only.  Such a change can move only the columns of the claimants
    at junction i and of the co-claimants at the junctions where i claims.
    The local form resets those columns of S, in place, and replays every
    junction at which they claim, grouped by level like the full form
    (`group_claims`, planned once per cell on first use).  The other columns
    keep their values, and a replayed junction cannot lower them:
    ``np.minimum`` is exact, so the result equals a full `allocate` bit for
    bit.  A bound that ignores `cell` and `S` and allocates in full is
    equally correct, only slower.

    `allocate(F, G, V, cells=W)` is the witness form: the bounds of the
    cells W alone, (N, len(W)), of rows whose supplies and inflows are given
    at the junctions where W claim only, G and V (N, len(J)) in the order of
    J = `junctions(W)`.  It replays those junctions, grouped by level, up to
    the last level at which a cell of W claims; every junction of a bound in
    W is among them, so the bounds equal those columns of a full `allocate`
    bit for bit.  The gamma search rules Sobol blocks out with it
    (`drain_constants`), which needs S <= 1 in every form.  A bound whose
    throttles can exceed 1, or that cannot bound W from those columns,
    answers the witness form with zeros: no block with a row of mass above
    the floor is then ruled out, and the search evaluates it.

    `allocate` is non-increasing in F: F <= F' entrywise gives
    allocate(F', G, V) <= allocate(F, G, V) entrywise, bit for bit.  A larger
    demand only subtracts more from the remaining supply of later levels,
    and every rounded operation on the way (the product p * F, the
    subtraction, the division by a positive cap, the clip and the minimum)
    is monotone.  The gamma search's skip of Sobol blocks rests on it
    (`drain_constants`), so a stand-in bound must keep it too.
    """

    def __init__(self, spec: NetworkSpec, ds: DiagramSet):
        check_pair(spec, ds)
        self.cols, self.levels = spec.claim_levels
        self.a, self.claims = spec.a, dict(spec.claims)  # junction cell -> its claims
        self.sites = [[] for _ in range(spec.n)]  # per sender, the junctions it claims at
        for j, claim in spec.claims:
            for i, _ in claim:
                self.sites[i].append(j)
        self.plans = {}  # local plans by cell, witness plans by tuple of cells

    def _plan(self, cell: int):
        """(columns a change to `cell` can move, junction cells, levels)."""
        if cell not in self.plans:
            moved = sorted({i for j in (cell, *self.sites[cell])
                            for i, _ in self.claims.get(j, ())})
            replay = sorted({j for i in moved for j in self.sites[i]})
            self.plans[cell] = (np.array(moved, dtype=int),
                                *group_claims([(j, self.claims[j]) for j in replay], self.a))
        return self.plans[cell]

    def _witness_plan(self, cells: tuple):
        """(junction cells, levels up to the last claim of `cells` with each
        sender as its position among `cells` and the senders of those
        levels, those cells, the position of each of `cells` among them)."""
        if cells not in self.plans:
            junctions, levels = group_claims(
                [(j, self.claims[j]) for j in sorted({j for i in cells for j in self.sites[i]})],
                self.a)
            levels = levels[:max((k + 1 for k, level in enumerate(levels)
                                  if np.isin(level[1], cells).any()), default=0)]
            senders = np.unique(np.concatenate([cells, *(level[1] for level in levels)]))
            levels = [(pos, np.searchsorted(senders, snd), cap, p, repeats)
                      for pos, snd, cap, p, repeats in levels]
            self.plans[cells] = (junctions, levels, senders, np.searchsorted(senders, cells))
        return self.plans[cells]

    def junctions(self, cells) -> np.ndarray:
        """The junction cells whose supplies and inflows the witness form of
        `allocate` reads for `cells`, in the order it reads them."""
        return self._witness_plan(tuple(int(i) for i in cells))[0]

    def allocate(self, F: np.ndarray, G: np.ndarray, V: np.ndarray,
                 cell: int | None = None, S: np.ndarray | None = None,
                 cells: np.ndarray | None = None) -> np.ndarray:
        """Throttle bounds from demands F, supplies G and inflows V, all (N, n).

        With `cell`, S holds the bounds of the rows before `cell` moved; only
        the columns that can move are recomputed, in S itself.  With
        `cells`, G and V hold the columns of `junctions(cells)` only, and the
        bounds of `cells` are returned.
        """
        if cells is not None:  # S and F over the senders of the replayed levels
            _, levels, senders, picks = self._witness_plan(tuple(int(i) for i in cells))
            F, S, cols = F[:, senders], np.ones((len(senders), len(G))).T, slice(None)
        elif cell is None:
            cols, levels = self.cols, self.levels
            S = np.ones(F.shape)  # C order also for a broadcast F, so `_ratios` weighs S alike
        else:
            moved, cols, levels = self._plan(cell)
            S[:, moved] = 1.0
        rem = G[:, cols] - V[:, cols]
        for k, (pos, snd, cap, p, repeats) in enumerate(levels):
            frac = np.clip(rem[:, pos] / cap, 0.0, 1.0)
            if repeats:
                np.minimum.at(S.T, snd, frac.T)
            else:
                S[:, snd] = np.minimum(S[:, snd], frac)
            if k + 1 < len(levels):
                rem[:, pos] -= p * F[:, snd]
        return S if cells is None else S[:, picks]


@dataclass(frozen=True)
class DrainConstants:
    """Sampled lower bound on the weighted mass released per step.

    C = Qconst * Theta * min(1, gamma): Qconst is the routing loss under the
    weights r, theta_i the guaranteed outflow fraction of a full cell, and
    gamma the sampled infimum of the throttled weighted-mass ratio over the
    state box, the admissible inflow box ``v_box``, and the uncertainty box
    (states below ``mass_floor`` total mass are excluded).  ``n_evaluated``
    counts the seed rows of finite ratio, ``n_ruled_out`` the Sobol' rows
    whose block the witness floor ruled out before their demands were
    evaluated.
    """

    Qconst: float
    theta: np.ndarray
    Theta: float
    gamma: float
    C: float
    argmin: dict
    v_box: np.ndarray
    mass_floor: float
    n_evaluated: int
    n_ruled_out: int


def _block_rows(n: int) -> int:
    """Stream rows per seed block on n cells: the largest power of two up to
    BLOCK_ENTRIES / n, at least 64 and at most 1,024.

    A block's (rows, n) arrays then hold at most max(BLOCK_ENTRIES, 64 n)
    entries, and a block always holds whole jam patterns (32 rows each).
    The cap keeps small networks at 1,024 rows: 8,192-row blocks at n = 8
    raised the benchmark's peak RSS by 5.5 MB.
    """
    return max(64, min(1024, 1 << (max(1, BLOCK_ENTRIES // n).bit_length() - 1)))


def _jam_patterns(n: int, seed: int, chunk: int):
    """The gamma search's binary jam patterns, `chunk` patterns at a time.

    Up to JAM_PATTERN_LIMIT cells these are every pattern but the all-empty
    one; above, 4096 random ones, drawn chunk by chunk from one Philox
    stream, which gives the bits of one (4096, n) draw.
    """
    if n <= JAM_PATTERN_LIMIT:
        codes = np.arange(1, 2 ** n)
        patterns = (codes[:, None] >> np.arange(n)[None, :]) & 1
        yield from (patterns[lo:lo + chunk] for lo in range(0, len(patterns), chunk))
    else:
        rng = _philox(seed ^ 0x9E3779B9)
        for lo in range(0, 4096, chunk):
            yield rng.random((min(chunk, 4096 - lo), n)) < 0.5


def _seed_blocks(spec: NetworkSpec, ds: DiagramSet, v_box: np.ndarray,
                 n_samples: int, seed: int):
    """The gamma search's seeds, block by block.

    A block covers `_block_rows(n)` rows of the seed stream, or fewer at the
    end of a kind.  A jam-pattern block is a tuple (X, V, F, G, rows, D): X,
    V, F and G hold its distinct rows (densities, inflows, demands and
    supplies), `rows` maps each stream row to its distinct row, and D holds
    each stream row's own uncertainty point.

    Jam-pattern rows come first: binary jam patterns (`_jam_patterns`) x
    inflows at both box ends x all uncertainty corners, in that nesting
    order.  A jam-pattern row's densities are 0 or a, so its F and G are
    gathered from 16-corner x {0, a} tables; `demand_batch`/`supply_batch`
    evaluate each entry on its own, so they equal the row's bit for bit.
    Corners whose four table rows agree bit for bit form a class (on the
    benchmark's curves d1 and d2 move no value at 0 or a: 4 classes), and
    the rows of one pattern and inflow end whose corners share a class have
    the same X, V, F and G.  So a jam block holds one distinct row per
    (pattern, end, class), padded to a multiple of four rows by repeating
    the last one (see `_ratios`).

    A scrambled-Sobol cloud over (x, v, d) of n_samples rows, rounded up to
    a power of two, follows; it is drawn in power-of-two chunks, which equal
    one whole draw bit for bit, and its rows are all distinct.  Its blocks
    are the draws themselves, (rows, 2n + 4) arrays of fractions of the
    box, which `_cloud_rows` maps to rows: `drain_constants` first bounds a
    block from its heaviest cells alone, and evaluates the rows only of a
    block that this floor does not rule out.  No block mixes the two kinds.
    """
    n, block = spec.n, _block_rows(spec.n)
    ends, corners = np.stack([np.zeros(n), v_box]), d_corners(ds)
    # each corner's demands and supplies of empty ([0]) and of jammed ([1]) cells
    empty, jam = np.zeros((len(corners), n)), np.tile(spec.a, (len(corners), 1))
    F = demand_batch(ds, corners, empty), demand_batch(ds, corners, jam)
    G = supply_batch(ds, corners, empty), supply_batch(ds, corners, jam)
    bits = np.hstack([*F, *G]).view(np.uint64)
    first = (bits[:, None] == bits[None]).all(axis=2).argmax(axis=1)  # first equal corner
    reps, cls = np.unique(first, return_inverse=True)  # class representatives, in corner order
    per_end = len(corners)  # stream rows per (pattern, inflow end)
    width = len(ends) * len(reps)  # distinct rows per pattern
    k = np.arange(block)  # a block's stream rows; every block starts with a pattern
    for patterns in _jam_patterns(n, seed, block // (len(ends) * per_end)):
        k = k[:len(patterns) * len(ends) * per_end]
        q = np.arange(len(patterns) * width)
        q = np.r_[q, np.full(-len(q) % 4, q[-1])]
        X, c = patterns[q // width] * spec.a, reps[q % len(reps)]
        full = X > 0
        yield (X, ends[q // len(reps) % len(ends)],
               np.where(full, F[1][c], F[0][c]), np.where(full, G[1][c], G[0][c]),
               k // per_end * len(reps) + cls[k % per_end], corners[k % per_end])

    sobol = Sobol(2 * n + 4, seed)
    m = 2 ** max(1, math.ceil(math.log2(max(n_samples, 2))))
    chunk = min(block, m)
    for _ in range(m // chunk):
        yield sobol.random(chunk)


def _cloud_rows(u: np.ndarray, spec: NetworkSpec, ds: DiagramSet, v_box: np.ndarray,
                junctions: np.ndarray | None = None):
    """The rows (X, V, D) of a Sobol' block u: densities, inflows and
    uncertainty points, (N, n), (N, n) and (N, 4).

    With `junctions`, the form the witness floor reads: X cell-major, (n, N),
    V at the junctions only, (N, len(junctions)), and D its d4 column alone,
    (N, 1).  Every entry is the same product (and sum) of the same floats in
    either form, so it has the same bits.
    """
    n = spec.n
    if junctions is None:
        return (u[:, :n] * spec.a, u[:, n:2 * n] * v_box,
                u[:, 2 * n:] * (ds.d_hi - ds.d_lo) + ds.d_lo)
    return (np.multiply(u[:, :n].T, spec.a[:, None], order="C"),
            (u.T[n + junctions] * v_box[junctions, None]).T,
            (u[:, -1] * (ds.d_hi[3] - ds.d_lo[3]) + ds.d_lo[3])[:, None])


def _ratios(S: np.ndarray, X: np.ndarray, r: np.ndarray,
            mass_floor: float) -> np.ndarray:
    """Throttled weighted-mass ratios (S * X) @ r / X @ r over the last axis.

    States below `mass_floor` total mass (or of zero weighted mass) read
    inf.  X may stack blocks, (K, w, n): each block then takes its own
    (w, n) @ r product.  Every row is weighed and the mask applied after:
    OpenBLAS rounds the last rows of a batch that leaves 2 or 3 rows over a
    multiple of four differently, and dropping masked rows first would move
    rows into that remainder; `_seed_blocks` pads its distinct jam-pattern
    rows to a multiple of four for the same reason.  So a row's ratio is the
    same in a seed block, a grid of SCAN_WIDTH rows or one call on the whole
    cloud (see the tests).  Overwrites S with S * X.
    """
    den = X @ r
    ok = (X.sum(axis=-1) >= mass_floor) & (den > 0)
    num = np.multiply(S, X, out=S) @ r
    out = np.full(den.shape, np.inf)
    out[ok] = num[ok] / den[ok]
    return out


def _repeat_into(out: np.ndarray, p: np.ndarray) -> np.ndarray:
    """np.repeat(p, len(out) // len(p), axis=0), written into out."""
    out.reshape(len(p), -1, p.shape[1])[:] = p[:, None]
    return out


def _zoom_grid(lo: np.ndarray, hi: np.ndarray, w: int):
    """Row b is np.linspace(lo[b], hi[b], w) bit for bit; returns rows and steps.

    That holds for a zero-width window too; only a window narrower than
    w - 1 subnormal units, whose step underflows to zero, would differ.
    np.linspace itself cannot take the arrays: once one window has zero
    width it computes every row as (k / (w - 1)) * width, which rounds
    differently from k * step.
    """
    span = (hi - lo) / (w - 1)
    ts = np.arange(w) * span[:, None] + lo[:, None]
    ts[:, -1] = hi
    return ts, span


def drain_constants(spec: NetworkSpec, ds: DiagramSet, r, seed: int = 0) -> DrainConstants:
    """Estimate the per-step drain constants (Qconst, theta, gamma, C).

    gamma is a sampled infimum: structured seeds (every binary jam pattern
    for small networks, inflows at both box ends, all uncertainty corners)
    plus a joint low-discrepancy cloud of GAMMA_SAMPLES points, followed by
    up to REFINE_SWEEPS sweeps of coordinate-descent refinement of the best
    seeds with a zooming grid per coordinate; it stops early once 2n + 4
    scans in a row, one per coordinate, move no seed, since every later
    scan would repeat one of them.  A nonpositive gamma raises
    ThrottleBoundViolation with the witness sample.  The three constants
    are read at call time.

    The seed cloud is a stream of blocks of at most 1,024 rows and about
    BLOCK_ENTRIES entries (`_seed_blocks`), each bounded and reduced to its
    ratios before the next one exists.  A block bounds and weighs each of
    its distinct rows once, and its ratios are expanded to every stream row,
    so the stream's ratios, their order and the sample count are those of
    the whole cloud.  The search keeps only the best REFINE_TOP seeds, gathering
    their rows and curves alone and merging them into the kept ones by a
    stable sort, kept rows first, so seeds of equal ratio are taken in row
    order.  It refines them in lockstep: every zoom level of a coordinate
    scan allocates and weighs all seeds' grids at once, while each seed
    keeps its own zoom window, strict-improvement acceptance and
    (SCAN_WIDTH, n) @ r product.  As the ratios of a row do not depend on
    its batch (`_ratios`), the result is that of evaluating the whole cloud
    at once and refining the seeds one after another, bit for bit.

    Curves and bounds are evaluated only where samples differ.  A scan
    builds its grid rows once, and each zoom level writes only the scanned
    column.  The refined points carry their curves, Fb and Gb: an x scan
    re-evaluates only the scanned cell, a v scan no curve, a d scan whole
    rows.  An x or v scan of cell i bounds its base points once, and each
    zoom level recomputes only the columns that cell i can move (`allocate`
    with ``cell=i``), so its allocation costs O(degree(i)) per grid row
    instead of O(n).  A d scan allocates whole rows.

    Once REFINE_TOP seeds are kept, with kappa the last kept ratio, a Sobol
    block with finite demand caps (`demand_cap`) is first bounded from its
    witnesses W, the WITNESS_CELLS cells of largest weight, on which the
    weighted mass of a row mostly lies.  It is built from the draw only
    where that floor reads (`_cloud_rows`): X on every cell, cell-major, and
    d4, V and G at the junctions where W claim.  The floor S_i, i in W, is
    the witness form of `allocate` with every demand at its cap: F <= cap
    entrywise, `allocate` is non-increasing in F and its witness form has
    the bits of a full one, so S_i is at most the bound `_ratios` would
    weigh.  With low = sum over W of fl(S_i X_i) r_i, and with the mass and
    den = r @ X summed cell by cell, the block is skipped, its demands never
    evaluated, if every row has mass below mass_floor (1 - m), or mass at
    least mass_floor (1 + m) and den = 0 or low >= kappa (1 + m) den, where
    m = WITNESS_MARGIN; the rows of the last kind with den > 0 are counted.
    Any other row sends the block to exact evaluation, and so does a kappa
    below 2^-960 or below 2^-960 / (min r * mass_floor), or not finite.

    Proof that a skipped block holds no row whose ratio `_ratios` rounds
    below kappa, and that its finite ratios are the rows counted.  Let
    u = 2^-53.  A sum of j nonnegative rounded products, in any order, fused
    or not, lies within a factor (1 +- u)^j of the exact sum of the exact
    products, up to 2^-1075 for each product that rounds below the normal
    range; sums of nonnegative floats round exactly there.  `_ratios`' num
    sums all n terms fl(S_i X_i) r_i, low only those of W, each at most
    num's as rounding is monotone, so num >= (1 - u)^n (1 + u)^-k low with
    k = len(W) <= 4.  Both den are within (1 +- u)^n of the exact weighted
    mass, and the threshold kappa (1 + m) den rounds twice more.  So num >=
    kappa den holds in `_ratios` once (1 + m)(1 - u)^(2n + 2) (1 + u)^-k >=
    (1 + u)^n + m / 2, which m = 2^-30 covers for every n up to 1,398,099
    cells (the weights allow 1,024).  The absolute terms, below
    (5n + k) 2^-1075 as kappa < 2 (S <= 1), stay under the m / 2 left over
    of kappa den >= 2^-961, which the bounds on kappa give a counted row.
    The rounded division then keeps the ratio at or above kappa.  Both
    masses sum the same n floats and lie within (1 +- u)^(n - 1) of their
    exact sum, so mass >= mass_floor (1 + m) gives `_ratios`' mass at least
    mass_floor and mass < mass_floor (1 - m) gives it below, for n up to
    4 million.  den > 0 in either order exactly when some rounded X_i r_i is
    positive.  And S <= 1 keeps every num finite, so a row's ratio is
    finite exactly when the row is counted.
    """
    bound = ThrottleBound(spec, ds)
    r = np.asarray(r, dtype=float)
    if r.shape != (spec.n,):
        raise DimensionError(f"r must have shape ({spec.n},)")
    if np.any(r <= 0):
        raise ValueError("weights r must be positive")
    # every weighted mass the search forms is a sum of nonnegative terms at most r @ a
    with np.errstate(over="ignore"):
        heaviest = r @ spec.a
    if not np.isfinite(heaviest):
        i = int(np.argmax(r))
        raise NumericalError(
            f"cell {i + 1}: weight {r[i]:.3g} makes the weighted jam mass r @ a "
            f"overflow float64", cell=i)
    n = spec.n

    Qconst = float(np.min(1.0 - (spec.P @ r) / r))
    if Qconst <= 0:
        raise StructuralError("weights r admit no routing loss (Qconst <= 0)")

    L = np.array([fd.L for fd in ds.demands])
    delta_tilde = np.array([fd.delta_tilde for fd in ds.demands])
    fmin = np.array([fd.fmin for fd in ds.demands])
    theta = np.minimum(L, np.minimum(fmin / spec.a, L * delta_tilde / spec.a))
    Theta = float(theta.min())

    caps = np.minimum(spec.vmax, ds.min_supply_at_zero())
    if caps.min() <= 0:
        raise ValueError("admissible external-inflow box is empty")
    eps_tilde = 0.5 * float(caps.min())
    v_box = caps - eps_tilde
    mass_floor = min(float(ds._delta.min()), eps_tilde / (2.0 * n))

    witnesses = np.argsort(-r, kind="stable")[:WITNESS_CELLS]
    junctions = bound.junctions(witnesses)
    # kappa * least >= 2^-960 puts kappa and kappa * min(r) * mass_floor at 2^-960 or above
    least = min(1.0, float(r.min()) * mass_floor)

    def witness_count(u, kappa):
        """The rows of finite ratio of Sobol' block u if its witness floor
        rules the block out, else None."""
        X, V, d4 = _cloud_rows(u, spec, ds, v_box, junctions)  # X cell-major
        mass = X.sum(axis=0)
        heavy = mass >= mass_floor * (1.0 + WITNESS_MARGIN)
        if not (heavy | (mass < mass_floor * (1.0 - WITNESS_MARGIN))).all():
            return None  # a row's mass lies within the margin of the floor
        G = supply_batch(ds, d4, X[junctions].T, cells=junctions)
        S = bound.allocate(np.broadcast_to(ds._fcap, (len(u), n)), G, V, cells=witnesses)
        den = r @ X
        counted = heavy & (den > 0)
        low = (S * X[witnesses].T) @ r[witnesses]
        if (low >= kappa * (1.0 + WITNESS_MARGIN) * den)[counted].all():
            return int(counted.sum())
        return None

    # the seeds of lowest ratio as (ratios, X, V, D, F, G), in (ratio, stream row) order
    kept, n_evaluated, n_ruled_out = (), 0, 0
    capped = np.isfinite(ds._fcap).all()
    for block in _seed_blocks(spec, ds, v_box, GAMMA_SAMPLES, seed):
        full = bool(kept) and len(kept[0]) == REFINE_TOP
        if not isinstance(block, tuple):  # a Sobol' block, as drawn
            kappa = kept[0][-1] if full else math.inf
            if capped and 2.0 ** -960 <= kappa * least < math.inf:
                counted = witness_count(block, kappa)
                if counted is not None:
                    n_evaluated += counted
                    n_ruled_out += len(block)
                    continue
            X, V, D = _cloud_rows(block, spec, ds, v_box)
            block = (X, V, demand_batch(ds, D, X), supply_batch(ds, D, X),
                     np.arange(len(X)), D)
        X, V, F, G, rows, D = block
        ratios = _ratios(bound.allocate(F, G, V), X, r, mass_floor)[rows]
        n_evaluated += int(np.isfinite(ratios).sum())
        if full and ratios.min() >= kept[0][-1]:
            continue  # no row of the block sorts before the last kept one
        top = np.argsort(ratios, kind="stable")[:REFINE_TOP]
        t = rows[top]
        merged = (ratios[top], X[t], V[t], D[top], F[t], G[t])
        if kept:  # the kept rows come first, so equal ratios stay in row order
            merged = tuple(np.concatenate(pair) for pair in zip(kept, merged))
        top = np.argsort(merged[0], kind="stable")[:REFINE_TOP]
        kept = tuple(part[top] for part in merged)
    del block, X, V, F, G, D  # the last blocks, not to be held through the refinement
    if n_evaluated == 0:
        raise ValueError("no sample state reached the mass floor")

    # coordinate-descent refinement of the finite best seeds, in lockstep
    finite = np.isfinite(kept[0])
    best, x, v, d, Fb, Gb = (part[finite] for part in kept)
    pts = {"x": x, "v": v, "d": d}
    K, w = len(best), SCAN_WIDTH
    seed_of = np.arange(K)
    # The scans fill their (K * w, n) grid rows, curves and bounds in place.
    # Fresh arrays of that size (1 MB at n = 512) lie above glibc's mmap
    # threshold when the seed blocks were smaller, so each one would be
    # mapped and faulted in anew: that tripled the scans' time at n = 512.
    grid = {key: np.empty((K * w, p.shape[1])) for key, p in pts.items()}
    Fw, Gw, Sb, Sw = (np.empty((K * w, n)) for _ in range(4))

    def scan(kind, idx, lo_full, hi_full) -> bool:
        """Refine coordinate idx of `kind` in every seed; True if any moved."""
        nonlocal best
        moved = False
        lo, hi = np.full(K, lo_full), np.full(K, hi_full)
        # w grid rows per seed; a zoom level moves only column idx of `kind`
        rows = {key: _repeat_into(grid[key], p) for key, p in pts.items()}
        if kind != "d":  # the base points' curves and bounds, repeated over each grid
            F, G = _repeat_into(Fw, Fb), _repeat_into(Gw, Gb)
            _repeat_into(Sb, bound.allocate(Fb, Gb, pts["v"]))
        for _ in range(3):  # zoom levels
            ts, span = _zoom_grid(lo, hi, w)
            rows[kind][:, idx] = ts.ravel()
            if kind == "x":
                d1, d2, d3, d4 = pts["d"].T[:, :, None]
                F[:, idx] = _demand_values(ds.demands[idx], d1, d2, d3, ts).ravel()
                G[:, idx] = _supply_values(ds.supplies[idx], d4, ts).ravel()
            if kind == "d":
                F = demand_batch(ds, rows["d"], rows["x"])
                G = supply_batch(ds, rows["d"], rows["x"])
                S = bound.allocate(F, G, rows["v"])
            else:  # allocate and _ratios both write into S
                np.copyto(Sw, Sb)
                S = bound.allocate(F, G, rows["v"], cell=idx, S=Sw)
            cand = _ratios(S.reshape(K, w, -1), rows["x"].reshape(K, w, -1), r, mass_floor)
            k = np.argmin(cand, axis=1)
            t_k = ts[seed_of, k]
            better = cand[seed_of, k] < best
            moved |= bool(better.any())
            best = np.where(better, cand[seed_of, k], best)
            pts[kind][better, idx] = t_k[better]
            won = (seed_of * w + k)[better]  # the winning grid rows become the base
            Fb[better], Gb[better] = F[won], G[won]
            lo = np.maximum(lo_full, t_k - span)
            hi = np.minimum(hi_full, t_k + span)
        return moved

    # A scan that moves no seed leaves pts, best, Fb and Gb as they were, so
    # once every coordinate in a row has passed without a move, each later
    # scan would repeat an earlier one: the refinement stops there.
    coords = ([("x", i, 0.0, float(spec.a[i])) for i in range(n)]
              + [("v", i, 0.0, float(v_box[i])) for i in range(n)]
              + [("d", k, float(ds.d_lo[k]), float(ds.d_hi[k])) for k in range(4)])
    idle = 0
    for coord in coords * REFINE_SWEEPS:
        if idle == len(coords):
            break
        idle = 0 if scan(*coord) else idle + 1

    b = int(np.argmin(best))  # the first seed that reached the smallest ratio
    gamma, x_min, v_min, d_min = float(best[b]), pts["x"][b], pts["v"][b], pts["d"][b]
    if not math.isfinite(gamma) or gamma <= 0:
        raise ThrottleBoundViolation(
            f"sampled throttle ratio hit {gamma:.3g}",
            witness={"x": x_min, "v": v_min, "d": d_min})
    argmin = {"x": x_min, "v": v_min, "d": d_min, "ratio": gamma}
    C = Qconst * Theta * min(1.0, gamma)
    return DrainConstants(Qconst=Qconst, theta=theta, Theta=Theta, gamma=gamma,
                          C=C, argmin=argmin, v_box=v_box,
                          mass_floor=mass_floor, n_evaluated=n_evaluated,
                          n_ruled_out=n_ruled_out)


def trapping_bound(C: float, r, beta, b, a) -> int:
    """Step count after which any trajectory is trapped under min_i r_i beta_i.

    The weighted mass r'x contracts by the factor (1 - C) per step toward the
    floor r'b / C; starting from the worst case r'a, m is the first count at
    which the remaining gap fits inside the target box.  Raises
    TrappingInfeasible when the inflow floor alone exceeds the target.
    """
    r = np.asarray(r, dtype=float)
    beta = np.asarray(beta, dtype=float)
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    if not 0.0 < C < 1.0:
        raise ValueError("contraction rate C must lie in (0, 1)")
    target = float(np.min(r * beta))
    gap = C * target - float(r @ b)
    if gap <= 0:
        raise TrappingInfeasible(
            f"inflow floor consumes the whole target: C min(r beta) = "
            f"{C * target:.6g} but r'b = {float(r @ b):.6g}")
    start = C * float(r @ a)
    m = math.floor((math.log(gap) - math.log(start)) / math.log1p(-C)) + 1
    return max(0, m)


def lyapunov_eval(x, xstar) -> np.ndarray:
    """Stacked deviation vector (excess above x*, deficit below x*).

    Stacks along the last axis, so states of shape (N, n) give (N, 2n).
    """
    x = np.asarray(x, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    return np.concatenate([h_map(x - xstar), h_map(xstar - x)], axis=-1)


@dataclass(frozen=True)
class ContractionReport:
    max_violation: float
    n_samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def contraction_check(spec: NetworkSpec, ds: DiagramSet, cert,
                      seed: int = 0) -> ContractionReport:
    """Sample closed-loop steps inside [0, beta] against the comparison bound.

    Draws CONTRACTION_SAMPLES states uniformly from the certified box and
    disturbances from the uncertainty box, applies the certificate's control
    law, and reports the worst entry of V(x+) - Gamma V(x) (positive means
    the bound failed).  The samples are drawn whole, then stepped and
    compared CONTRACTION_CHUNK at a time, so memory holds the sampled X and
    D plus one chunk's inflows, successors and Lyapunov vectors, whatever
    the sample count is.  Per chunk the law and Gamma V(x) are each one
    stacked call, whose rows keep the bits of one call per sample; every
    sample is still one `step`.
    """
    n_samples, controller = CONTRACTION_SAMPLES, cert.controller
    rng = _philox(seed)
    beta = np.asarray(cert.beta, dtype=float)
    Gamma = np.asarray(cert.Gamma, dtype=float)
    X = rng.uniform(0.0, beta, size=(n_samples, spec.n))
    D = uniform_uncertainty(ds, n_samples, rng)
    worst = -math.inf
    for lo in range(0, n_samples, CONTRACTION_CHUNK):
        Xc, Dc = X[lo:lo + CONTRACTION_CHUNK], D[lo:lo + CONTRACTION_CHUNK]
        Vc = control.control_law(controller, Xc)
        X_next = np.empty_like(Xc)
        for k, (x, v, d) in enumerate(zip(Xc, Vc, Dc)):
            X_next[k], _ = step(spec, ds, x, v, d)
        gap = lyapunov_eval(X_next, controller.xstar)
        # np.matmul runs one matrix-vector product per sample, with the bits
        # of Gamma @ v alone; a matrix-matrix product V @ Gamma.T rounds differently
        gap -= np.matmul(Gamma, lyapunov_eval(Xc, controller.xstar)[..., None])[..., 0]
        worst = float(np.maximum(worst, gap.max(initial=-math.inf)))  # NaN stays NaN
    return ContractionReport(max_violation=worst, n_samples=n_samples, tol=CONTRACTION_TOL)


@dataclass(frozen=True)
class StabilityCertificate:
    """The certificate's constants and the controller they certify.

    Stage one of `certify` gives the weights ``r`` and ``xi``, the invariant
    box (``epsstar``, ``beta``) and the drain constants ``drain``; stage two
    the controller, its inflow-floor fraction, the comparison matrix Gamma
    with its spectral radius ``rho``, and the trapping bound ``m``.  ``m`` is
    None (with ``floor_budget_ok`` False) when the controller's inflow floor
    is too large for a finite trapping bound — the law still runs, but only
    the box invariance part of the certificate stands.
    """

    r: np.ndarray
    xi: np.ndarray
    epsstar: float
    beta: np.ndarray
    drain: DrainConstants
    controller: ControllerConfig
    floor_fraction: float
    Gamma: np.ndarray
    rho: float
    m: int | None
    floor_budget_ok: bool


def certify(spec: NetworkSpec, ds: DiagramSet, eq, controller=None,
            seed: int = 0) -> StabilityCertificate:
    """Run the full pipeline around an equilibrium, synthesizing if needed.

    Stage one computes weights, the invariant box, and the drain constants
    from the network alone.  Stage two synthesizes a controller when none is
    given (its floor then respects the drain budget by construction), builds
    the comparison matrix, and attempts the trapping bound.  A network that
    breaks a `validate_spec` constraint raises ValueError (`check_spec`),
    whatever `eq` was solved for.
    """
    check_spec(spec)
    r = weights_r(spec)
    L = np.array([fd.L for fd in ds.demands])
    G = np.array([fd.G for fd in ds.demands])
    xi = weights_xi(spec, L, G)
    epsstar, beta = invariant_region(eq.xstar, xi, spec.mu)
    drain = drain_constants(spec, ds, r, seed=seed)

    if controller is None:
        controller = control.synthesize(spec, eq, r, drain.C, beta)
    Gamma, rho = build_gamma(spec, L, G, controller.vstar, controller.b,
                             controller.K, controller.tau)
    with np.errstate(invalid="ignore"):
        ratio = np.divide(controller.b, controller.vstar,
                          out=np.zeros(spec.n), where=controller.vstar > 0)
    floor_fraction = float(ratio.max())
    try:
        m: int | None = trapping_bound(drain.C, r, beta, controller.b, spec.a)
        floor_budget_ok = True
    except TrappingInfeasible:
        m, floor_budget_ok = None, False
    return StabilityCertificate(r=r, xi=xi, epsstar=epsstar, beta=beta,
                                drain=drain, controller=controller,
                                floor_fraction=floor_fraction, Gamma=Gamma,
                                rho=rho, m=m, floor_budget_ok=floor_budget_ok)
