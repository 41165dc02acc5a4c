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
from dataclasses import dataclass, field

import numpy as np

from . import control
from .control import ControllerConfig, h_map
from .diagrams import (DiagramSet, _demand_values, _philox, _supply_values,
                       check_pair, d_corners, demand_batch, inflow_caps,
                       supply_batch, uniform_uncertainty)
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


def _as_index(idx):
    """An index array as the slice that picks the same entries, where one
    does (a nonempty arithmetic progression up); else the array itself."""
    if isinstance(idx, slice) or len(idx) == 0:
        return idx
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if step <= 0 or not np.array_equal(np.diff(idx), np.full(len(idx) - 1, step)):
        return idx
    return slice(int(idx[0]), int(idx[-1]) + 1, step)


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
    that the diagrams describe the network's cells (`check_pair`); a
    `DrainProblem` builds the search's as its ``bound``.

    The claims are grouped once by priority level (`spec.claim_levels`), so
    an allocation costs a few array operations per level, not per junction
    edge; a sender claiming at two junctions of one level takes the smaller
    bound through ``np.minimum.at``.  Every value is computed with the same
    floating-point operations as a per-junction loop, and rows do not
    interact, so S is bit-identical to the loop's at any batch size.

    `allocate(F, G, V, cell=i, S=S)` is the local form, for rows that differ
    from rows whose bounds S already holds in cell i's demand, supply or
    inflow only.  Such a change can move only the columns `moves(i)`: cell
    i, the claimants at junction i and the co-claimants at the junctions
    where i claims.  The local form resets those columns of S, in place,
    replays every junction at which they claim, grouped by level like the
    full form (`group_claims`, planned once per cell on first use), and
    returns S.  The other columns keep their values, and a replayed
    junction cannot lower them: ``np.minimum`` is exact, so the result
    equals a full `allocate` bit for bit.  The gamma search's scans weigh
    a grid row anew only in the columns `moves(i)` when the local form
    returns S itself (`drain_constants`).  A bound that ignores `cell` and
    `S` and allocates in full returns another array; the search then weighs
    every column, which is equally correct, only slower.

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
    the problem's ``mass_floor`` is then ruled out, and the search
    evaluates it.

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
        """(columns a change to `cell` can move, the same as an index,
        junction cells, levels), with every index that is an arithmetic
        progression as a slice: numpy takes a slice as a view, where an
        index array is gathered and scattered."""
        if cell not in self.plans:
            moved = np.array(sorted({cell, *(i for j in (cell, *self.sites[cell])
                                             for i, _ in self.claims.get(j, ()))}), dtype=int)
            replay = sorted({j for i in moved.tolist() for j in self.sites[i]})
            cols, levels = group_claims([(j, self.claims[j]) for j in replay], self.a)
            levels = [(_as_index(pos), snd if repeats else _as_index(snd), cap, p, repeats)
                      for pos, snd, cap, p, repeats in levels]
            self.plans[cell] = (moved, _as_index(moved), _as_index(cols), levels)
        return self.plans[cell]

    def moves(self, cell: int) -> np.ndarray:
        """The columns, ascending, that the local form of `allocate` with
        `cell` recomputes; every other column keeps its value."""
        return self._plan(cell)[0]

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
            senders = np.array(sorted({*cells, *(i for level in levels for i in level[1].tolist())}),
                               dtype=int)
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
            _, moved, cols, levels = self._plan(cell)
            S[:, moved] = 1.0
        rem = G[:, cols] - V[:, cols]
        for k, (pos, snd, cap, p, repeats) in enumerate(levels):
            # clipped to [0, 1] in half np.clip's time; only a -0.0 that np.clip
            # would keep turns into 0.0, a zero bound either way
            frac = rem[:, pos] / cap
            np.minimum(np.maximum(frac, 0.0, out=frac), 1.0, out=frac)
            if repeats:
                np.minimum.at(S.T, snd, frac.T)
            else:
                S[:, snd] = np.minimum(S[:, snd], frac)
            if k + 1 < len(levels):
                rem[:, pos] -= p * F[:, snd]
        return S if cells is None else S[:, picks]


@dataclass(frozen=True, eq=False)
class DrainProblem:
    """The gamma search's domain and constants, computed once.

    Builds ``bound = ThrottleBound(spec, ds)``, looked up when the problem
    is built so that a stand-in can be swapped in, and checks r: its shape,
    its sign and that r @ a, above every weighted mass the search forms, is
    finite.  Holds the routing loss ``Qconst = min(1 - P r / r)``, each full
    cell's guaranteed outflow fraction ``theta`` and their least ``Theta``,
    the inflow box ``v_box`` (`inflow_caps` less eps~, half the least cap)
    and ``mass_floor = min(min delta, eps~ / 2n)``: gamma ranges over the
    states of `box` of at least that mass, which `ratios` weighs.
    """

    spec: NetworkSpec
    ds: DiagramSet
    r: np.ndarray
    bound: ThrottleBound = field(init=False, repr=False)
    Qconst: float = field(init=False)
    theta: np.ndarray = field(init=False)
    Theta: float = field(init=False)
    v_box: np.ndarray = field(init=False)
    mass_floor: float = field(init=False)

    def __post_init__(self):
        spec, ds = self.spec, self.ds
        bound = ThrottleBound(spec, ds)
        r = np.asarray(self.r, dtype=float)
        if r.shape != (spec.n,):
            raise DimensionError(f"r must have shape ({spec.n},)")
        if np.any(r <= 0):
            raise ValueError("weights r must be positive")
        with np.errstate(over="ignore"):
            heaviest = r @ spec.a
        if not np.isfinite(heaviest):
            i = int(np.argmax(r))
            raise NumericalError(
                f"cell {i + 1}: weight {r[i]:.3g} makes the weighted jam mass r @ a "
                f"overflow float64", cell=i)

        Qconst = float(np.min(1.0 - (spec.P @ r) / r))
        if Qconst <= 0:
            raise StructuralError("weights r admit no routing loss (Qconst <= 0)")

        L = np.array([fd.L for fd in ds.demands])
        delta_tilde = np.array([fd.delta_tilde for fd in ds.demands])
        fmin = np.array([fd.fmin for fd in ds.demands])
        theta = np.minimum(L, np.minimum(fmin / spec.a, L * delta_tilde / spec.a))

        caps = inflow_caps(spec, ds)
        if caps.min() <= 0:
            raise ValueError("admissible external-inflow box is empty")
        eps_tilde = 0.5 * float(caps.min())
        vars(self).update(bound=bound, r=r, Qconst=Qconst, theta=theta, Theta=float(theta.min()),
                          v_box=caps - eps_tilde,
                          mass_floor=min(float(ds._delta.min()), eps_tilde / (2.0 * spec.n)))

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of the searched coordinates (x, v, d), 2n + 4 each:
        densities in [0, a], inflows in [0, v_box], d in [d_lo, d_hi]."""
        return (np.concatenate([np.zeros(2 * self.spec.n), self.ds.d_lo]),
                np.concatenate([self.spec.a, self.v_box, self.ds.d_hi]))

    def ratios(self, X: np.ndarray, V: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Ratios of the states (X, V, D), (N, n), (N, n) and (N, 4), inf below
        the mass floor, weighed in a batch padded to a multiple of four rows:
        each has the bits it has in a seed block (`_ratios`)."""
        q = np.r_[np.arange(len(X)), np.full(-len(X) % 4, len(X) - 1)]
        F, G = demand_batch(self.ds, D[q], X[q]), supply_batch(self.ds, D[q], X[q])
        return _ratios(self.bound.allocate(F, G, V[q]), X[q], self.r, self.mass_floor)[:len(X)]


@dataclass(frozen=True)
class DrainConstants:
    """Sampled lower bound on the weighted mass released per step.

    C = Qconst * Theta * min(1, gamma), with Qconst and Theta those of the
    searched ``problem`` (`DrainProblem`) and gamma the least ratio found
    over its box, at ``argmin``.  ``n_evaluated`` counts the seed rows of
    finite ratio, ``n_ruled_out`` the Sobol' rows whose block the witness
    floor ruled out before their demands were evaluated, and ``n_scans``
    the coordinate scans the refinement ran.
    """

    problem: DrainProblem
    gamma: float
    C: float
    argmin: dict
    n_evaluated: int
    n_ruled_out: int
    n_scans: int


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


def _seed_blocks(problem: DrainProblem, seed: int):
    """The gamma search's seeds in `problem`, block by block.

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

    A scrambled-Sobol cloud over the box (x, v, d) of GAMMA_SAMPLES rows,
    rounded up to a power of two, follows; it is drawn in power-of-two
    chunks, which equal one whole draw bit for bit, and its rows are all
    distinct.  Its blocks
    are the draws themselves, (rows, 2n + 4) arrays of fractions of the
    box, which `_cloud_rows` maps to rows: `drain_constants` first bounds a
    block from its heaviest cells alone, and evaluates the rows only of a
    block that this floor does not rule out.  No block mixes the two kinds.
    """
    spec, ds = problem.spec, problem.ds
    n, block = spec.n, _block_rows(spec.n)
    ends, corners = np.stack([np.zeros(n), problem.v_box]), d_corners(ds)
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
    m = 2 ** max(1, math.ceil(math.log2(max(GAMMA_SAMPLES, 2))))
    chunk = min(block, m)
    for _ in range(m // chunk):
        yield sobol.random(chunk)


def _cloud_rows(u: np.ndarray, problem: DrainProblem, junctions: np.ndarray | None = None):
    """The rows (X, V, D) of a Sobol' block u in `problem.box()`: densities,
    inflows and uncertainty points, (N, n), (N, n) and (N, 4).

    With `junctions`, the form the witness floor reads: X cell-major, (n, N),
    V at the junctions only, (N, len(junctions)), and D its d4 column alone,
    (N, 1).  Every entry is the same product (and sum) of the same floats in
    either form, so it has the same bits; adding a zero lower end is exact.
    """
    n, (lo, hi) = problem.spec.n, problem.box()
    width = hi - lo
    if junctions is None:
        return tuple(u[:, k] * width[k] + lo[k] for k in (np.s_[:n], np.s_[n:2 * n], np.s_[2 * n:]))
    return (np.multiply(u[:, :n].T, width[:n, None], order="C"),
            (u.T[n + junctions] * width[n + junctions, None]).T,
            (u[:, -1] * width[-1] + lo[-1])[:, None])


def _ratios(S: np.ndarray, X: np.ndarray, r: np.ndarray,
            mass_floor: float) -> np.ndarray:
    """Throttled weighted-mass ratios (S * X) @ r / X @ r over the last axis.

    States below `mass_floor` total mass (or of zero weighted mass) read
    inf.  X may stack blocks, (K, w, n): each block then takes its own
    (w, n) @ r product.  Every row is weighed and the mask applied after:
    OpenBLAS rounds the last rows of a batch that leaves 1 to 3 rows over a
    multiple of four differently, and dropping masked rows first would move
    rows into that remainder; `_seed_blocks` pads its distinct jam-pattern
    rows to a multiple of four for the same reason, and so does the
    refinement's last weighing of its seeds.  So a row's ratio is the same
    in a seed block, in any other batch of a multiple of four rows and in
    one call on the whole cloud (see the tests).  Overwrites S with S * X.
    """
    den = X @ r
    ok = (X.sum(axis=-1) >= mass_floor) & (den > 0)
    num = np.multiply(S, X, out=S) @ r
    out = np.full(den.shape, np.inf)
    out[ok] = num[ok] / den[ok]
    return out


def _running_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the first axis, adding its entries in index order.

    numpy's `sum` reassociates by array shape: a row of a (33, 8) batch can
    sum to another float than the same row alone.  A running sum cannot be
    reassociated, so every sum has the same bits in any batch or layout;
    `np.cumsum` adds in the same order as this loop.
    """
    total = a[0]
    for term in a[1:]:
        total = total + term
    return total


def _fixed_sums(S: np.ndarray, X: np.ndarray, r: np.ndarray, T, cell: int | None):
    """What a scan's grid rows share with their seed rows S, X (K, n), per row.

    A scan moves the columns T of S and, for an x scan, X's column `cell`;
    returns (S * X * r summed outside T, X * r and X summed outside `cell`),
    each summed in column order.  Every sum adds nonnegative terms: with
    r_i = 2^(n-1-rank), one term can exceed the others by 2^n, so taking a
    seed's old terms back out of its whole sums would cancel to noise once
    a scan empties that cell.
    """
    parts = np.empty((3, *X.shape))
    np.multiply(np.multiply(S, X, out=parts[0]), r, out=parts[0])
    np.multiply(X, r, out=parts[1])
    parts[2] = X
    parts[0][:, T] = 0.0
    if cell is not None:
        parts[1:, :, cell] = 0.0
    return tuple(parts.cumsum(axis=-1)[..., -1])


def _scan_ratios(ST, XT, rT, out, den, mass, mass_floor: float) -> np.ndarray:
    """Ratios (out + ST * XT * rT summed over the first axis) / den, inf
    where mass < mass_floor or den = 0 as in `_ratios`.  ST and XT hold the
    columns T along their first axis, cell-major, and rT their weights; the
    arguments broadcast.  A row sums to the same bits in any batch
    (`_running_sum`), so a grid row at its seed's point reads its seed's
    ratio.
    """
    num = _running_sum(ST * XT * rT) + out
    ok = (mass >= mass_floor) & (den > 0)
    return np.divide(num, den, out=np.full(num.shape, np.inf), where=ok)


def _zoom_grid(lo: np.ndarray, hi: np.ndarray, steps: np.ndarray):
    """Row b is np.linspace(lo[b], hi[b], w) bit for bit, with steps =
    np.arange(w) as floats; returns rows and step widths.

    That holds for a zero-width window too; only a window narrower than
    w - 1 subnormal units, whose step underflows to zero, would differ.
    np.linspace itself cannot take the arrays: once one window has zero
    width it computes every row as (k / (w - 1)) * width, which rounds
    differently from k * step.
    """
    span = (hi - lo) / (len(steps) - 1)
    ts = steps * span[:, None] + lo[:, None]
    ts[:, -1] = hi
    return ts, span


def drain_constants(problem: DrainProblem, seed: int = 0) -> DrainConstants:
    """Search `problem` for gamma, the least throttled weighted-mass ratio
    over `problem.box()` at mass at least ``problem.mass_floor``, and give
    C = Qconst * Theta * min(1, gamma) with the problem's Qconst and Theta.

    gamma is a sampled infimum: structured seeds (every binary jam pattern
    for small networks, inflows 0 and v_box, all uncertainty corners) plus
    a joint low-discrepancy cloud of GAMMA_SAMPLES points, followed by
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
    scan bounds and weighs all seeds' grids at once, while each seed keeps
    its own zoom window and strict-improvement acceptance.  Every sum a
    scan forms runs over its terms in index order (`_running_sum`), so a
    grid row's ratio does not depend on its batch, and the result is that
    of refining the seeds one after another, bit for bit.

    Curves and bounds are evaluated only where samples differ.  Each seed
    carries its point, its curves Fb and Gb and its bounds Sb from the grid
    row that last won.  The grid rows live through the whole refinement,
    equal to their seed's row except where the scan under way writes: an x
    scan re-evaluates the scanned cell's curves only, a v scan no curve, a
    d scan the one curve its coordinate enters (demands for d1-d3, supplies
    for d4), every cell's.  An x or v scan of cell i recomputes only the
    bounds `moves(i)` (`allocate` with ``cell=i``), and weighs a grid row
    from two parts: its seed's sums over the columns the scan cannot move
    (`_fixed_sums`: the numerator outside those bounds, and for an x scan
    the weighted mass and the mass without cell i), plus the terms of the
    moved columns, and r_i t and t for an x scan's density t.  A d scan, or
    a bound whose local form does not return the S it was given, weighs
    every column; a v or d scan leaves the masses as they were.  So an x or
    v scan costs O(degree(i)) per grid row, not O(n).  Every sum adds
    nonnegative terms: none subtracts a seed's old terms, which would
    cancel once a scan empties a cell of weight 2^n times the others'.  A
    candidate must beat its seed's ratio formed by the same sums at the
    seed's point, so a scan that moves no term moves no seed.  The refined
    seeds are finally weighed by `problem.ratios`, in a batch padded to a
    multiple of four rows as a seed block is: gamma, its argmin and its
    ratio come from that weighing, the first seed winning ties.

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
    spec, ds, r, bound = problem.spec, problem.ds, problem.r, problem.bound
    n, mass_floor = spec.n, problem.mass_floor
    witnesses = np.argsort(-r, kind="stable")[:WITNESS_CELLS]
    junctions = bound.junctions(witnesses)
    # kappa * least >= 2^-960 puts kappa and kappa * min(r) * mass_floor at 2^-960 or above
    least = min(1.0, float(r.min()) * mass_floor)

    def witness_count(u, kappa):
        """The rows of finite ratio of Sobol' block u if its witness floor
        rules the block out, else None."""
        X, V, d4 = _cloud_rows(u, problem, junctions)  # X cell-major
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
    for block in _seed_blocks(problem, seed):
        full = bool(kept) and len(kept[0]) == REFINE_TOP
        if not isinstance(block, tuple):  # a Sobol' block, as drawn
            kappa = kept[0][-1] if full else math.inf
            if capped and 2.0 ** -960 <= kappa * least < math.inf:
                counted = witness_count(block, kappa)
                if counted is not None:
                    n_evaluated += counted
                    n_ruled_out += len(block)
                    continue
            X, V, D = _cloud_rows(block, problem)
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

    # coordinate-descent refinement of the finite best seeds, in lockstep;
    # each seed carries its point, curves and bounds
    finite = np.isfinite(kept[0])
    _, x, v, d, Fb, Gb = (part[finite] for part in kept)
    Sb = bound.allocate(Fb, Gb, v)
    K, w = len(x), SCAN_WIDTH
    seed_of, steps = np.arange(K), np.arange(w, dtype=float)
    # The grid rows, w per seed, are stored cell-major, (n, K, w), so that
    # every column is one contiguous run.  A row holds its seed's values
    # except where the scan under way writes, and each scan restores what it
    # wrote: its cost per grid row stays with the columns it moves.  Fresh
    # grids in every scan would be mapped and faulted in anew: four cost
    # 1.7 ms at n = 512, against 8 us to restore a few columns.
    Xc, Vc, Fc, Gc, Sc = (np.repeat(p.T[:, :, None], w, axis=2) for p in (x, v, Fb, Gb, Sb))
    X, V, F, G, S = (part.reshape(n, K * w).T for part in (Xc, Vc, Fc, Gc, Sc))

    def scan(kind, idx, lo_full, hi_full) -> bool:
        """Refine coordinate idx of `kind` in every seed; True if any moved."""
        lo, hi = np.full(K, lo_full), np.full(K, hi_full)
        moved, points = np.zeros(K, dtype=bool), {"x": x, "v": v, "d": d}[kind]
        if kind == "d":
            D3 = np.repeat(d[:, None], w, axis=1)
        else:
            d1, d2, d3, d4 = d.T[:, :, None]

        def ratios(ST, XT, t):
            """Rows' ratios from their columns T and, in an x scan, x_idx = t."""
            grown = (den + r[idx] * t, mass + t) if kind == "x" else (den, mass)
            return _scan_ratios(ST, XT, rT, out, *grown, mass_floor)

        for level in range(3):  # zoom levels
            ts, span = _zoom_grid(lo, hi, steps)
            if kind == "d":  # the one curve that d_idx enters, on every cell
                D3[:, :, idx] = ts
                D = D3.reshape(K * w, 4)
                Fg = demand_batch(ds, D, X) if idx < 3 else F
                Gg = supply_batch(ds, D, X) if idx == 3 else G
                Sg = bound.allocate(Fg, Gg, V)
            else:
                (Xc if kind == "x" else Vc)[idx] = ts
                if kind == "x":
                    Fc[idx] = _demand_values(ds.demands[idx], d1, d2, d3, ts)
                    Gc[idx] = _supply_values(ds.supplies[idx], d4, ts)
                Fg, Gg, Sg = F, G, bound.allocate(F, G, V, cell=idx, S=S)
            if level == 0:  # the columns weighed anew, the sums kept, the seeds' ratios
                T = bound.moves(idx) if Sg is S else slice(None)
                out, den, mass = (part[:, None] for part in
                                  _fixed_sums(Sb, x, r, T, idx if kind == "x" else None))
                rT = r[T][:, None, None]
                at = x[:, idx, None] if kind == "x" else None
                base = ratios(Sb.T[T][:, :, None], x.T[T][:, :, None], at)[:, 0]
            cand = ratios(Sg.T.reshape(n, K, w)[T], Xc[T], ts)
            k = np.argmin(cand, axis=1)
            t_k, c_k = ts[seed_of, k], cand[seed_of, k]
            better = c_k < base  # both from the same sums
            if better.any():
                base = np.where(better, c_k, base)
                points[better, idx] = t_k[better]
                won = (seed_of * w + k)[better]  # the winning grid rows become the seeds'
                Fb[better], Gb[better], Sb[better] = Fg[won], Gg[won], Sg[won]
                moved |= better
            lo = np.maximum(lo_full, t_k - span)
            hi = np.minimum(hi_full, t_k + span)
        # give the grid rows their seeds' values again where this scan wrote
        if kind == "x":
            Xc[idx], Fc[idx], Gc[idx] = x[:, idx, None], Fb[:, idx, None], Gb[:, idx, None]
        elif kind == "v":
            Vc[idx] = v[:, idx, None]
        else:
            Fc[:, moved], Gc[:, moved] = Fb[moved].T[:, :, None], Gb[moved].T[:, :, None]
        if Sg is S:
            Sc[T] = Sb.T[T][:, :, None]
        else:
            Sc[:, moved] = Sb[moved].T[:, :, None]
        return bool(moved.any())

    # A scan that moves no seed leaves every seed as it was, so once every
    # coordinate in a row has passed without a move, each later scan would
    # repeat an earlier one: the refinement stops there.
    lo, hi = (end.tolist() for end in problem.box())
    coords = list(zip(["x"] * n + ["v"] * n + ["d"] * 4, [*range(n), *range(n), *range(4)],
                      lo, hi))
    n_scans = idle = 0
    for coord in coords * REFINE_SWEEPS:
        if idle == len(coords):
            break
        n_scans += 1
        idle = 0 if scan(*coord) else idle + 1

    # the refined seeds weighed as a seed block is; the first of the smallest ratio wins
    best = problem.ratios(x, v, d)
    b = int(np.argmin(best))
    gamma, x_min, v_min, d_min = float(best[b]), x[b], v[b], d[b]
    if not math.isfinite(gamma) or gamma <= 0:
        raise ThrottleBoundViolation(
            f"sampled throttle ratio hit {gamma:.3g}",
            witness={"x": x_min, "v": v_min, "d": d_min})
    argmin = {"x": x_min, "v": v_min, "d": d_min, "ratio": gamma}
    C = problem.Qconst * problem.Theta * min(1.0, gamma)
    return DrainConstants(problem=problem, gamma=gamma, C=C, argmin=argmin,
                          n_evaluated=n_evaluated, n_ruled_out=n_ruled_out,
                          n_scans=n_scans)


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
    drain = drain_constants(DrainProblem(spec, ds, r), seed=seed)

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
