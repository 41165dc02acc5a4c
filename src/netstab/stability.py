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
from scipy.stats import qmc

from . import control
from .control import ControllerConfig, h_map
from .diagrams import (DiagramSet, _demand_values, _philox, _supply_values,
                       d_corners, demand_batch, supply_batch,
                       uniform_uncertainty)
from .dynamics import step
from .errors import (DimensionError, NumericalError, StructuralError,
                     ThrottleBoundViolation, TrappingInfeasible)
from .network import NetworkSpec

SQUARINGS = 48         # matrix squarings in the spectral-radius estimator
CONTRACTION_TOL = 1e-9  # largest violation the contraction check lets pass
JAM_PATTERN_LIMIT = 12  # enumerate binary jam patterns up to this cell count
ROW_BLOCK = 1024        # rows per throttle-bound call in the gamma search
SCAN_WIDTH = 33         # grid points per zoom level of a gamma-search scan


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

    Calling it maps (X, V, D) of shapes (N, n), (N, n), (N, 4) to an (N, n)
    array S with S <= s pointwise: each junction's remaining supply after
    external inflow and after all higher-priority attempted demands is
    divided by the claimant's worst-case demand P[i, j] * a_i instead of the
    realized one.  Demands never reach the jam capacity, so the realized
    throttle can only be larger.

    The call is `allocate(demand_batch(ds, D, X), supply_batch(ds, D, X), V)`:
    curve evaluation and junction allocation are separate, so a caller that
    already holds demands F and supplies G (or most of them) can allocate
    without evaluating the curves again.

    The claims are grouped once by priority level (`spec.claim_levels`), so
    an allocation costs a few array operations per level, not per junction
    edge; a sender claiming at two junctions of one level takes the smaller
    bound through ``np.minimum.at``.  Every value is computed with the same
    floating-point operations as a per-junction loop, and rows do not
    interact, so S is bit-identical to the loop's at any batch size.
    """

    def __init__(self, spec: NetworkSpec, ds: DiagramSet):
        if ds.n != spec.n or not np.array_equal(ds._a, spec.a):
            raise ValueError("diagram jam capacities disagree with the network spec")
        self.ds = ds
        self.cols, self.levels = spec.claim_levels

    def allocate(self, F: np.ndarray, G: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Throttle bounds from demands F, supplies G and inflows V, all (N, n)."""
        rem = G[:, self.cols] - V[:, self.cols]
        S = np.ones_like(F)
        for k, (pos, snd, cap, p, repeats) in enumerate(self.levels):
            frac = np.clip(rem[:, pos] / cap, 0.0, 1.0)
            if repeats:
                np.minimum.at(S.T, snd, frac.T)
            else:
                S[:, snd] = np.minimum(S[:, snd], frac)
            if k + 1 < len(self.levels):
                rem[:, pos] -= p * F[:, snd]
        return S

    def __call__(self, X: np.ndarray, V: np.ndarray, D: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        D = np.atleast_2d(np.asarray(D, dtype=float))
        return self.allocate(demand_batch(self.ds, D, X),
                             supply_batch(self.ds, D, X), V)


@dataclass(frozen=True)
class DrainConstants:
    """Sampled lower bound on the weighted mass released per step.

    C = Qconst * Theta * min(1, gamma): Qconst is the routing loss under the
    weights r, theta_i the guaranteed outflow fraction of a full cell, and
    gamma the sampled infimum of the throttled weighted-mass ratio over the
    state box, the admissible inflow box ``v_box``, and the uncertainty box
    (states below ``mass_floor`` total mass are excluded).
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


def _seed_cloud(spec: NetworkSpec, ds: DiagramSet, v_box: np.ndarray,
                n_samples: int, seed: int):
    """Seeds of the gamma search as (X, V, D, n_struct).

    The first n_struct rows are structured seeds: binary jam patterns (every
    one for small networks, 4096 random ones otherwise) x inflows at both box
    ends x all uncertainty corners, in that nesting order, so row k holds
    corner k % 16.  A joint scrambled-Sobol cloud over (x, v, d) follows.
    """
    n = spec.n
    if n <= JAM_PATTERN_LIMIT:
        codes = np.arange(1, 2 ** n)  # skip the all-empty pattern
        patterns = (codes[:, None] >> np.arange(n)[None, :]) & 1
    else:
        patterns = (_philox(seed ^ 0x9E3779B9).random((4096, n)) < 0.5)
    m = 2 ** max(1, math.ceil(math.log2(max(n_samples, 2))))
    # drawn before the seed arrays exist, so Sobol's own temporaries never
    # coexist with them
    sob = qmc.Sobol(d=2 * n + 4, scramble=True, seed=seed)
    u = sob.random_base2(int(math.log2(m)))

    D_crn = d_corners(ds)
    n_struct = len(patterns) * 2 * len(D_crn)
    X = np.empty((n_struct + m, n))
    V = np.empty((n_struct + m, n))
    D = np.empty((n_struct + m, len(ds.d_lo)))
    X[:n_struct].reshape(len(patterns), -1, n)[:] = (patterns * spec.a[None, :])[:, None]
    V[:n_struct].reshape(len(patterns), 2, -1, n)[:] = (
        np.stack([np.zeros(n), v_box])[None, :, None])
    D[:n_struct].reshape(-1, *D_crn.shape)[:] = D_crn
    np.multiply(u[:, :n], spec.a, out=X[n_struct:])
    np.multiply(u[:, n:2 * n], v_box, out=V[n_struct:])
    np.multiply(u[:, 2 * n:], ds.d_hi - ds.d_lo, out=D[n_struct:])
    D[n_struct:] += ds.d_lo
    return X, V, D, n_struct


def _struct_throttles(bound: ThrottleBound, X: np.ndarray, V: np.ndarray,
                      out: np.ndarray) -> None:
    """Throttle bounds of the structured seed rows, without curve evaluation.

    Every density of a jam-pattern row is 0 or a and its d is the corner
    row % 16, so its demands and supplies are entries of 16-corner x {0, a}
    tables made by `demand_batch`/`supply_batch`.  Those evaluate each entry
    on its own, so the gathered rows equal an evaluation of the rows
    themselves bit for bit.  Rows are gathered ROW_BLOCK at a time.
    """
    ds = bound.ds
    D_crn = d_corners(ds)
    empty, jam = np.zeros((len(D_crn), ds.n)), np.tile(ds._a, (len(D_crn), 1))
    F0, F1 = demand_batch(ds, D_crn, empty), demand_batch(ds, D_crn, jam)
    G0, G1 = supply_batch(ds, D_crn, empty), supply_batch(ds, D_crn, jam)
    for lo in range(0, len(out), ROW_BLOCK):
        rows = slice(lo, min(lo + ROW_BLOCK, len(out)))
        corner = np.arange(rows.start, rows.stop) % len(D_crn)
        full = X[rows] > 0
        out[rows] = bound.allocate(np.where(full, F1[corner], F0[corner]),
                                   np.where(full, G1[corner], G0[corner]), V[rows])


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


def drain_constants(spec: NetworkSpec, ds: DiagramSet, r,
                    n_samples: int = 100_000, seed: int = 0,
                    refine_top: int = 8, refine_sweeps: int = 3) -> DrainConstants:
    """Estimate the per-step drain constants (Qconst, theta, gamma, C).

    gamma is a sampled infimum: structured seeds (every binary jam pattern
    for small networks, inflows at both box ends, all uncertainty corners)
    plus a joint low-discrepancy cloud, followed by coordinate-descent
    refinement of the best seeds with a zooming grid per coordinate.  A
    nonpositive gamma raises ThrottleBoundViolation with the witness sample.

    The throttle bound runs in blocks of ROW_BLOCK rows, which caps the
    memory of its temporaries; the weighted sums (S * X) @ r are then taken
    over the whole batch, because BLAS row results can change with the batch
    shape.  The finite best seeds are refined in lockstep: every zoom level
    of a coordinate scan allocates once for all seeds' grids, while each
    seed keeps its own zoom window, strict-improvement acceptance and
    weighted sums.  The result is that of refining the seeds one after
    another, bit for bit.

    The curves are evaluated only where samples differ: the structured seeds
    gather their demands and supplies from corner tables, and a scan holds
    the demands F and supplies G of its grid rows.  An x scan overwrites the
    scanned cell's column, a d scan evaluates whole rows, and a v scan
    evaluates no curve.
    """
    bound = ThrottleBound(spec, ds)
    r = np.asarray(r, dtype=float)
    if r.shape != (spec.n,):
        raise DimensionError(f"r must have shape ({spec.n},)")
    if np.any(r <= 0):
        raise ValueError("weights r must be positive")
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

    def ratios(S, X):
        """Throttled weighted-mass ratios; overwrites S with S * X."""
        den = X @ r
        ok = (X.sum(axis=1) >= mass_floor) & (den > 0)
        SX = np.multiply(S, X, out=S)
        if not ok.all():
            SX = SX[ok]
        out = np.full(len(X), np.inf)
        out[ok] = (SX @ r) / den[ok]
        return out

    X_all, V_all, D_all, n_struct = _seed_cloud(spec, ds, v_box, n_samples, seed)
    S = np.empty(X_all.shape)
    _struct_throttles(bound, X_all[:n_struct], V_all[:n_struct], S[:n_struct])
    for lo in range(n_struct, len(X_all), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        S[rows] = bound(X_all[rows], V_all[rows], D_all[rows])
    vals = ratios(S, X_all)
    del S
    n_evaluated = int(np.isfinite(vals).sum())
    if n_evaluated == 0:
        raise ValueError("no sample state reached the mass floor")

    # coordinate-descent refinement of the finite best seeds, in lockstep
    best_idx = np.argsort(vals)[:refine_top]
    seeds = [int(i) for i in best_idx if np.isfinite(vals[i])]
    K, w = len(seeds), SCAN_WIDTH
    pts = {"x": X_all[seeds], "v": V_all[seeds], "d": D_all[seeds]}
    best = [float(vals[i]) for i in seeds]
    del X_all, V_all, D_all

    def scan(kind, idx, lo_full, hi_full):
        lo, hi = np.full(K, lo_full), np.full(K, hi_full)
        if kind != "d":  # the base points' curves, repeated over each seed's grid
            F = np.repeat(demand_batch(ds, pts["d"], pts["x"]), w, axis=0)
            G = np.repeat(supply_batch(ds, pts["d"], pts["x"]), w, axis=0)
        for _ in range(3):  # zoom levels
            ts, span = _zoom_grid(lo, hi, w)
            grid = {key: np.repeat(p[:, None, :], w, axis=1)
                    for key, p in pts.items()}
            grid[kind][:, :, idx] = ts
            rows = {key: grid[key].reshape(K * w, -1) for key in "xvd"}
            if kind == "x":
                d1, d2, d3, d4 = pts["d"].T[:, :, None]
                F[:, idx] = _demand_values(ds.demands[idx], d1, d2, d3, ts).ravel()
                G[:, idx] = _supply_values(ds.supplies[idx], d4, ts).ravel()
            elif kind == "d":
                F = demand_batch(ds, rows["d"], rows["x"])
                G = supply_batch(ds, rows["d"], rows["x"])
            S = bound.allocate(F, G, rows["v"])
            for b in range(K):
                cand = ratios(S[b * w:(b + 1) * w], grid["x"][b])
                k = int(np.argmin(cand))
                if cand[k] < best[b]:
                    best[b] = float(cand[k])
                    pts[kind][b, idx] = ts[b, k]
                lo[b] = max(lo_full, ts[b, k] - span[b])
                hi[b] = min(hi_full, ts[b, k] + span[b])

    for _ in range(refine_sweeps):
        for i in range(n):
            scan("x", i, 0.0, float(spec.a[i]))
        for i in range(n):
            scan("v", i, 0.0, float(v_box[i]))
        for k in range(4):
            scan("d", k, float(ds.d_lo[k]), float(ds.d_hi[k]))

    b = int(np.argmin(best))  # the first seed that reached the smallest ratio
    gamma, x_min, v_min, d_min = best[b], pts["x"][b], pts["v"][b], pts["d"][b]
    if not math.isfinite(gamma) or gamma <= 0:
        raise ThrottleBoundViolation(
            f"sampled throttle ratio hit {gamma:.3g}",
            witness={"x": x_min, "v": v_min, "d": d_min})
    argmin = {"x": x_min, "v": v_min, "d": d_min, "ratio": gamma}
    C = Qconst * Theta * min(1.0, gamma)
    return DrainConstants(Qconst=Qconst, theta=theta, Theta=Theta, gamma=gamma,
                          C=C, argmin=argmin, v_box=v_box,
                          mass_floor=mass_floor, n_evaluated=n_evaluated)


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


def contraction_check(spec: NetworkSpec, ds: DiagramSet,
                      controller: ControllerConfig, cert,
                      n_samples: int = 10_000, seed: int = 0) -> ContractionReport:
    """Sample closed-loop steps inside [0, beta] against the comparison bound.

    Draws states uniformly from the certified box and disturbances from the
    uncertainty box, applies the control law, and reports the worst entry of
    V(x+) - Gamma V(x) (positive means the bound failed).
    """
    rng = _philox(seed)
    beta = np.asarray(cert.beta, dtype=float)
    Gamma = np.asarray(cert.Gamma, dtype=float)
    X = rng.uniform(0.0, beta, size=(n_samples, spec.n))
    D = uniform_uncertainty(ds, n_samples, rng)
    X_next = np.empty_like(X)
    for k, (x, d) in enumerate(zip(X, D)):
        X_next[k], _ = step(spec, ds, x, control.control_law(controller, x), d)
    V = lyapunov_eval(X, controller.xstar)
    V_next = lyapunov_eval(X_next, controller.xstar)
    # one matrix-vector product per sample: a batched product may round differently
    gap = V_next - np.array([Gamma @ vk for vk in V]).reshape(V.shape)
    worst = float(gap.max(initial=-math.inf))
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
            n_gamma_samples: int = 100_000, seed: int = 0) -> StabilityCertificate:
    """Run the full pipeline around an equilibrium, synthesizing if needed.

    Stage one computes weights, the invariant box, and the drain constants
    from the network alone.  Stage two synthesizes a controller when none is
    given (its floor then respects the drain budget by construction), builds
    the comparison matrix, and attempts the trapping bound.
    """
    r = weights_r(spec)
    L = np.array([fd.L for fd in ds.demands])
    G = np.array([fd.G for fd in ds.demands])
    xi = weights_xi(spec, L, G)
    epsstar, beta = invariant_region(eq.xstar, xi, spec.mu)
    drain = drain_constants(spec, ds, r, n_samples=n_gamma_samples, seed=seed)

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
