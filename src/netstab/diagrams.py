"""Uncertain demand/supply curve families and their sampling audits.

Each cell carries a demand curve f(d, x) (attempted outflow, increasing up to
the critical density ``delta``) and a supply curve g(d, x) (acceptable inflow,
non-increasing, zero at jam).  Uncertainty enters through a 4-vector
d = (d1, d2, d3, d4): d1..d3 blend the demand branches, d4 scales supply.

Two built-in demand families cover the reference freeway (mainline and
on-ramp-merge shapes); "piecewise" admits user polynomials per branch.
The audits check, by sampling, that declared sector/floor constants hold and
that supplies can absorb worst-case inflows on the uncongested box.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError
from .network import NetworkSpec, _check_fields, _checked, _located
from .sobol import Sobol

FAMILIES = ("freeway-main", "freeway-onramp", "piecewise")

_D_DIM = 4

DEMAND_FLOOR = 1e-12   # a density (or demand) below this is an empty cell
D_TOL = 1e-12          # admission tolerance for d against the uncertainty box
AUDIT_GRID = 512       # densities per branch in a demand audit
AUDIT_D_SAMPLES = 64   # low-discrepancy d samples per audit (a power of two)
AUDIT_X_SAMPLES = 4096  # random (x, d) states in the supply-margin audit
SUPPLY_TOL = 1e-4      # supply-margin slack below zero that still passes


# --- curve coefficients ------------------------------------------------------
# Every built-in curve piece is the quadratic q(z) = c2*z*z + c1*z + c0, stored
# as (c2, c1, c0) with None for a term its formula lacks.  The d1 branch and
# the two congested branches are shared by both families; each family adds its
# own A (weight d2 (1 - d1)) and B (weight (1 - d2)(1 - d1)) subcritical
# branches.  A branch is
# (knee, piece up to the knee, piece above it); a single-piece branch has no
# knee.  The on-ramp knee at 27.5 belongs to the curve shapes themselves; the
# subcritical/overcritical switch at `delta` belongs to the DemandFunction.

_PHI1 = (None, 5.0 / 11.0, None)
_PHI6 = (None, -(3.0 / 23.0), 740.0 / 23.0)
_PHI7 = (83.0 / 52900.0, -(4471.0 / 10580.0), 46019.0 / 1058.0)

_FAMILY_BRANCHES = {
    "freeway-main": (
        (None, (-(13.5 / 3025.0), 0.7, None), None),
        (None, (14.0 / 3025.0, 0.2, None), None),
    ),
    "freeway-onramp": (
        (27.5, (-(49.0 / 3025.0), 0.9, None), (-(38.0 / 3025.0), 82.0 / 55.0, -19.0)),
        (27.5, (7.0 / 756.25, 0.2, None), (21.0 / 6050.0, 71.5 / 1210.0, 8.25)),
    ),
}


def _quad(c, z):
    """c2*z*z + c1*z + c0, term by term in the order the formulas are written.

    None terms are skipped, so a linear or constant-free piece costs no extra
    array pass.  `demand_all` passes coefficient arrays with zeros for the
    missing terms instead; adding a zero term leaves every nonzero value
    unchanged.  The terms are indexed, not unpacked: unpacking the rows of an
    array costs about three times as much.
    """
    c2, c1, c0 = c[0], c[1], c[2]
    q = c1 * z if c2 is None else c2 * z * z + c1 * z
    return q if c0 is None else q + c0


def _branch(b, z):
    knee, lo, hi = b
    if knee is None:
        return _quad(lo, z)
    return np.where(z <= knee, _quad(lo, z), _quad(hi, z))


def _blend(d1, d2, d3, z, delta, A, B):
    """Demand of one built-in family: its branches blended by d1..d3.

    The coefficients are the family's scalars; d1..d3 and z broadcast against
    each other (one state's cells of the family, or a batch of them).  Each
    branch is evaluated inside the blend expression, so no branch value
    outlives its product with its weight.
    """
    w2 = d2 * (1.0 - d1)
    w3 = (1.0 - d2) * (1.0 - d1)
    sub = d1 * _quad(_PHI1, z) + w2 * _branch(A, z) + w3 * _branch(B, z)
    over = d3 * _quad(_PHI6, z) + (1.0 - d3) * _quad(_PHI7, z)
    return np.where(z <= delta, sub, over)


def _piece_table(families) -> tuple:
    """Every cell's five demand pieces (phi1, A, B, phi6, phi7) as arrays.

    Returns the knees, shape (5, n), and the (c2, c1, c0) coefficients up to
    and above each knee, shape (3, 5, n), with zeros for missing terms.  A
    piece without a knee gets an infinite one and repeats its coefficients
    above it; cells outside the built-in families get the main family's
    values, which `demand_all` overwrites.
    """
    cells = [((None, _PHI1, None),)
             + _FAMILY_BRANCHES.get(fam, _FAMILY_BRANCHES["freeway-main"])
             + ((None, _PHI6, None), (None, _PHI7, None)) for fam in families]
    knee = np.array([[math.inf if b[0] is None else b[0] for b in cell]
                     for cell in cells]).reshape(-1, 5)
    lo, hi = (np.array([[[0.0 if c is None else c for c in (b[end] or b[1])] for b in cell]
                        for cell in cells]).reshape(-1, 5, 3) for end in (1, 2))
    # cell-major lists, piece-major arrays: a contiguous copy keeps the knee
    # pick in `demand_all` off strided reads
    return tuple(np.ascontiguousarray(t.T) for t in (knee, lo, hi))


@dataclass(frozen=True)
class Piece:
    """One polynomial segment [lo, hi] with ascending coefficients."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("piece needs at least one coefficient")
        if not self.lo <= self.hi:
            raise ValueError(f"piece interval [{self.lo}, {self.hi}] is empty")


def _eval_pieces(pieces: tuple[Piece, ...], z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z, dtype=float)
    claimed = np.zeros(z.shape, dtype=bool)
    for p in pieces:
        m = (z >= p.lo) & (z <= p.hi) & ~claimed
        if m.any():
            out[m] = np.polynomial.polynomial.polyval(z[m], p.coeffs)
            claimed |= m
    if not claimed.all():
        bad = float(np.asarray(z)[~claimed].flat[0])
        raise DomainError(f"no polynomial piece covers density {bad:.6g}")
    return out


@dataclass(frozen=True)
class DemandFunction:
    """Per-cell uncertain demand curve with its declared sector constants.

    ``L``/``G`` bound the subcritical slopes (L on [0, delta_tilde], G on
    [0, delta]); ``fmin`` lower-bounds demand beyond the critical density.
    These are *declared* values — `audit_demand_curve` checks them against samples.
    """

    family: str
    a: float
    delta: float
    delta_tilde: float
    L: float
    G: float
    fmin: float
    subcritical: tuple[Piece, ...] = ()
    overcritical: tuple[Piece, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown demand family {self.family!r}")
        if not (0 < self.delta_tilde <= self.delta <= self.a):
            raise ValueError("need 0 < delta_tilde <= delta <= a")
        if not (0 < self.L <= self.G <= 1):
            raise ValueError("need 0 < L <= G <= 1")
        if not self.fmin > 0:
            raise ValueError("fmin must be positive")
        if self.family == "piecewise" and not (self.subcritical and self.overcritical):
            raise ValueError("piecewise family needs both branch tables")
        object.__setattr__(self, "subcritical", tuple(self.subcritical))
        object.__setattr__(self, "overcritical", tuple(self.overcritical))


@dataclass(frozen=True)
class SupplyFunction:
    """g(d, x) = scale * min(qcap, a - x); scale is d4 unless `wave` pins it."""

    qcap: float
    a: float
    wave: float | None = None

    def __post_init__(self):
        if not (self.qcap > 0 and self.a > 0):
            raise ValueError("qcap and a must be positive")
        if self.wave is not None and not self.wave > 0:
            raise ValueError("fixed wave scale must be positive")


def _demand_values(fd: DemandFunction, d1, d2, d3, z):
    """Branch-blended demand; no domain checks. Broadcasts d-weights over z.

    Densities below DEMAND_FLOOR are empty cells and emit nothing; that also
    keeps f < z at subnormal densities, where 0.7 * z rounds back to z.
    """
    if fd.family == "piecewise":
        z = np.asarray(z, dtype=float)
        sub = _eval_pieces(fd.subcritical, np.minimum(z, fd.delta))
        over = _eval_pieces(fd.overcritical, np.maximum(z, fd.delta))
        f = np.where(z <= fd.delta, sub, over)
    else:
        f = _blend(d1, d2, d3, z, fd.delta, *_FAMILY_BRANCHES[fd.family])
    return np.where(z < DEMAND_FLOOR, 0.0, f)


def _supply_values(sf: SupplyFunction, d4, x):
    scale = d4 if sf.wave is None else sf.wave
    return scale * np.minimum(sf.qcap, sf.a - np.asarray(x, dtype=float))


@dataclass(frozen=True)
class DiagramSet:
    """All per-cell demand/supply curves plus the uncertainty box D.

    ``d_lo``/``d_hi`` bound the 4-vector d.  Evaluation helpers are
    vectorized over cells (and over samples in the ``*_batch`` forms).
    """

    demands: tuple[DemandFunction, ...]
    supplies: tuple[SupplyFunction, ...]
    d_lo: np.ndarray
    d_hi: np.ndarray
    # cached per-cell arrays, the built-in families' index groups and the
    # piecewise cells; _wave is None unless some supply pins its scale (NaN
    # marks the cells scaled by d4); _pieces holds every cell's demand piece
    # table for `demand_all` and _d_lo_tol/_d_hi_tol the box that `step`
    # admits d from
    _a: np.ndarray = field(init=False, repr=False, compare=False)
    _delta: np.ndarray = field(init=False, repr=False, compare=False)
    _qcap: np.ndarray = field(init=False, repr=False, compare=False)
    _wave: np.ndarray | None = field(init=False, repr=False, compare=False)
    _groups: dict = field(init=False, repr=False, compare=False)
    _pieces: tuple = field(init=False, repr=False, compare=False)
    _piecewise: tuple = field(init=False, repr=False, compare=False)
    _d_lo_tol: np.ndarray = field(init=False, repr=False, compare=False)
    _d_hi_tol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "demands", tuple(self.demands))
        object.__setattr__(self, "supplies", tuple(self.supplies))
        if len(self.demands) != len(self.supplies):
            raise DimensionError("demand and supply tables differ in length")
        for lohi in ("d_lo", "d_hi"):
            arr = np.array(getattr(self, lohi), dtype=float)
            if arr.shape != (_D_DIM,):
                raise DimensionError(f"{lohi} must have shape ({_D_DIM},)")
            arr.setflags(write=False)
            object.__setattr__(self, lohi, arr)
        if np.any(self.d_lo > self.d_hi):
            raise ValueError("uncertainty box is empty")
        # the demand curves blend by weights d1..d3 in [0, 1], and d4 scales supply
        for k in range(3):
            for end, bound in (("lo", self.d_lo[k]), ("hi", self.d_hi[k])):
                if not 0.0 <= bound <= 1.0:
                    raise ValueError(f"d_box: d{k + 1} {end} = {bound:.6g} is outside "
                                     f"[0, 1], the range of a demand blend weight")
        if not self.d_lo[3] > 0.0:
            raise ValueError(f"d_box: d4 lo = {self.d_lo[3]:.6g} must be positive: "
                             f"d4 scales supply")
        for fd, sf in zip(self.demands, self.supplies):
            if fd.a != sf.a:
                raise ValueError("demand and supply disagree on the jam capacity")
        object.__setattr__(self, "_a", np.array([fd.a for fd in self.demands]))
        object.__setattr__(self, "_delta", np.array([fd.delta for fd in self.demands]))
        object.__setattr__(self, "_qcap", np.array([sf.qcap for sf in self.supplies],
                                                   dtype=float))
        wave = np.array([np.nan if sf.wave is None else sf.wave for sf in self.supplies],
                        dtype=float)
        object.__setattr__(self, "_wave", None if np.isnan(wave).all() else wave)
        groups = {
            fam: np.array([k for k, fd in enumerate(self.demands) if fd.family == fam],
                          dtype=int)
            for fam in _FAMILY_BRANCHES
        }
        object.__setattr__(self, "_groups", groups)
        object.__setattr__(self, "_piecewise", tuple(
            k for k, fd in enumerate(self.demands) if fd.family == "piecewise"))
        object.__setattr__(self, "_pieces",
                           _piece_table([fd.family for fd in self.demands]))
        object.__setattr__(self, "_d_lo_tol", self.d_lo - D_TOL)
        object.__setattr__(self, "_d_hi_tol", self.d_hi + D_TOL)

    @property
    def n(self) -> int:
        return len(self.demands)

    def min_supply_at_zero(self) -> np.ndarray:
        """Per-cell inf over d of g(d, 0) — the guaranteed empty-cell supply."""
        return supply_batch(self, self.d_lo[None, :], np.zeros((1, self.n)))[0]


def check_pair(spec: NetworkSpec, ds: DiagramSet) -> None:
    """Raise ValueError unless the diagrams describe the network's cells.

    The cell counts must agree (a DimensionError names both), and so must
    every cell's jam capacity: the network's a_i bounds the densities that `step`
    admits, while the curves' a_i sets where supply reaches zero.  The error
    names the first disagreeing cell and both values.
    """
    if ds.n != spec.n:
        raise DimensionError(f"network has {spec.n} cells but diagrams describe {ds.n}")
    bad = np.flatnonzero(ds._a != spec.a)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"cell {i + 1}: diagrams give jam capacity a = {ds._a[i]:.10g} "
                         f"but the network has a = {spec.a[i]:.10g}")


def eval_demand(fd: DemandFunction, d, x) -> float:
    """Demand flow of one cell at density x under uncertainty sample d."""
    d = np.asarray(d, dtype=float)
    if d.shape != (_D_DIM,):
        raise DimensionError(f"d must be a {_D_DIM}-vector")
    x = float(x)
    if not 0.0 <= x <= fd.a:
        raise DomainError(f"density {x:.6g} outside [0, {fd.a:.6g}]")
    if fd.family != "piecewise" and not (
        0.0 <= d[0] <= 1.0 and 0.0 <= d[1] <= 1.0 and 0.0 <= d[2] <= 1.0
    ):
        raise DomainError("demand blend weights d1..d3 must lie in [0, 1]")
    return float(_demand_values(fd, d[0], d[1], d[2], x))


def eval_supply(sf: SupplyFunction, d, x) -> float:
    """Supply (acceptable inflow) of one cell at density x."""
    d = np.asarray(d, dtype=float)
    if d.shape != (_D_DIM,):
        raise DimensionError(f"d must be a {_D_DIM}-vector")
    x = float(x)
    if not 0.0 <= x <= sf.a:
        raise DomainError(f"density {x:.6g} outside [0, {sf.a:.6g}]")
    if sf.wave is None and not 0.0 < d[3] < math.inf:
        raise DomainError(f"supply scale d4 = {d[3]:.6g} must be positive and finite")
    return float(_supply_values(sf, d[3], x))


def demand_all(ds: DiagramSet, d, x) -> np.ndarray:
    """All cells' demand at state x (one uncertainty sample); same values as
    the matching row of `demand_batch`.

    Each cell's knee picks the coefficients of its five pieces, so one
    quadratic pass evaluates them all; the weighted pieces are then summed in
    `_blend`'s order.
    """
    x = np.asarray(x, dtype=float)
    d1, d2, d3 = np.asarray(d, dtype=float)[:3].tolist()
    knee, lo, hi = ds._pieces
    w = np.array([d1, d2 * (1.0 - d1), (1.0 - d2) * (1.0 - d1), d3, 1.0 - d3])[:, None]
    q = w * _quad(np.where(x <= knee, lo, hi), x)
    out = np.where(x <= ds._delta, q[0] + q[1] + q[2], q[3] + q[4])
    for k in ds._piecewise:
        out[k] = _demand_values(ds.demands[k], d1, d2, d3, x[k])
    out[x < DEMAND_FLOOR] = 0.0
    return out


def supply_all(ds: DiagramSet, d, x) -> np.ndarray:
    """All cells' supply at state x; same values as a row of `supply_batch`."""
    d4 = float(np.asarray(d, dtype=float)[3])
    scale = d4 if ds._wave is None else np.where(np.isnan(ds._wave), d4, ds._wave)
    return scale * np.minimum(ds._qcap, ds._a - np.asarray(x, dtype=float))


def demand_batch(ds: DiagramSet, D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Demand for a batch: D is (N, 4), X is (N, n); returns (N, n).

    Elementwise per row, so a row's values do not depend on the batch it is
    evaluated in.  Densities below DEMAND_FLOOR give 0, as in `eval_demand`.
    """
    N = X.shape[0]
    out = np.empty((N, ds.n))
    d1 = D[:, 0:1]
    d2 = D[:, 1:2]
    d3 = D[:, 2:3]
    for fam, branches in _FAMILY_BRANCHES.items():
        idx = ds._groups[fam]
        if idx.size:
            out[:, idx] = _blend(d1, d2, d3, X[:, idx], ds._delta[idx], *branches)
    for k in ds._piecewise:
        out[:, k] = _demand_values(ds.demands[k], d1[:, 0], d2[:, 0], d3[:, 0], X[:, k])
    out[X < DEMAND_FLOOR] = 0.0
    return out


def supply_batch(ds: DiagramSet, D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Supply for a batch: D is (N, 4), X is (N, n); returns (N, n)."""
    scale = D[:, 3:4] if ds._wave is None else np.where(np.isnan(ds._wave), D[:, 3:4],
                                                        ds._wave)
    return scale * np.minimum(ds._qcap, ds._a - X)


# --- uncertainty sampling ---------------------------------------------------

def d_corners(ds: DiagramSet) -> np.ndarray:
    """All 2^4 corner points of the uncertainty box."""
    cols = [(ds.d_lo[k], ds.d_hi[k]) for k in range(_D_DIM)]
    return np.array(list(itertools.product(*cols)))


def sample_uncertainty(ds: DiagramSet, m: int, seed: int = 0) -> np.ndarray:
    """The 16 corners of the uncertainty box, then m - 16 low-discrepancy
    samples of d: the first Sobol points of one power-of-two draw, scaled
    into the box."""
    corners = d_corners(ds)
    k = m - len(corners)
    if k < 0:
        raise ValueError(f"need m >= {len(corners)} to include all corners, got {m}")
    u = Sobol(_D_DIM, seed).random(1 << (k - 1).bit_length())[:k]
    return np.vstack([corners, ds.d_lo + u * (ds.d_hi - ds.d_lo)])


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def uniform_uncertainty(ds: DiagramSet, m: int, rng: np.random.Generator) -> np.ndarray:
    """m independent uniform draws from the box (for per-step disturbances)."""
    u = rng.uniform(size=(m, _D_DIM))
    return ds.d_lo + u * (ds.d_hi - ds.d_lo)


# --- assumption audits -------------------------------------------------------

@dataclass(frozen=True)
class DemandAudit:
    """Sampled audit of one demand curve against its declared constants."""

    monotone_ok: bool
    sector_ok: bool
    fmin_ok: bool
    strict_bound_ok: bool
    L_hat: float
    G_hat: float
    fmin_hat: float

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.sector_ok and self.fmin_ok and self.strict_bound_ok


def audit_demand_curve(fd: DemandFunction, seed: int = 0) -> DemandAudit:
    """Audit increase/sector/floor/strict-bound behavior of a demand curve.

    Sampling-based: AUDIT_GRID densities per branch crossed with the corners
    and AUDIT_D_SAMPLES low-discrepancy blend weights of [0,1]^3.
    Reports the tightest empirical constants next to the declared ones.
    """
    if fd.family == "piecewise":
        dmat = np.zeros((1, 3))
    else:
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        dmat = np.vstack([corners, Sobol(3, seed).random(AUDIT_D_SAMPLES)])
    d1, d2, d3 = (dmat[:, k:k + 1] for k in range(3))

    zs = np.linspace(0.0, fd.delta, AUDIT_GRID)
    f_sub = _demand_values(fd, d1, d2, d3, zs[None, :])
    df = np.diff(f_sub, axis=1)
    slopes = df / np.diff(zs)
    monotone_ok = bool((df > 0).all())
    # two-point slopes over a sorted grid: adjacent pairs attain the extremes
    tilde = zs[1:] <= fd.delta_tilde + 1e-12
    L_hat = float(slopes[:, tilde].min()) if tilde.any() else math.inf
    G_hat = float(slopes.max())
    sector_ok = bool(L_hat >= fd.L - 1e-9 and G_hat <= fd.G + 1e-9)

    zo = np.linspace(fd.delta, fd.a, AUDIT_GRID)
    f_over = _demand_values(fd, d1, d2, d3, zo[None, :])
    fmin_hat = float(f_over.min())
    fmin_ok = bool(fmin_hat >= fd.fmin - 1e-9)

    z_all = np.concatenate([zs[1:], zo])
    f_all = np.hstack([f_sub[:, 1:], f_over])
    strict_bound_ok = bool((f_all > 0).all() and (f_all < z_all[None, :]).all())

    return DemandAudit(monotone_ok, sector_ok, fmin_ok, strict_bound_ok,
                    L_hat, G_hat, fmin_hat)


@dataclass(frozen=True)
class SupplyMarginAudit:
    """Worst-case slack of supply over inflow on the uncongested box."""

    min_slack: float
    worst_cell: int
    worst_d: np.ndarray
    worst_x: np.ndarray
    passed: bool


def audit_supply_margin(spec: NetworkSpec, ds: DiagramSet,
                        seed: int = 0) -> SupplyMarginAudit:
    """Check v_max + routed demand <= supply for all sampled x <= mu, d in D.

    Both demand and supply are monotone in x, so the honest worst case sits
    at x = mu exactly; that slice is swept against all box corners and a
    low-discrepancy d-sample, then a random (x, d) cloud fills in the rest.
    Slack slightly below zero (within SUPPLY_TOL) still passes: instances built
    with deliberate epsilon padding of mu sit a hair past exact equality.
    """
    n = spec.n
    dmat = sample_uncertainty(ds, 2 ** _D_DIM + AUDIT_D_SAMPLES, seed)
    X_mu = np.tile(spec.mu, (len(dmat), 1))

    rng = _philox(seed)
    D_rand = uniform_uncertainty(ds, AUDIT_X_SAMPLES, rng)
    X_rand = rng.uniform(size=(AUDIT_X_SAMPLES, n)) * spec.mu

    D_all = np.vstack([dmat, D_rand])
    X_all = np.vstack([X_mu, X_rand])
    F = demand_batch(ds, D_all, X_all)
    Gs = supply_batch(ds, D_all, X_all)
    slack = Gs - spec.vmax[None, :] - F @ spec.P  # (N, n); col j gets sum_i P[i,j] f_i
    flat = int(np.argmin(slack))
    row, cell = divmod(flat, n)
    return SupplyMarginAudit(
        min_slack=float(slack.flat[flat]),
        worst_cell=cell,
        worst_d=D_all[row].copy(),
        worst_x=X_all[row].copy(),
        passed=bool(slack.flat[flat] >= -SUPPLY_TOL),
    )


# --- JSON I/O ----------------------------------------------------------------

_CELL_NUMBERS = ("a", "delta", "delta_tilde", "L", "G", "fmin")
_CELL_REQUIRED = {"family", "supply", *_CELL_NUMBERS}
_CELL_FIELDS = _CELL_REQUIRED | {"subcritical", "overcritical"}


def _pieces(table, what: str) -> tuple[Piece, ...]:
    """A piecewise branch table: a list of [lo, hi, [c0, c1, ...]] segments."""
    if not (isinstance(table, list)
            and all(isinstance(seg, list) and len(seg) == 3 for seg in table)):
        raise ValueError(f"{what} must be a list of [lo, hi, [c0, c1, ...]] segments")
    pieces = []
    for k, (lo, hi, coeffs) in enumerate(table):
        with _located(f"{what} segment {k + 1}"):
            pieces.append(Piece(_checked(lo, (), "lo"), _checked(hi, (), "hi"),
                                tuple(_checked(coeffs, (None,), "coefficients"))))
    return tuple(pieces)


def load_diagrams(path) -> DiagramSet:
    """Read a DiagramSet from a JSON file, every field checked."""
    with open(path, encoding="utf-8") as fh, _located(path):
        doc = json.load(fh)
        _check_fields(doc, {"d_box", "cells"}, {"d_box", "cells"})
        box = doc["d_box"]
        if np.array(box, dtype=object).shape != (_D_DIM, 2):
            raise ValueError(f"d_box must be {_D_DIM} [lo, hi] pairs")
        box = np.array([[_checked(value, (), f"d_box: d{k + 1} {end}")
                         for end, value in zip(("lo", "hi"), pair)]
                        for k, pair in enumerate(box)])
        if not isinstance(doc["cells"], list):
            raise ValueError("cells must be a JSON list")
        demands, supplies = [], []
        for k, cell in enumerate(doc["cells"]):
            with _located(f"cell {k + 1}"):
                _check_fields(cell, _CELL_REQUIRED, _CELL_FIELDS)
                sup = cell["supply"]
                _check_fields(sup, {"qcap"}, {"qcap", "wave"}, "supply field")
                values = {name: _checked(cell[name], (), f"field '{name}'")
                          for name in _CELL_NUMBERS}
                demands.append(DemandFunction(family=cell["family"], **values, **{
                    name: _pieces(cell[name], f"field '{name}'")
                    for name in ("subcritical", "overcritical") if name in cell}))
                wave = sup.get("wave")
                supplies.append(SupplyFunction(
                    _checked(sup["qcap"], (), "supply field 'qcap'"), values["a"],
                    None if wave is None else _checked(wave, (), "supply field 'wave'")))
        return DiagramSet(tuple(demands), tuple(supplies), box[:, 0], box[:, 1])


def save_diagrams(ds: DiagramSet, path) -> None:
    cells = []
    for fd, sf in zip(ds.demands, ds.supplies):
        cell = {
            "family": fd.family, "a": fd.a, "delta": fd.delta,
            "delta_tilde": fd.delta_tilde, "L": fd.L, "G": fd.G, "fmin": fd.fmin,
            "supply": {"qcap": sf.qcap} if sf.wave is None
                      else {"qcap": sf.qcap, "wave": sf.wave},
        }
        if fd.family == "piecewise":
            cell["subcritical"] = [[p.lo, p.hi, list(p.coeffs)] for p in fd.subcritical]
            cell["overcritical"] = [[p.lo, p.hi, list(p.coeffs)] for p in fd.overcritical]
        cells.append(cell)
    doc = {"d_box": np.stack([ds.d_lo, ds.d_hi], axis=1).tolist(), "cells": cells}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
