"""Uncertain demand/supply curve families and their exact audits.

Each cell carries a demand curve f(d, x) (attempted outflow, increasing up to
the critical density ``delta``) and a supply curve g(d, x) (acceptable inflow,
non-increasing, zero at jam).  Uncertainty enters through a 4-vector
d = (d1, d2, d3, d4): d1..d3 blend the demand branches, d4 scales supply.

Two built-in demand families cover the reference freeway (mainline and
on-ramp-merge shapes); "piecewise" admits user polynomials per branch.
The audits check, exactly, that declared sector/floor constants hold and
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

FAMILIES = ("freeway-main", "freeway-onramp", "piecewise")

_D_DIM = 4

DEMAND_FLOOR = 1e-12   # a density (or demand) below this is an empty cell
D_TOL = 1e-12          # admission tolerance for d against the uncertainty box
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
    array pass.  `demand_all` takes the A and B pieces with zeros for the
    missing terms instead; adding a zero term leaves every nonzero value
    unchanged.
    """
    c2, c1, c0 = c
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


def _branch_row(branch) -> tuple:
    """A branch as (knee, (c2, c1, c0) up to it, (c2, c1, c0) above it) in
    floats, zeros for missing terms; a branch without a knee gets an infinite
    one and repeats its coefficients above it."""
    knee, lo, hi = branch
    lo, hi = (tuple(0.0 if c is None else c for c in piece) for piece in (lo, hi or lo))
    return math.inf if knee is None else knee, lo, hi


def _cell_rows(demands) -> tuple:
    """Each cell's (delta, A knee, A's two pieces, B knee, B's two pieces),
    as `_branch_row` writes a branch, for `demand_all`.  phi1, phi6 and phi7
    are the same for every cell; cells outside the built-in families get the
    main family's branches, which `demand_all` overwrites."""
    family = {fam: _branch_row(A) + _branch_row(B) for fam, (A, B) in _FAMILY_BRANCHES.items()}
    return tuple((float(fd.delta), *family.get(fd.family, family["freeway-main"]))
                 for fd in demands)


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
    These are *declared* values — `audit_demand_curve` checks them exactly.
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
    # marks the cells scaled by d4); _rows holds every cell's delta and A and
    # B branches as floats for `demand_all` (`_cell_rows`), _fcap every
    # cell's `demand_cap` and _d_box the box that `step` admits d from, as
    # (lo, hi) tuples of four floats
    _a: np.ndarray = field(init=False, repr=False, compare=False)
    _delta: np.ndarray = field(init=False, repr=False, compare=False)
    _qcap: np.ndarray = field(init=False, repr=False, compare=False)
    _wave: np.ndarray | None = field(init=False, repr=False, compare=False)
    _groups: dict = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)
    _fcap: np.ndarray = field(init=False, repr=False, compare=False)
    _piecewise: tuple = field(init=False, repr=False, compare=False)
    _d_box: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_rows", _cell_rows(self.demands))
        caps = {fd: demand_cap(fd) for fd in set(self.demands)}
        object.__setattr__(self, "_fcap", np.array([caps[fd] for fd in self.demands]))
        object.__setattr__(self, "_d_box", (tuple((self.d_lo - D_TOL).tolist()),
                                            tuple((self.d_hi + D_TOL).tolist())))

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


def demand_all(ds: DiagramSet, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All cells' demand at state x (one uncertainty sample), both float
    arrays; same values as the matching row of `demand_batch`.

    A Python loop over the cells in floats: at the sizes netstab runs, the
    cost of a numpy call, not its arithmetic, would set the price.  Per cell
    it takes the active branch only and picks each knee piece with one
    comparison.  It evaluates phi1, phi6 and phi7 term by term as `_quad`
    does and each A and B piece as c2*z*z + c1*z + c0, zero terms included,
    then sums the weighted pieces in `_blend`'s order.
    """
    d1, d2, d3 = d[:3].tolist()
    (_, e1, _), (_, s1, s0), (t2, t1, t0) = _PHI1, _PHI6, _PHI7  # the None terms skipped
    w2, w3, w5 = d2 * (1.0 - d1), (1.0 - d2) * (1.0 - d1), 1.0 - d3
    out = []
    for z, (delta, ka, alo, ahi, kb, blo, bhi) in zip(x.tolist(), ds._rows):
        if z < DEMAND_FLOOR:
            out.append(0.0)
        elif z <= delta:
            a2, a1, a0 = alo if z <= ka else ahi
            b2, b1, b0 = blo if z <= kb else bhi
            out.append(d1 * (e1 * z) + w2 * (a2 * z * z + a1 * z + a0)
                       + w3 * (b2 * z * z + b1 * z + b0))
        else:
            out.append(d3 * (s1 * z + s0) + w5 * (t2 * z * z + t1 * z + t0))
    for k in ds._piecewise:
        out[k] = float(_demand_values(ds.demands[k], d1, d2, d3, x[k]))
    return np.array(out)


def supply_all(ds: DiagramSet, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All cells' supply at state x, d and x float arrays; same values as a
    row of `supply_batch`."""
    d4 = float(d[3])
    scale = d4 if ds._wave is None else np.where(np.isnan(ds._wave), d4, ds._wave)
    return scale * np.minimum(ds._qcap, ds._a - x)


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


def supply_batch(ds: DiagramSet, D: np.ndarray, X: np.ndarray,
                 cells: np.ndarray | None = None) -> np.ndarray:
    """Supply for a batch: D is (N, 4), X is (N, n); returns (N, n).

    Supply reads d4 alone, the last column of D, so D may also be that
    column, (N, 1).  With `cells`, X holds the densities of those cells
    only, (N, len(cells)), and so does the result; each entry has the bits
    of the whole row's.
    """
    qcap, a, wave, d4 = ds._qcap, ds._a, ds._wave, D[:, -1:]
    if cells is not None:
        qcap, a, wave = qcap[cells], a[cells], None if wave is None else wave[cells]
    scale = d4 if wave is None else np.where(np.isnan(wave), d4, wave)
    return scale * np.minimum(qcap, a - X)


# --- uncertainty sampling ---------------------------------------------------

def d_corners(ds: DiagramSet) -> np.ndarray:
    """All 2^4 corner points of the uncertainty box."""
    return np.array(list(itertools.product(*zip(ds.d_lo, ds.d_hi))))


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def uniform_uncertainty(ds: DiagramSet, m: int, rng: np.random.Generator) -> np.ndarray:
    """m independent uniform draws from the box (for per-step disturbances)."""
    u = rng.uniform(size=(m, _D_DIM))
    return ds.d_lo + u * (ds.d_hi - ds.d_lo)


# --- assumption audits -------------------------------------------------------
# Both are exact.  For d1..d3 in [0, 1] the blend weights are nonnegative and
# sum to 1, so a built-in demand and its slope take their extremes over d on a
# single branch.  A polynomial's extremes on [lo, hi] lie at an end or at a
# real root of its derivative inside.

_P = np.polynomial.polynomial


def _branch_pieces(fd: DemandFunction) -> list:
    """(below delta?, Piece table) of each branch of a demand curve."""
    if fd.family == "piecewise":
        return [(True, fd.subcritical), (False, fd.overcritical)]

    def pieces(branch, lo, hi):
        knee, below, above = branch
        knee = hi if knee is None else min(knee, hi)
        return tuple(Piece(s, e, [0.0 if t is None else t for t in q[::-1]])
                     for s, e, q in ((lo, knee, below), (knee, hi, above)) if q)

    return ([(True, pieces(b, 0.0, fd.delta))
             for b in ((None, _PHI1, None),) + _FAMILY_BRANCHES[fd.family]]
            + [(False, pieces((None, q, None), fd.delta, fd.a)) for q in (_PHI6, _PHI7)])


def demand_cap(fd: DemandFunction) -> float:
    """A bound on every demand `demand_batch` and `demand_all` return for this
    curve, at densities in [0, a] and d in [0, 1]^3: the largest
    sum_k |c_k| m^k over the pieces of `_branch_pieces`, m = max(|lo|, |hi|)
    of the piece's interval, times 1 + 2^-40.

    Proof.  Every density a curve is evaluated at lies in the interval of
    the piece that evaluates it: a built-in knee sends z <= knee to the piece
    on [0, knee] and the rest to [knee, delta], a piecewise table evaluates
    the piece that claims z.  There the exact polynomial is at most
    sum_k |c_k| |z|^k <= sum_k |c_k| m^k.  A built-in demand below delta
    blends its three branches by d1, d2 (1 - d1) and (1 - d2)(1 - d1), above
    delta its two by d3 and 1 - d3: weights that are nonnegative and sum to
    one, so the blend is at most its largest branch.  Rounding adds at most
    a factor 1 + 2k u (u = 2^-53) to a degree-k polynomial in any order of
    its terms, Horner's included, about 1 + 6u to the rounded weights and
    their sum, and as much again as computing the bound itself lost.  For a
    degree below about 1,000 the factor 1 + 2^-40 covers all of them.
    Densities below DEMAND_FLOOR give 0.  A coefficient or end that is not
    finite, or a bound that overflows, gives inf or NaN: no finite bound.
    """
    caps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _, pieces in _branch_pieces(fd):
            for p in pieces:
                c = np.abs(p.coeffs)
                m = max(abs(p.lo), abs(p.hi))
                caps.append(np.sum(c * m ** np.arange(len(c)), where=c != 0))
        return float(np.max(caps) * (1.0 + 2.0 ** -40))


def _extremes(c, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) on [lo, hi] of the polynomial with ascending coefficients c."""
    c = _P.polytrim(c)
    z = [lo, hi] + [r.real for r in _P.polyroots(_P.polyder(c)) if lo < r.real < hi]
    v = _P.polyval(np.array(z), c)
    return float(v.min()), float(v.max())


@dataclass(frozen=True)
class DemandAudit:
    """One demand curve's least slope on [0, delta_tilde], greatest on [0, delta]
    and least value on [delta, a] over d in [0, 1]^3, and the checks."""

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


def audit_demand_curve(fd: DemandFunction) -> DemandAudit:
    """Audit increase/sector/floor/strict-bound behavior of a demand curve:
    a positive slope on [0, delta], and 0 < f(z) < z on (0, a] (on the piece
    through 0: f(0) = 0 and f(z)/z in (0, 1)).  A jump beyond 1e-9 at a
    piece end is an unbounded slope: G_hat is inf, or the increase fails and
    L_hat is -inf.  Raises DomainError where no piece covers a density."""
    L_hat, G_hat, fmin_hat = math.inf, -math.inf, math.inf
    monotone_ok = strict_bound_ok = True
    for sub, pieces in _branch_pieces(fd):
        lo, hi = (0.0, fd.delta) if sub else (fd.delta, fd.a)
        ends = np.unique([lo, hi, *(e for p in pieces for e in (p.lo, p.hi) if lo < e < hi)])
        mids = 0.5 * (ends[:-1] + ends[1:])
        f_ends = _eval_pieces(pieces, np.concatenate([ends, mids]))[:len(ends)]  # gaps raise
        strict_bound_ok &= bool(np.all((ends == 0.0) | ((f_ends > 0.0) & (f_ends < ends))))
        fmin_hat = min(fmin_hat, float(f_ends[-1] if sub else f_ends.min()))
        for u, w, m, f_u, f_w in zip(ends, ends[1:], mids, f_ends, f_ends[1:]):
            c = next(p.coeffs for p in pieces if p.lo <= m <= p.hi)
            low = _extremes(c, u, w)[0]
            if u == 0.0:
                ratio = _extremes(c[1:] or (0.0,), u, w)
                strict_bound_ok &= c[0] == 0.0 and ratio[0] > 0.0 and ratio[1] < 1.0
            else:
                excess = _extremes(_P.polysub(c, (0.0, 1.0)), u, w)[1]  # f(z) - z
                strict_bound_ok &= low > 0.0 and excess < 0.0
            if not sub:
                fmin_hat = min(fmin_hat, low)
                continue
            jumps = (_P.polyval(u, c) - f_u, f_w - _P.polyval(w, c))
            slope = _P.polyder(c)
            s_lo, s_hi = _extremes(slope, u, w)
            monotone_ok &= bool(s_lo > 0.0 and min(jumps) >= -1e-9)  # jumps are numpy floats
            G_hat = max(G_hat, math.inf if max(jumps) > 1e-9 else s_hi)
            if u < fd.delta_tilde:
                L_hat = min(L_hat, -math.inf if min(jumps) < -1e-9
                            else _extremes(slope, u, min(w, fd.delta_tilde))[0])
    return DemandAudit(monotone_ok, L_hat >= fd.L - 1e-9 and G_hat <= fd.G + 1e-9,
                       fmin_hat >= fd.fmin - 1e-9, strict_bound_ok, L_hat, G_hat, fmin_hat)


@dataclass(frozen=True)
class SupplyMarginAudit:
    """Worst-case slack of supply over inflow on the uncongested box."""

    min_slack: float
    worst_cell: int
    worst_d: np.ndarray
    passed: bool


def audit_supply_margin(spec: NetworkSpec, ds: DiagramSet) -> SupplyMarginAudit:
    """Check v_max + routed demand <= supply for every x <= mu and d in D.

    Supply falls with x and is linear in d4, demand is multi-affine in d1..d3
    and rises below delta (for curves that pass `audit_demand_curve`): where
    mu <= delta the least slack is at x = mu and a box corner.  A cell with
    mu_i > delta_i fails and is named.  Slack within SUPPLY_TOL below zero
    passes: the presets pad mu by an epsilon past exact equality."""
    D = d_corners(ds)
    X = np.tile(spec.mu, (len(D), 1))
    slack = supply_batch(ds, D, X) - spec.vmax[None, :] - demand_batch(ds, D, X) @ spec.P
    beyond = np.flatnonzero(spec.mu > ds._delta)
    cell = int(beyond[0]) if beyond.size else int(np.argmin(slack.min(axis=0)))
    row = int(np.argmin(slack[:, cell]))
    return SupplyMarginAudit(float(slack[row, cell]), cell, D[row],
                             not beyond.size and bool(slack[row, cell] >= -SUPPLY_TOL))


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
