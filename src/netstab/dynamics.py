"""One-step network update: supply-limited flow exchange between cells.

Per step, each cell attempts to emit its demand f_i(d, x_i).  A receiving
cell admits at most its supply g_j(d, x): external inflow v_j has full
priority (it is accepted up to min(v_j, g_j)); upstream senders then fill the
remaining supply in descending cell-index order, each claiming its routed
share p_{i,j} f_i or whatever is left.  A sender feeding several junctions is
throttled by the tightest one.  The per-cell throttle s_i multiplies the whole
outflow (including the exit share), so mass is conserved by construction:
sent always equals received and total inflow never exceeds supply.
"""

from __future__ import annotations

import math

import numpy as np

from .diagrams import DEMAND_FLOOR, DiagramSet, demand_all, supply_all
from .errors import DimensionError, DomainError, NumericalError
from .network import STATE_TOL, NetworkSpec


class FlowBreakdown:
    """Everything that moved in one step.

    outflow[i] = s[i] * attempted_demand[i]; inflow[i] sums accepted external
    inflow (w[i] * v[i]) and routed upstream arrivals; exit[i] is the share
    leaving the network.  inflow never exceeds the cell's supply.

    The step keeps the accepted inflow, a copy of the offered inflow v (so
    a caller writing into its v array later changes nothing here) and the
    exit shares; `w` and `exit` are derived from them on first read, and
    `derived_fields` derives them for a whole run at once.  It is a slotted
    plain class: a frozen dataclass sets each field through
    `object.__setattr__`, which made building one cost five times as much.
    """

    __slots__ = ("outflow", "inflow", "s", "attempted_demand",
                 "_accepted", "_v", "_qexit", "_w", "_exit")

    def __init__(self, outflow, inflow, s, attempted_demand, accepted, v, qexit):
        self.outflow = outflow
        self.inflow = inflow
        self.s = s
        self.attempted_demand = attempted_demand
        self._accepted = accepted
        self._v = v
        self._qexit = qexit
        self._w = self._exit = None

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            self._w = _accepted_share(self._accepted, self._v)
        return self._w

    @property
    def exit(self) -> np.ndarray:
        if self._exit is None:
            self._exit = self._qexit * self.outflow
        return self._exit


def _accepted_share(accepted: np.ndarray, v: np.ndarray) -> np.ndarray:
    """accepted / v where v > 0, else 1; elementwise, so a (T, n) stack of
    rows gives each row's own bits."""
    return np.divide(accepted, v, out=np.ones(v.shape), where=v > 0)


def derived_fields(flows) -> tuple[np.ndarray, np.ndarray]:
    """`w` and `exit` of a run's breakdowns as (T, n) arrays, row t equal bit
    for bit to flows[t].w and flows[t].exit.  Every breakdown of one run
    shares its network's exit shares.  Each stacked input is dropped once
    its field is built, so no more than three (T, n) arrays are alive."""
    w = _accepted_share(np.array([fb._accepted for fb in flows]),
                        np.array([fb._v for fb in flows]))
    return w, flows[0]._qexit * np.array([fb.outflow for fb in flows])


def _allocate(spec: NetworkSpec, fl: list, gl: list, vl: list) -> list:
    """Per-cell throttles honoring external-first, descending-index priority,
    from demand, supply and inflow as lists.  A sender with f < DEMAND_FLOOR
    (every empty cell among them) emits nothing and is never throttled, though
    its claim still counts against the junction's remaining supply."""
    s = [1.0] * spec.n
    for j, claim in spec.claims:
        rem = gl[j] - vl[j]
        for i, p in claim:
            cap = p * fl[i]
            if cap > DEMAND_FLOOR:
                ratio = rem / cap
                if ratio < s[i] and fl[i] >= DEMAND_FLOOR:
                    s[i] = max(0.0, ratio)
            rem -= cap
    return s


def compute_flows(spec: NetworkSpec, ds: DiagramSet, x, v, d) -> FlowBreakdown:
    """Flow breakdown at (x, v, d) without validation; see `step` for checks."""
    return _flows(spec, ds, np.asarray(x, dtype=float), np.asarray(v, dtype=float),
                  np.asarray(d, dtype=float))


def _flows(spec: NetworkSpec, ds: DiagramSet, x: np.ndarray, v: np.ndarray,
           d: np.ndarray) -> FlowBreakdown:
    """`compute_flows` on x, v and d already converted to float arrays."""
    f = demand_all(ds, d, x)
    g = supply_all(ds, d, x)
    fl, gl = f.tolist(), g.tolist()
    # the sum is finite when every term is, but finite terms can overflow it
    if not math.isfinite(sum(fl) + sum(gl)):
        for what, y in (("demand", f), ("supply", g)):
            if not np.isfinite(y).all():
                i = int(np.argmax(~np.isfinite(y)))
                raise NumericalError(f"non-finite {what} at cell {i + 1}", cell=i)
    s = np.array(_allocate(spec, fl, gl, v.tolist()))
    outflow = s * f
    accepted = np.minimum(v, g)
    return FlowBreakdown(outflow, accepted + outflow @ spec.P, s, f,
                         accepted, v.copy(), spec.Qexit)


def _within(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """lo <= z <= hi entrywise; NaN fails.  `np.count_nonzero` reduces a
    short boolean array at about a third of the cost of `ndarray.all`."""
    return np.count_nonzero((z >= lo) & (z <= hi)) == z.size


def _check_domain(spec: NetworkSpec, ds: DiagramSet, x, v, d) -> None:
    """The domain checks of `step` on float arrays of the right shapes; None
    skips one.  Each admission test is written so that NaN fails it.  `step`
    screens with the same tests and calls this only to name what failed."""
    refused = x is not None and ~((x >= -STATE_TOL) & (x <= spec.a + STATE_TOL))
    if np.any(refused):
        # the refused cell furthest out, NaN and inf first: an admitted cell
        # just above a can reach further than a refusal just below -STATE_TOL
        i = int(np.argmax(np.where(refused, np.maximum(-x, x - spec.a), -np.inf)))
        if not np.isfinite(x[i]):
            raise DomainError(f"cell {i + 1}: non-finite density {x[i]}")
        raise DomainError(f"cell {i + 1}: density {x[i]:.6g} outside [0, {spec.a[i]:.6g}]")
    if v is not None and not ((v >= 0.0).all() and (v < np.inf).all()):
        i = int(np.argmax(~((v >= 0.0) & (v < np.inf))))
        what = "negative" if np.isfinite(v[i]) else "non-finite"
        raise DomainError(f"cell {i + 1}: {what} external inflow {v[i]:.6g}")
    if d is not None and not ((d >= ds._d_lo_tol).all() and (d <= ds._d_hi_tol).all()):
        k = int(np.argmax(~((d >= ds._d_lo_tol) & (d <= ds._d_hi_tol))))
        raise DomainError(
            f"disturbance coordinate d{k + 1} = {d[k]:.6g} outside the uncertainty "
            f"box [{ds.d_lo[k]:.6g}, {ds.d_hi[k]:.6g}]")


def step(spec: NetworkSpec, ds: DiagramSet, x, v, d) -> tuple[np.ndarray, FlowBreakdown]:
    """Advance the state one step; returns (x_next, FlowBreakdown).

    Raises DimensionError when x, v or d has the wrong shape; DomainError
    naming the cell (or the coordinate of d) when x is non-finite or leaves
    the state box, v is non-finite or negative, or d is non-finite or falls
    outside the uncertainty box; NumericalError when any flow is non-finite.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    d = np.asarray(d, dtype=float)
    if x.shape != (spec.n,) or v.shape != (spec.n,):
        raise DimensionError(f"x and v must have shape ({spec.n},)")
    if d.shape != ds.d_lo.shape:
        raise DimensionError(f"d must have shape {ds.d_lo.shape}, got {d.shape}")
    # one screen against bounds cached on spec and ds, strict for x, so a
    # state a step returned (clipped to [0, a]) skips the clip; otherwise
    # `_check_domain` raises, naming what failed, unless x lies in the
    # STATE_TOL band around the box, which is clipped
    if not (_within(np.concatenate((x, v)), *spec.admission)
            and _within(d, ds._d_lo_tol, ds._d_hi_tol)):
        _check_domain(spec, ds, x, v, d)
        x = np.minimum(np.maximum(x, 0.0), spec.a)
    fb = _flows(spec, ds, x, v, d)
    x_next = x - fb.outflow + fb.inflow
    lo, hi = np.minimum.reduce(x_next), np.maximum.reduce(x_next - spec.a)
    if lo > 0.0 and hi <= 0.0:
        # inside (0, a] the clip is the identity; only a zero entry could
        # change under it, as np.maximum(-0.0, 0.0) gives +0.0
        return x_next, fb
    if not (lo >= -STATE_TOL and hi <= STATE_TOL):
        if not np.isfinite(x_next).all():
            i = int(np.argmax(~np.isfinite(x_next)))
            raise NumericalError(f"non-finite state at cell {i + 1}", cell=i)
        drift = np.maximum(-x_next, x_next - spec.a)
        i = int(np.argmax(drift))
        raise NumericalError(
            f"state left its box at cell {i + 1} by {drift[i]:.3g}", cell=i)
    return np.minimum(np.maximum(x_next, 0.0), spec.a), fb


def is_uncongested(spec: NetworkSpec, ds: DiagramSet, x, v, d) -> bool:
    """True iff every cell's supply covers its attempted inflow at (x, v, d)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    d = np.asarray(d, dtype=float)
    f = demand_all(ds, d, x)
    g = supply_all(ds, d, x)
    return bool(np.all(v + f @ spec.P <= g))
