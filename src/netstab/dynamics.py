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

from dataclasses import dataclass

import numpy as np

from .diagrams import DEMAND_FLOOR, DiagramSet, demand_all, supply_all
from .errors import DimensionError, DomainError, NumericalError
from .network import NetworkSpec

STATE_TOL = 1e-9       # admission tolerance for x against the state box


@dataclass(frozen=True)
class FlowBreakdown:
    """Everything that moved in one step.

    outflow[i] = s[i] * attempted_demand[i]; inflow[i] sums accepted external
    inflow (w[i] * v[i]) and routed upstream arrivals; exit[i] is the share
    leaving the network.  inflow never exceeds the cell's supply.
    """

    outflow: np.ndarray
    inflow: np.ndarray
    exit: np.ndarray
    s: np.ndarray
    w: np.ndarray
    attempted_demand: np.ndarray


def _allocate(spec: NetworkSpec, f: np.ndarray, g: np.ndarray, v: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """Per-cell throttles honoring external-first, descending-index priority."""
    fl, gl, vl = f.tolist(), g.tolist(), v.tolist()
    s = [1.0] * spec.n
    for j, claim in spec.claims:
        rem = gl[j] - vl[j]
        for i, p in claim:
            cap = p * fl[i]
            if cap > DEMAND_FLOOR:
                ratio = rem / cap
                if ratio < s[i]:
                    s[i] = max(0.0, ratio)
            rem -= cap
    s = np.array(s)
    # empty or demandless cells emit nothing and are never considered throttled
    s[(x <= 0.0) | (f < DEMAND_FLOOR)] = 1.0
    return s


def compute_flows(spec: NetworkSpec, ds: DiagramSet, x, v, d) -> FlowBreakdown:
    """Flow breakdown at (x, v, d) without validation; see `step` for checks."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    f = demand_all(ds, d, x)
    g = supply_all(ds, d, x)
    if not np.isfinite(f).all():
        i = int(np.argmax(~np.isfinite(f)))
        raise NumericalError(f"non-finite demand at cell {i + 1}", cell=i)
    if not np.isfinite(g).all():
        i = int(np.argmax(~np.isfinite(g)))
        raise NumericalError(f"non-finite supply at cell {i + 1}", cell=i)
    s = _allocate(spec, f, g, v, x)
    outflow = s * f
    accepted = np.minimum(v, g)
    inflow = accepted + outflow @ spec.P
    exit_flow = spec.Qexit * outflow
    w = np.divide(accepted, v, out=np.ones(spec.n), where=v > 0)
    return FlowBreakdown(outflow=outflow, inflow=inflow, exit=exit_flow,
                         s=s, w=w, attempted_demand=f)


def _check_domain(spec: NetworkSpec, ds: DiagramSet, x, v, d) -> None:
    """The domain checks of `step` on float arrays of the right shapes; None
    skips one.  Each admission test is written so that NaN fails it."""
    if x is not None and not ((x >= -STATE_TOL).all() and (x <= spec.a + STATE_TOL).all()):
        i = int(np.argmax(np.maximum(-x, x - spec.a)))  # NaN and inf rank first
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
    _check_domain(spec, ds, x, v, d)
    x = x.clip(0.0, spec.a)
    fb = compute_flows(spec, ds, x, v, d)
    x_next = x - fb.outflow + fb.inflow
    if not (x_next.min() >= -STATE_TOL and (x_next - spec.a).max() <= STATE_TOL):
        if not np.isfinite(x_next).all():
            i = int(np.argmax(~np.isfinite(x_next)))
            raise NumericalError(f"non-finite state at cell {i + 1}", cell=i)
        drift = np.maximum(-x_next, x_next - spec.a)
        i = int(np.argmax(drift))
        raise NumericalError(
            f"state left its box at cell {i + 1} by {drift[i]:.3g}", cell=i)
    return x_next.clip(0.0, spec.a), fb


def is_uncongested(spec: NetworkSpec, ds: DiagramSet, x, v, d) -> bool:
    """True iff every cell's supply covers its attempted inflow at (x, v, d)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    f = demand_all(ds, d, x)
    g = supply_all(ds, d, x)
    return bool(np.all(v + f @ spec.P <= g))
