"""Uncongested equilibria: construction, verification, and residual probes.

An uncongested equilibrium pairs inflows v* with densities x* such that each
cell's demand exactly carries its routed throughput for *every* admissible
disturbance, with strict supply slack.  Construction is direct: accumulate
flows along a topological order, then invert each demand curve's increasing
subcritical branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .diagrams import (DiagramSet, _demand_values, check_pair, demand_batch,
                       sample_uncertainty, supply_batch)
from .errors import DomainError, InfeasibleInflow, NonUniformEquilibrium
from .network import NetworkSpec

BISECTION_TOL = 1e-10
INVARIANCE_TOL = 1e-9
D_SAMPLES = 64
FIT_STAGES = 3         # zoom levels of the supply-scale fit
FIT_WIDTH = 801        # grid points per zoom level of the supply-scale fit


@dataclass(frozen=True)
class EquilibriumPair:
    """Equilibrium densities x*, inflows v*, and per-cell throughputs."""

    xstar: np.ndarray
    vstar: np.ndarray
    flows: np.ndarray


def equilibrium_flows(spec: NetworkSpec, vstar: np.ndarray) -> np.ndarray:
    """Throughput of every cell by forward substitution along a topological order."""
    F = np.array(vstar, dtype=float)
    for i in spec.order.order:
        for j in spec.predecessors[i]:
            F[i] += spec.P[j, i] * F[j]
    return F


def _invert_subcritical(fd, dref: np.ndarray, target: float) -> float:
    """Bisect the increasing subcritical branch for f(dref, x) = target."""
    if target <= 0.0:
        return 0.0
    lo, hi = 0.0, fd.delta
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _demand_values(fd, dref[0], dref[1], dref[2], mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_uep(spec: NetworkSpec, ds: DiagramSet, vstar) -> EquilibriumPair:
    """Solve for the uncongested equilibrium supporting the inflow vector v*.

    Raises DomainError naming the cell when an inflow is non-finite, negative
    or above its bound (an input error), InfeasibleInflow when some cell's
    required throughput exceeds its peak subcritical demand,
    NonUniformEquilibrium when the solved densities fail to carry the same
    flow under every sampled disturbance, ValueError naming the cell when the
    strict supply slack fails or the diagrams do not describe the network's
    cells (`check_pair`), and AcyclicityError when the network has a cycle.
    """
    check_pair(spec, ds)
    vstar = np.asarray(vstar, dtype=float)
    v_cap = np.minimum(spec.vmax, ds.min_supply_at_zero())
    if not np.isfinite(vstar).all():
        i = int(np.argmax(~np.isfinite(vstar)))
        raise DomainError(f"cell {i + 1}: equilibrium inflow {vstar[i]} is not finite")
    if np.any(vstar > v_cap + 1e-12):
        i = int(np.argmax(vstar - v_cap))
        raise DomainError(
            f"cell {i + 1}: equilibrium inflow {vstar[i]:.6g} exceeds the admissible "
            f"bound {v_cap[i]:.6g}")
    if np.any(vstar < 0):
        i = int(np.argmin(vstar))
        raise DomainError(f"cell {i + 1}: equilibrium inflow {vstar[i]:.6g} is negative")

    F = equilibrium_flows(spec, vstar)
    dref = 0.5 * (ds.d_lo + ds.d_hi)
    xstar = np.empty(spec.n)
    for i, fd in enumerate(ds.demands):
        f_peak = float(_demand_values(fd, dref[0], dref[1], dref[2], fd.delta))
        if F[i] > f_peak + 1e-12:
            raise InfeasibleInflow(i, float(F[i]), f_peak)
        xstar[i] = _invert_subcritical(fd, dref, float(F[i]))

    # the equilibrium must carry the same flows for every admissible d
    dmat = sample_uncertainty(ds, D_SAMPLES)
    Fmat = demand_batch(ds, dmat, np.tile(xstar, (len(dmat), 1)))
    dev = np.abs(Fmat - F[None, :]).max(axis=0)
    if np.any(dev > INVARIANCE_TOL):
        i = int(np.argmax(dev))
        raise NonUniformEquilibrium(i, float(dev[i]))

    if np.any(xstar >= spec.mu):
        i = int(np.argmax(xstar - spec.mu))
        raise ValueError(
            f"cell {i + 1}: equilibrium density {xstar[i]:.6g} is not below the "
            f"uncongested threshold {spec.mu[i]:.6g}")

    Gmat = supply_batch(ds, dmat, np.tile(xstar, (len(dmat), 1)))
    slack = Gmat - vstar[None, :] - (F @ spec.P)[None, :]
    if slack.min() <= 0:
        i = int(np.argmin(slack.min(axis=0)))
        raise ValueError(
            f"cell {i + 1}: no strict supply slack at the equilibrium "
            f"(worst margin {slack.min():.3g})")

    return EquilibriumPair(xstar=xstar, vstar=vstar, flows=F)


def equilibrium_residual(spec: NetworkSpec, ds: DiagramSet, x, v, d) -> np.ndarray:
    """Entrywise one-step displacement |step(x, v, d) - x|; zero at fixed points."""
    x = np.asarray(x, dtype=float)
    x_next, _ = dynamics.step(spec, ds, x, v, d)
    return np.abs(x_next - x)


def fit_supply_scale(spec: NetworkSpec, ds: DiagramSet, x, v,
                     d_blend) -> tuple[float, float]:
    """Find the supply scale d4 making (x, v) closest to a fixed point.

    ``d_blend`` fixes (d1, d2, d3); d4 sweeps its box interval on a refining
    grid (FIT_STAGES zoom levels of FIT_WIDTH points).  Returns the best d4
    and its max-residual — useful for locating congested operating points
    that are only quoted to plotting precision.
    """
    lo, hi = float(ds.d_lo[3]), float(ds.d_hi[3])
    d = np.array([d_blend[0], d_blend[1], d_blend[2], lo], dtype=float)
    best_d4, best_res = lo, np.inf
    for _ in range(FIT_STAGES):
        grid = np.linspace(lo, hi, FIT_WIDTH)
        for d4 in grid:
            d[3] = d4
            res = float(equilibrium_residual(spec, ds, x, v, d).max())
            if res < best_res:
                best_res, best_d4 = res, float(d4)
        span = (hi - lo) / (FIT_WIDTH - 1)
        lo = max(float(ds.d_lo[3]), best_d4 - 2 * span)
        hi = min(float(ds.d_hi[3]), best_d4 + 2 * span)
    return best_d4, best_res
