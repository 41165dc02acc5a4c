"""Saturated proportional inflow control and its certificate-driven synthesis.

The law meters each controlled external inflow between a floor b_i and its
equilibrium value v_i*: excess densities above x* are weighted by a gain
matrix K, scaled by 1/tau, and the result throttles the inflow linearly,
clamping to b once the weighted excess reaches tau.  Cells with b_i = v_i*
are uncontrolled and always receive v_i*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .network import _check_fields, _checked, _located

_CONTROLLER_FIELDS = ("xstar", "vstar", "b", "K", "tau")
TAU = 0.5  # saturation level tau of synthesized controllers


@dataclass(frozen=True)
class ControllerConfig:
    xstar: np.ndarray
    vstar: np.ndarray
    b: np.ndarray
    K: np.ndarray
    tau: float
    span: np.ndarray = field(init=False, repr=False, compare=False)  # v* - b, read by control_law

    def __post_init__(self):
        n = len(np.atleast_1d(self.xstar))
        for name, shape in (("xstar", (n,)), ("vstar", (n,)), ("b", (n,)), ("K", (n, n))):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise DimensionError(f"{name} must have shape {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.K >= 0).all():
            raise ValueError("gain matrix must be nonnegative")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if not ((self.b >= 0) & (self.b <= self.vstar)).all():
            raise ValueError("inflow floor must satisfy 0 <= b <= vstar")
        span = self.vstar - self.b
        span.setflags(write=False)
        object.__setattr__(self, "span", span)

    @property
    def n(self) -> int:
        return len(self.xstar)


def h_map(z) -> np.ndarray:
    """Entrywise positive part; positively homogeneous."""
    return np.maximum(z, 0.0)


def control_law(cfg: ControllerConfig, x) -> np.ndarray:
    """Metered inflows at state x: v in [b, v*], exactly v* when x <= x*.

    x is one state of shape (n,) or a stack of shape (..., n); each row of
    a stack gets the bits of calling the law on it alone, as `np.matmul`
    runs one matrix-vector product per row.  The three regimes are branched
    explicitly so the boundary values are bit-exact: zero weighted excess
    returns v*, saturated excess returns b.  The clipped excess is counted
    before the gain product: with no cell above x* it is all zero, every
    load would be zero, and v* is returned in the excess's own fresh array
    with no product formed.  Past that, a regime no entry is in costs one
    count: loads that are all zero (K's rows miss the excess) return v*,
    and loads that all reach 1 return b, each in the load's own fresh
    array; otherwise each saturation is written only where some entry has
    reached it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != cfg.xstar.shape:
        raise DimensionError(f"x must have shape (..., {cfg.n})")
    excess = x - cfg.xstar
    np.maximum(excess, 0.0, out=excess)
    # count_nonzero leaves out 0.0 and -0.0 and counts NaN, so a NaN state
    # reaches the loads below
    if not np.count_nonzero(excess):
        np.copyto(excess, cfg.vstar)
        return excess
    load = np.matmul(cfg.K, excess[..., None])[..., 0]
    load /= cfg.tau
    # K and the excess are nonnegative, so each load is nonnegative or NaN,
    # and the loads at or below 0 are the ones count_nonzero leaves out
    nonzero = np.count_nonzero(load)
    if nonzero == 0:
        np.copyto(load, cfg.vstar)
        return load
    full = load >= 1.0
    saturated = np.count_nonzero(full)
    if saturated == load.size:
        np.copyto(load, cfg.b)
        return load
    # the ramp, written over the excess, which the load no longer needs
    v = np.multiply(cfg.span, load, out=excess)
    np.subtract(cfg.vstar, v, out=v)
    # the two saturations are disjoint, so they overwrite the ramp in any order
    if saturated:
        np.copyto(v, cfg.b, where=full)
    if nonzero < load.size:
        np.copyto(v, cfg.vstar, where=load <= 0.0)
    return v


def uniform_gain(beta: np.ndarray, xstar: np.ndarray) -> float:
    """Smallest uniform gain whose weighted excess saturates outside [0, beta]."""
    gap = np.asarray(beta, float) - np.asarray(xstar, float)
    if np.any(gap <= 0):
        raise ValueError("need beta > xstar entrywise")
    return float(1.0 / gap.min())


def synthesize(spec, eq, r, C: float, beta) -> ControllerConfig:
    """Derive (b, K) from the weights r, drain constant C and box ceiling beta.

    b = lambda * v* with lambda = min(1/2, C min_i(r_i x_i*) / (r'v*)), so
    the inflow-floor condition holds; the gain is the smallest uniform one
    that saturates outside the certified invariant box [0, beta].  With
    r'v* = 0 the network has no metered inflows and the trivially stable
    configuration b = v* = 0, K = 0 is returned.
    """
    xstar, vstar = np.asarray(eq.xstar, float), np.asarray(eq.vstar, float)
    rv = float(r @ vstar)
    if rv == 0.0:
        K = np.zeros((spec.n, spec.n))
        return ControllerConfig(xstar, vstar, np.zeros(spec.n), K, TAU)
    lam = min(0.5, C * float((r * xstar).min()) / rv)
    b = lam * vstar
    K = np.full((spec.n, spec.n), uniform_gain(beta, xstar))
    cfg = ControllerConfig(xstar, vstar, b, K, TAU)
    # the floor condition holds by construction; fail loudly if rounding broke it
    bound = C * float((r * xstar).min())
    if float(r @ b) > bound * (1 + 1e-12):
        raise ArithmeticError("synthesized floor violates its own budget")
    return cfg


def controller_from_dict(doc, n: int) -> ControllerConfig:
    """A ControllerConfig of `n` cells from a parsed JSON object, every field
    checked; ``K`` may be rows or a flat n*n list."""
    _check_fields(doc, set(_CONTROLLER_FIELDS), set(_CONTROLLER_FIELDS))
    K = doc["K"]
    rows = isinstance(K, list) and any(isinstance(row, list) for row in K)
    xstar, vstar, b = (_checked(doc[name], (n,), f"field '{name}'")
                       for name in ("xstar", "vstar", "b"))
    K = _checked(K, (n, n) if rows else (n * n,), "field 'K'").reshape(n, n)
    return ControllerConfig(xstar, vstar, b, K, float(_checked(doc["tau"], (), "field 'tau'")))


def load_controller(path, n: int) -> ControllerConfig:
    """Read a controller of `n` cells from a JSON file."""
    with open(path, encoding="utf-8") as fh, _located(path):
        return controller_from_dict(json.load(fh), n)


def save_controller(cfg: ControllerConfig, path) -> None:
    doc = {
        "xstar": cfg.xstar.tolist(),
        "vstar": cfg.vstar.tolist(),
        "b": cfg.b.tolist(),
        "K": cfg.K.tolist(),
        "tau": cfg.tau,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
