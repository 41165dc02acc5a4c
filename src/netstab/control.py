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

_CONTROLLER_FIELDS = ("xstar", "vstar", "b", "K", "tau")


@dataclass(frozen=True)
class ControllerConfig:
    xstar: np.ndarray
    vstar: np.ndarray
    b: np.ndarray
    K: np.ndarray
    tau: float
    R: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(np.atleast_1d(self.xstar))
        for name in ("xstar", "vstar", "b"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DimensionError(f"{name} must have shape ({n},)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        K = np.array(self.K, dtype=float)
        if K.shape != (n, n):
            raise DimensionError(f"K must have shape ({n}, {n})")
        if np.any(K < 0):
            raise ValueError("gain matrix must be nonnegative")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if np.any(self.b < 0) or np.any(self.b > self.vstar):
            raise ValueError("inflow floor must satisfy 0 <= b <= vstar")
        object.__setattr__(
            self, "R", tuple(int(i) for i in np.nonzero(self.b < self.vstar)[0])
        )

    @property
    def n(self) -> int:
        return len(self.xstar)


def h_map(z) -> np.ndarray:
    """Entrywise positive part; positively homogeneous."""
    return np.maximum(np.asarray(z, dtype=float), 0.0)


def control_law(cfg: ControllerConfig, x) -> np.ndarray:
    """Metered inflows at state x: v in [b, v*], exactly v* when x <= x*.

    The three regimes are branched explicitly so the boundary values are
    bit-exact: zero weighted excess returns v*, saturated excess returns b.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.n,):
        raise DimensionError(f"x must have shape ({cfg.n},)")
    excess = h_map(x - cfg.xstar)
    load = (cfg.K @ excess) / cfg.tau
    ramp = cfg.vstar - (cfg.vstar - cfg.b) * load
    return np.where(load >= 1.0, cfg.b, np.where(load <= 0.0, cfg.vstar, ramp))


def uniform_gain(beta: np.ndarray, xstar: np.ndarray) -> float:
    """Smallest uniform gain whose weighted excess saturates outside [0, beta]."""
    gap = np.asarray(beta, float) - np.asarray(xstar, float)
    if np.any(gap <= 0):
        raise ValueError("need beta > xstar entrywise")
    return float(1.0 / gap.min())


def geometric_gain(n: int, sigma: float) -> np.ndarray:
    """Alternative gain profile K[i, j] = sigma**(j+1), constant down columns."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    return np.tile(sigma ** np.arange(1, n + 1), (n, 1))


def synthesize(spec, eq, r, C: float, beta, tau: float = 0.5) -> ControllerConfig:
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
        return ControllerConfig(xstar, vstar, np.zeros(spec.n), K, tau)
    lam = min(0.5, C * float((r * xstar).min()) / rv)
    b = lam * vstar
    K = np.full((spec.n, spec.n), uniform_gain(beta, xstar))
    cfg = ControllerConfig(xstar, vstar, b, K, tau)
    # the floor condition holds by construction; fail loudly if rounding broke it
    bound = C * float((r * xstar).min())
    if float(r @ b) > bound * (1 + 1e-12):
        raise ArithmeticError("synthesized floor violates its own budget")
    return cfg


def controller_from_dict(doc: dict) -> ControllerConfig:
    """Build a ControllerConfig from a JSON-shaped dict; rejects unknown keys.

    ``K`` may be nested rows or a flat row-major list of length n*n.
    """
    if not isinstance(doc, dict):
        raise ValueError("controller document must be a JSON object")
    unknown = set(doc) - set(_CONTROLLER_FIELDS)
    if unknown:
        raise ValueError(f"unknown controller field(s) {sorted(unknown)}")
    missing = set(_CONTROLLER_FIELDS) - set(doc)
    if missing:
        raise ValueError(f"missing controller field(s) {sorted(missing)}")
    xstar = np.asarray(doc["xstar"], dtype=float)
    K = np.asarray(doc["K"], dtype=float)
    if K.ndim == 1:
        K = K.reshape(len(xstar), -1)
    return ControllerConfig(xstar=xstar, vstar=doc["vstar"], b=doc["b"],
                            K=K, tau=float(doc["tau"]))


def load_controller(path) -> ControllerConfig:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return controller_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_controller(cfg: ControllerConfig, path) -> None:
    doc = {
        "xstar": cfg.xstar.tolist(),
        "vstar": cfg.vstar.tolist(),
        "b": cfg.b.tolist(),
        "K": cfg.K.tolist(),
        "tau": cfg.tau,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
