"""The benchmark's workloads: seeded inputs, timed operations, output gates.

Each workload has a set-up (`setup`, run `setup_repeats` times in a timed
run) and a pass (`run_pass`, repeated until the run's time is up and at
least `min_passes` passes ran); its timed calls are calibrated
(calib.py).  A traced run makes
`trace_passes` traced passes, then `overhead_passes` passes that give the
tracing overhead.  Every call into netstab is an *operation*: it is
timed, its output is checked by a gate, and an exception or a failed gate
counts it as failed without stopping the run.

Calls go through module attributes (``cli.main``, ``harness.run_scenario``)
so that the traced run, which rebinds those attributes, sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import calib
import netstab
from netstab import cli, harness, network, presets
from netstab import diagrams as ndiagrams

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

MASS_TOL = 1e-9      # per-step mass-balance error allowed in any trajectory
BOX_TOL = 1e-12      # slack on the certified box ceiling beta (as in c06)
MC_HORIZON = 220     # steps per Monte Carlo trajectory (as in c06)
MC_MIN_TRAJ = 200    # p95 then has at least 10 samples beyond it
CORRIDOR_COPIES = 8  # corridor64 = 8 disjoint copies of the 8-cell freeway
CORRIDOR_RUNS = 6    # long closed-loop runs per corridor64 pass
CORRIDOR_HORIZON = 400
CONTRACTION_SAMPLES = 2000  # what `netstab analyze` passes to contraction_check
REPRODUCE_STEPS = 4853      # step calls per reproduce-paper: 2,403 fitting, 2,450 scenario


def derived_seed(seed: int, *key: int) -> int:
    """A 31-bit seed for one consumer of the workload seed."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1)[0] >> 1)


class Run:
    """Timings and gate outcomes of one workload run.

    Timed calls go through `cal` (see calib.py), which brackets them with
    calibration kernels when enabled.
    """

    def __init__(self, tracer=None, calibrate: bool = False):
        self.tracer = tracer
        self.cal = calib.Calibrator(enabled=calibrate)
        self.steps = 0           # closed/open-loop steps simulated by sim ops
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.entries: list[int] = []   # mc8: step at which each run entered [0, beta]
        self.refusals: list[str] = []  # typed certify refusals (the F3 chain)
        self.m: int | None = None

    def op(self, name: str, fn, gate, group: str | None = None):
        """Run fn() as one operation; returns its output, or None if it raised.

        The call is timed into group `group`; ``gate(output)`` returns the
        list of problems found (empty when the output is correct).
        """
        self.attempted += 1
        ctx = self.tracer.op(name) if self.tracer else contextlib.nullcontext()
        try:
            with ctx:
                out = fn() if group is None else self.cal.time(group, fn)
                problems = gate(out)
        except (Exception, SystemExit) as exc:  # a failing op is counted, never fatal
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            return None
        if problems:
            self.failures.append((name, "; ".join(problems)))
        return out


def cli_json(argv) -> tuple[int, dict | None]:
    """In-process `netstab <argv>`; returns (exit code, parsed stdout).

    An argv the parser rejects exits through SystemExit; its code is
    returned like any other exit code.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    text = buf.getvalue()
    return rc, (json.loads(text) if text.strip() else None)


def controller_of(doc: dict):
    """The certified controller printed by `netstab analyze`."""
    eq, ctl = doc["equilibrium"], doc["controller"]
    return netstab.ControllerConfig(xstar=eq["xstar"], vstar=eq["vstar"],
                                    b=ctl["b"], K=ctl["K"], tau=ctl["tau"])


def certificate_of(out) -> dict | None:
    """Controller, box beta and bound m from `netstab analyze`'s output, or None.

    `gate_analyze` reports a missing or malformed certificate, so the
    operation that printed it has already failed when this returns None.
    """
    doc = None if out is None else out[1]
    try:
        return {"ctrl": controller_of(doc), "m": doc["trapping_steps"],
                "beta": np.asarray(doc["invariant_box"]["beta"], dtype=float)}
    except (KeyError, TypeError, ValueError):
        return None


def no_certificate():
    raise RuntimeError("analyze gave no certificate, so there is no controller")


# --- gates --------------------------------------------------------------------

def gate_analyze(out, xstar_ref) -> list[str]:
    """Exit 0, x* as expected, rho = 0.991, finite m, contraction passed."""
    rc, doc = out
    if doc is None:
        return [f"analyze exited {rc} without output"]
    problems = [] if rc == 0 else [f"analyze exited {rc}"]
    dx = float(np.max(np.abs(np.asarray(doc["equilibrium"]["xstar"]) - xstar_ref)))
    if not dx <= EXPECTED["xstar_tol"]:
        problems.append(f"x* off by {dx:.3g}")
    rho = doc["comparison"]["rho"]
    if not abs(rho - EXPECTED["rho"]) <= EXPECTED["rho_tol"]:
        problems.append(f"rho = {rho!r}")
    m = doc["trapping_steps"]
    if not (isinstance(m, int) and math.isfinite(m)):
        problems.append(f"trapping bound m = {m!r}")
    if not doc["checks"]["contraction_ok"]:
        problems.append("contraction check failed")
    if certificate_of(out) is None:
        problems.append("no controller, box or bound in the output")
    return problems


def gate_reproduce(out, outdir: Path) -> list[str]:
    """Exit 0, byte-identical CSVs, conserved mass in every scenario."""
    rc, summary = out
    if summary is None:
        return [f"reproduce-paper exited {rc} without output"]
    problems = [] if rc == 0 else [f"reproduce-paper exited {rc}"]
    want = EXPECTED["reproduce_csv_sha256"]
    have = sorted(p.name for p in outdir.glob("*.csv"))
    if have != sorted(want):
        problems.append(f"CSV files {have}")
    for name, digest in want.items():
        path = outdir / name
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name} sha256 differs")
    for name, sc in summary["scenarios"].items():
        if not sc["max_mass_balance_error"] <= MASS_TOL:
            problems.append(f"{name} mass balance {sc['max_mass_balance_error']:.3g}")
    return problems


def box_entry(states: np.ndarray, beta: np.ndarray) -> tuple[int | None, int]:
    """(first step inside [0, beta] or None, steps outside after entering)."""
    inside = np.all(states <= beta + BOX_TOL, axis=1)
    if not inside.any():
        return None, 0
    t = int(np.argmax(inside))
    return t, int((~inside[t:]).sum())


def gate_trajectory(record, beta, m, entries: list) -> list[str]:
    """Mass conserved; enters [0, beta] by step m and never leaves it."""
    problems = []
    mass = float(harness.mass_balance_residuals(record).max())
    if not mass <= MASS_TOL:
        problems.append(f"mass balance {mass:.3g}")
    entry, exits = box_entry(record.states, beta)
    if entry is None:
        problems.append("never entered [0, beta]")
    else:
        entries.append(entry)
        if exits:
            problems.append(f"left [0, beta] {exits} times after entering")
        if m is None or entry > m:
            problems.append(f"entered at {entry} > m = {m}")
    return problems


def gate_mass(record) -> list[str]:
    mass = float(harness.mass_balance_residuals(record).max())
    return [] if mass <= MASS_TOL else [f"mass balance {mass:.3g}"]


def gate_chain(out, ds, refusals: list) -> list[str]:
    """A typed refusal is recorded; a certificate must have rho = max(1 - L)."""
    if isinstance(out, netstab.StructuralError):
        refusals.append(str(out))
        return []
    rho_ref = float(np.max(1.0 - np.array([fd.L for fd in ds.demands])))
    if abs(out.rho - rho_ref) <= EXPECTED["rho_tol"]:
        return []
    return [f"chain certificate rho = {out.rho!r}, expected {rho_ref!r}"]


# --- inputs -------------------------------------------------------------------

def freeway_copies(copies: int, seed: int):
    """`copies` disjoint 8-cell freeways, cells relabelled by a seeded permutation.

    Returns (spec, diagrams, vstar, xstar_ref).  Index order is no longer a
    topological order, so any code relying on it shows up here.
    """
    spec8, ds8 = presets.reference_network(), presets.reference_diagrams()
    v8 = presets.reference_vstar()
    n = 8 * copies
    perm = np.random.Generator(np.random.Philox(seed)).permutation(n)
    P = np.zeros((n, n))
    vec = {k: np.zeros(n) for k in ("a", "Qexit", "mu", "vmax", "v", "x")}
    dem, sup = [None] * n, [None] * n
    for c in range(copies):
        new = perm[8 * c:8 * c + 8]
        P[np.ix_(new, new)] = spec8.P
        for k, src in (("a", spec8.a), ("Qexit", spec8.Qexit), ("mu", spec8.mu),
                       ("vmax", spec8.vmax), ("v", v8), ("x", EXPECTED["xstar"])):
            vec[k][new] = src
        for i, j in enumerate(new):
            dem[j], sup[j] = ds8.demands[i], ds8.supplies[i]
    spec = netstab.NetworkSpec(n=n, a=vec["a"], P=P, Qexit=vec["Qexit"],
                               mu=vec["mu"], vmax=vec["vmax"])
    ds = netstab.DiagramSet(tuple(dem), tuple(sup), ds8.d_lo, ds8.d_hi)
    return spec, ds, vec["v"], vec["x"]


def mainline_chain(n: int = 8):
    """A single n-cell mainline with the benchmark's curves (the F3 case)."""
    P = np.zeros((n, n))
    P[np.arange(n - 1), np.arange(1, n)] = 1.0
    Qexit = np.zeros(n)
    Qexit[-1] = 1.0
    vmax = np.full(n, 0.3)
    vmax[0] = 25.0
    spec = netstab.NetworkSpec(n=n, a=np.full(n, presets.JAM), P=P, Qexit=Qexit,
                               mu=np.full(n, presets.MU_MAIN), vmax=vmax)
    ref = presets.reference_diagrams()
    ds = netstab.DiagramSet((ref.demands[0],) * n, (ref.supplies[0],) * n,
                            ref.d_lo, ref.d_hi)
    v = np.zeros(n)
    v[0] = presets.reference_vstar()[0]
    return spec, ds, v


# --- workloads ----------------------------------------------------------------

class Paper8:
    """The bundled 8-cell freeway, driven the way a paper reader drives it."""

    min_passes = 3
    setup_repeats = 5
    trace_passes = 1
    overhead_passes = 6

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp

    def setup(self, run: Run):
        spec, ds = presets.reference_network(), presets.reference_diagrams()
        netstab.solve_uep(spec, ds, presets.reference_vstar())
        return {"analyze_seed": derived_seed(self.seed, 0)}

    def run_pass(self, run: Run, st, i: int) -> None:
        run.op("analyze",
               lambda: cli_json(["analyze", "--seed", st["analyze_seed"]]),
               lambda out: gate_analyze(out, np.asarray(EXPECTED["xstar"])),
               "analyze")
        out = self.tmp / "reproduce"
        shutil.rmtree(out, ignore_errors=True)
        # the paper's runs use the seed whose CSV digests expected.json records
        argv = ["reproduce-paper", "--out", out, "--seed", EXPECTED["reproduce_seed"]]
        res = run.op("reproduce", lambda: cli_json(argv),
                     lambda o: gate_reproduce(o, out), "sim")
        if res is not None and res[1] is not None:
            run.steps += sum(s["horizon"] for s in res[1]["scenarios"].values())


class Mc8:
    """Monte Carlo validation of the certified controller on the 8-cell freeway."""

    min_passes = MC_MIN_TRAJ
    trace_passes = MC_MIN_TRAJ
    setup_repeats = 13  # each makes one analyze_s sample
    overhead_passes = MC_MIN_TRAJ

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp

    def setup(self, run: Run):
        spec, ds = presets.reference_network(), presets.reference_diagrams()
        netstab.solve_uep(spec, ds, presets.reference_vstar())
        res = run.op("analyze",
                     lambda: cli_json(["analyze", "--seed", derived_seed(self.seed, 0)]),
                     lambda out: gate_analyze(out, np.asarray(EXPECTED["xstar"])),
                     "analyze")
        cert = certificate_of(res)  # None: counted as failed; the run goes on
        if cert is not None:
            run.m = cert["m"]
        return {"spec": spec, "ds": ds, "ctrl": None, **(cert or {})}

    def trajectory(self, st, i: int):
        """Start and disturbance seed of trajectory i (0 starts from the jam)."""
        rng = np.random.Generator(np.random.Philox(derived_seed(self.seed, 1, i)))
        a = st["spec"].a
        x0 = np.array(a) if i == 0 else rng.uniform(0.0, a)
        return harness.ScenarioConfig(
            x0=x0, horizon=MC_HORIZON,
            disturbance=harness.DisturbanceSpec(
                kind="uniform", seed=int(rng.integers(2 ** 31))),
            control=harness.ControlSpec(kind="closed-loop", controller=st["ctrl"]))

    def run_pass(self, run: Run, st, i: int) -> None:
        if st["ctrl"] is None:  # set-up failed: every trajectory fails too
            run.op("trajectory", no_certificate, lambda out: [])
            return
        cfg = self.trajectory(st, i)
        rec = run.op("trajectory",
                     lambda: harness.run_scenario(st["spec"], st["ds"], cfg),
                     lambda r: gate_trajectory(r, st["beta"], st["m"], run.entries),
                     "sim")
        if rec is not None:
            run.steps += rec.horizon


class Corridor64:
    """Eight relabelled copies of the freeway (n = 64), plus the F3 chain."""

    min_passes = 2  # at least two analyze calls
    setup_repeats = 5
    trace_passes = 1
    overhead_passes = 2

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp

    def setup(self, run: Run):
        spec, ds, v, xref = freeway_copies(CORRIDOR_COPIES, derived_seed(self.seed, 0))
        self.tmp.mkdir(parents=True, exist_ok=True)
        net, dia = self.tmp / "corridor64.net.json", self.tmp / "corridor64.dia.json"
        network.save_network(spec, net)
        ndiagrams.save_diagrams(ds, dia)
        netstab.solve_uep(spec, ds, v)
        chain = mainline_chain()
        chain_eq = netstab.solve_uep(*chain)
        return {"spec": spec, "ds": ds, "xref": xref, "chain": chain[:2],
                "chain_eq": chain_eq,
                "argv": ["analyze", "--network", net, "--diagrams", dia,
                         "--vstar", ",".join(repr(float(x)) for x in v),
                         "--seed", derived_seed(self.seed, 1)]}

    def run_pass(self, run: Run, st, i: int) -> None:
        res = run.op("analyze", lambda: cli_json(st["argv"]),
                     lambda out: gate_analyze(out, st["xref"]), "analyze")
        cert = certificate_of(res)
        ctrl = None if cert is None else cert["ctrl"]
        spec, ds = st["spec"], st["ds"]
        for k in range(CORRIDOR_RUNS):
            if ctrl is None:
                run.op("run", no_certificate, lambda out: [])
                continue
            cfg = harness.ScenarioConfig(
                x0=np.array(spec.a), horizon=CORRIDOR_HORIZON,
                disturbance=harness.DisturbanceSpec(
                    kind="uniform", seed=derived_seed(self.seed, 2, i, k)),
                control=harness.ControlSpec(kind="closed-loop", controller=ctrl))
            rec = run.op("run", lambda: harness.run_scenario(spec, ds, cfg),
                         gate_mass, "sim")
            if rec is not None:
                run.steps += rec.horizon
        run.op("chain_certify", lambda: self.chain_certify(st),
               lambda out: gate_chain(out, st["chain"][1], run.refusals))

    @staticmethod
    def chain_certify(st):
        try:
            return netstab.certify(*st["chain"], st["chain_eq"])
        except netstab.StructuralError as exc:  # F3: refused with a typed error
            return exc


WORKLOADS = {"paper8": Paper8, "mc8": Mc8, "corridor64": Corridor64}
