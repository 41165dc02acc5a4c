"""Command-line interface.

Subcommands: validate, analyze, solve-uep, synthesize, simulate,
gridlock-demo, reproduce-paper.  All print JSON to stdout.  Exit codes:
0 = all checks passed, 1 = a certificate or acceptance check failed,
2 = input error (bad file, bad flags, out-of-domain data), 141 = stdout was
closed before the output was written (`netstab analyze | head -1`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .control import controller_from_dict, load_controller, save_controller
from .diagrams import (audit_demand_curve, audit_supply_margin, check_pair,
                       load_diagrams)
from .dynamics import _check_domain
from .equilibrium import solve_uep
from .errors import DimensionError, DomainError, MisuseError
from .harness import (ControlSpec, DisturbanceSpec, ScenarioConfig,
                      estimate_decay, export_csv, gridlock_demo,
                      mass_balance_residuals, reproduce_suite, run_scenario)
from .network import (_check_fields, _checked, _located, check_spec,
                      find_cycle, load_network)
from .presets import (reference_diagrams, reference_network, reference_vstar,
                      three_cell_cycle)
from .stability import certify, contraction_check

EQUILIBRIUM_TOL = 1e-6  # a controller's x*, v* against the solved equilibrium
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the pipe killed


class _InputError(Exception):
    """Anything wrong with the user's files or flags (exit code 2)."""


def _emit(doc: dict, fh) -> None:
    """Write doc to the stream fh as indented JSON and a newline, streamed:
    the text of a 512-cell certificate is never held whole.  numpy arrays
    and scalars are written as their `tolist()` values."""
    json.dump(doc, fh, indent=2, default=lambda o: o.tolist())
    fh.write("\n")


def _load_pair(args, spec=None, ds=None):
    """Network and diagrams from --network/--diagrams; a file not given is
    `spec` or `ds`, or else the benchmark's.  A --network file that breaks a
    `validate_spec` constraint is an input error naming the first one, except
    to `validate`, which reports them all."""
    try:
        spec = load_network(args.network) if args.network else spec or reference_network()
        ds = load_diagrams(args.diagrams) if args.diagrams else ds or reference_diagrams()
        check_pair(spec, ds)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    if args.network and args.command != "validate":
        try:
            check_spec(spec)
        except ValueError as exc:
            raise _InputError(f"{args.network}: {exc}") from exc
    return spec, ds


def _load_ctrl(args, n: int):
    if not args.controller:
        return None
    try:
        return load_controller(args.controller, n)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from exc


def _check_equilibrium(path, ctrl, eq) -> None:
    """_InputError naming the worst cell unless the controller read from `path`
    has the solved equilibrium's xstar and vstar, to within EQUILIBRIUM_TOL."""
    for name in ("xstar", "vstar"):
        got, want = getattr(ctrl, name), getattr(eq, name)
        i = int(np.argmax(np.abs(got - want)))
        if not abs(got[i] - want[i]) <= EQUILIBRIUM_TOL:
            raise _InputError(
                f"{path}: cell {i + 1}: field '{name}' is {got[i]:.10g} but the solved "
                f"equilibrium has {want[i]:.10g}: built for another equilibrium")


def _parse_vstar(args, spec):
    if args.vstar:
        try:
            v = np.array([float(tok) for tok in args.vstar.split(",")])
        except ValueError as exc:
            raise _InputError(f"--vstar must be comma-separated floats: {exc}")
        if v.shape != (spec.n,):
            raise _InputError(f"--vstar needs {spec.n} entries, got {len(v)}")
        if not np.isfinite(v).all():
            i = int(np.argmax(~np.isfinite(v)))
            raise _InputError(f"--vstar entry {i + 1} is {v[i]}, not a finite number")
        return v
    if args.network:
        raise _InputError("a custom network needs --vstar (equilibrium inflows)")
    return reference_vstar()


def _violation_doc(v) -> dict:
    """One violation with 1-based location: "edge" [i, j], "cell" i, or none."""
    doc = {"constraint": v.constraint}
    if isinstance(v.index, tuple):
        doc["edge"] = [i + 1 for i in v.index]
    elif v.index is not None:
        doc["cell"] = v.index + 1
    doc.update(residual=v.residual, message=v.message)
    return doc


def cmd_validate(args) -> int:
    spec, ds = _load_pair(args)
    violations = spec.violations
    cycle = find_cycle(spec.P)
    doc = {
        "violations": [_violation_doc(v) for v in violations],
        "cycle": [i + 1 for i in cycle],
        "acyclic": not cycle,
        "ok": not violations and not cycle,
    }
    _emit(doc, sys.stdout)
    return 0 if doc["ok"] else 1


def cmd_solve_uep(args) -> int:
    spec, ds = _load_pair(args)
    vstar = _parse_vstar(args, spec)
    eq = solve_uep(spec, ds, vstar)
    _emit({"xstar": eq.xstar, "vstar": eq.vstar, "flows": eq.flows}, sys.stdout)
    return 0


def cmd_synthesize(args) -> int:
    spec, ds = _load_pair(args)
    vstar = _parse_vstar(args, spec)
    eq = solve_uep(spec, ds, vstar)
    cert = certify(spec, ds, eq, seed=args.seed)
    cfg = cert.controller
    doc = {"xstar": cfg.xstar, "vstar": cfg.vstar, "b": cfg.b, "K": cfg.K,
           "tau": cfg.tau}
    _emit(doc, sys.stdout)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_controller(cfg, os.path.join(args.out, "controller.json"))
    return 0


def cmd_analyze(args) -> int:
    spec, ds = _load_pair(args)
    vstar = _parse_vstar(args, spec)
    eq = solve_uep(spec, ds, vstar)
    controller = _load_ctrl(args, spec.n)
    if controller is not None:
        _check_equilibrium(args.controller, controller, eq)
    cert = certify(spec, ds, eq, controller=controller, seed=args.seed)

    # cells sharing a curve share its audit (DemandFunction is frozen, hence hashable)
    audit_of = {fd: audit_demand_curve(fd) for fd in dict.fromkeys(ds.demands)}
    demand_audits = [audit_of[fd] for fd in ds.demands]
    supply_audit = audit_supply_margin(spec, ds)
    contraction = contraction_check(spec, ds, cert, seed=args.seed)
    checks = {
        "demand_audits_ok": all(a.passed for a in demand_audits),
        "supply_margin_ok": supply_audit.passed,
        "contraction_ok": contraction.passed,
        "floor_budget_ok": cert.floor_budget_ok,
        "rho_below_one": cert.rho < 1.0,
    }
    doc = {
        "equilibrium": {"xstar": eq.xstar, "vstar": eq.vstar, "flows": eq.flows},
        "weights": {"r": cert.r, "xi": cert.xi},
        "invariant_box": {"epsstar": cert.epsstar, "beta": cert.beta},
        "drain": {
            "Qconst": cert.drain.problem.Qconst, "theta": cert.drain.problem.theta,
            "Theta": cert.drain.problem.Theta, "gamma": cert.drain.gamma,
            "C": cert.drain.C, "samples": cert.drain.n_evaluated,
        },
        "comparison": {"rho": cert.rho},
        "controller": {
            "b": cert.controller.b, "K": cert.controller.K,
            "tau": cert.controller.tau, "synthesized": controller is None,
            "floor_fraction": cert.floor_fraction,
        },
        "trapping_steps": cert.m,
        "audits": {
            "demand": [
                {"cell": i + 1, "passed": a.passed, "L_hat": a.L_hat,
                 "G_hat": a.G_hat, "fmin_hat": a.fmin_hat}
                for i, a in enumerate(demand_audits)
            ],
            "supply_margin": {"min_slack": supply_audit.min_slack,
                              "passed": supply_audit.passed},
            "contraction_max_violation": contraction.max_violation,
        },
        "checks": checks,
        "ok": all(checks.values()),
    }
    _emit(doc, sys.stdout)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "certificate.json"), "w",
                  encoding="utf-8") as fh:
            _emit(doc, fh)
    return 0 if doc["ok"] else 1


def _scenario_from_file(args, spec, ds) -> ScenarioConfig:
    """The --scenario file, checked against the network before any step runs."""
    try:
        with open(args.scenario, encoding="utf-8") as fh, _located(args.scenario):
            cfg = _scenario_from_doc(json.load(fh), args, ds)
            _check_domain(spec, ds, cfg.x0, cfg.control.v, cfg.disturbance.d)
            return cfg
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from exc


def _scenario_from_doc(doc, args, ds) -> ScenarioConfig:
    fields = {"x0", "horizon", "disturbance", "control"}
    _check_fields(doc, fields, fields | {"reference"}, "scenario field")
    dist, ctl = doc["disturbance"], doc["control"]
    constant = isinstance(dist, dict) and dist.get("kind") == "constant"
    _check_fields(dist, {"kind"}, {"kind", "d" if constant else "seed"}, "disturbance field")
    open_loop = isinstance(ctl, dict) and ctl.get("kind") == "open-loop"
    _check_fields(ctl, {"kind"}, {"kind", "v" if open_loop else "controller"}, "control field")
    seed = _checked(dist.get("seed", args.seed), (), "disturbance field 'seed'", least=0)
    d = _checked(dist.get("d"), ds.d_lo.shape, "disturbance field 'd'") if constant else None
    dist = DisturbanceSpec(dist["kind"], d=d, seed=seed)
    if open_loop:
        ctl = ControlSpec("open-loop", v=_checked(ctl.get("v"), (ds.n,), "control field 'v'"))
    else:
        inline = ctl.get("controller")
        with _located("control field 'controller'"):
            controller = None if inline is None else controller_from_dict(inline, ds.n)
        ctl = ControlSpec(ctl["kind"], controller=controller or _load_ctrl(args, ds.n))
    ref = doc.get("reference")
    return ScenarioConfig(
        x0=_checked(doc["x0"], (ds.n,), "field 'x0'"), disturbance=dist, control=ctl,
        horizon=_checked(doc["horizon"], (), "field 'horizon'", least=1),
        reference=None if ref is None else _checked(ref, (ds.n,), "field 'reference'"))


def cmd_simulate(args) -> int:
    spec, ds = _load_pair(args)
    cfg = _scenario_from_file(args, spec, ds)
    record = run_scenario(spec, ds, cfg)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, Path(args.scenario).stem + ".csv")
    export_csv(record, csv_path)
    fit = estimate_decay(record)
    _emit({
        "csv": csv_path,
        "horizon": cfg.horizon,
        "terminal_deviation": record.deviation[-1],
        "sigma_hat": fit.sigma_hat,
        "M_hat": fit.M_hat,
        "converged_immediately": fit.converged_immediately,
        "max_mass_balance_error": float(mass_balance_residuals(record).max()),
    }, sys.stdout)
    return 0


def cmd_gridlock_demo(args) -> int:
    # the built-in 3-cell cycle, with its diagrams unless --diagrams names others;
    # a custom network defaults to the benchmark diagrams like everywhere else
    spec, ds = _load_pair(args, *(() if args.network else three_cell_cycle()))
    report = gridlock_demo(spec, ds, horizon=args.horizon, seed=args.seed)
    _emit({
        "cycle": [i + 1 for i in report.cycle],
        "horizon": report.horizon,
        "max_drift": report.max_drift,
        "final_state": report.final_state,
        "locked": report.max_drift == 0.0,
    }, sys.stdout)
    return 0 if report.max_drift == 0.0 else 1


def cmd_reproduce(args) -> int:
    outdir = args.out or "benchmark_out"
    summary = reproduce_suite(outdir, seed=args.seed)
    _emit(summary, sys.stdout)
    closed = [v for k, v in summary["scenarios"].items()
              if k.startswith("closed_loop")]
    ok = all(s["terminal_deviation"] < 1.0 for s in closed)
    return 0 if ok else 1


def _int_at_least(least: int, what: str):
    """An argparse type: an integer >= `least`; anything else exits 2."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


# argparse keyword arguments of each flag
_FLAGS = {
    "network": {"help": "network JSON (default: built-in benchmark; gridlock-demo: "
                        "3-cell cycle)"},
    "diagrams": {"help": "diagram JSON (default: built-in benchmark; gridlock-demo "
                         "without --network: 3-cell cycle)"},
    "controller": {"help": "controller JSON"},
    "vstar": {"help": "comma-separated equilibrium inflows"},
    "scenario": {"required": True, "help": "scenario JSON"},
    "seed": {"type": _int_at_least(0, "a non-negative integer"), "default": 0,
             "help": "seeds the gamma search's Sobol' cloud, contraction check and disturbances"},
    "out": {"help": "output directory"},
    "horizon": {"type": _int_at_least(1, "a positive integer"), "default": 1000},
}

# each subcommand's handler, help and the flags it reads: argparse refuses
# any other flag (exit 2) rather than let it pass unread
_COMMANDS = {
    "validate": (cmd_validate, "structural checks on a network", "network diagrams"),
    "solve-uep": (cmd_solve_uep, "solve the uncongested equilibrium",
                  "network diagrams vstar"),
    "synthesize": (cmd_synthesize, "derive a certified controller",
                   "network diagrams vstar seed out"),
    "analyze": (cmd_analyze, "full stability certificate with audits",
                "network diagrams controller vstar seed out"),
    "simulate": (cmd_simulate, "run one scenario and export CSV",
                 "network diagrams controller scenario seed out"),
    "gridlock-demo": (cmd_gridlock_demo, "jam a cyclic network and verify it never unlocks",
                      "network diagrams seed horizon"),
    "reproduce-paper": (cmd_reproduce, "run the full benchmark suite and write CSVs plus "
                                       "a summary report", "seed out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netstab",
        description="Simulator and stability-certificate toolkit for "
                    "uncertain acyclic traffic networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func, parser=p)
    return parser


def _check_out(path) -> None:
    """_InputError unless --out `path` is a directory or can be made one: the
    nearest existing path among it and its parents must be a directory."""
    full = Path(path).absolute()
    found = next(p for p in (full, *full.parents) if p.exists())
    if not found.is_dir():
        raise _InputError(f"--out {path}: {found} is a file, not a directory")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:  # the usage of the parser that refused them names the flags it takes
        refused_by = args.parser if argv[0] == args.command else parser
        refused_by.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        if getattr(args, "out", None):  # only some subcommands take --out
            _check_out(args.out)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the handlers below
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the interpreter's
        # own flush at exit cannot raise again (Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except (_InputError, DomainError, DimensionError, MisuseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
