"""netstab benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload {paper8,mc8,corridor64} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The last stdout line is
the result, ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a ``{"detail": ...}`` object with provenance, sample counts,
tail latency and every failure.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, measured without any instrumentation.
With ``--trace 1`` they are the per-layer ones: one traced pass, spans
written to ``.perfbench_out/``, then passes whose timed calls alternate
between traced and untraced, which give the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Two cores shared with other tenants: one BLAS thread keeps a co-tenant
# from stalling half of a threaded BLAS call, and the dense products here
# (n <= 64) are too small to gain from a second thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5  # the import is repeated, each time in a new interpreter

# Imports netstab in a fresh interpreter and prints how long the import took.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import netstab; "
                "print(time.perf_counter() - t0)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper8", "mc8", "corridor64"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def src_digest() -> str:
    """sha256 over src/ (paths and bytes), which identifies non-git checkouts too."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, load_start: float) -> dict:
    import numpy
    import scipy

    sha, dirty = git_state()
    return {
        "git_sha": sha, "git_dirty": dirty, "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "seed": seed,
    }


def percentile_with_tail(values, q: float, tail: int = 10):
    """The q-th percentile, or None when fewer than `tail` samples lie beyond it."""
    if len(values) * (1.0 - q / 100.0) < tail:
        return None
    import numpy
    return float(numpy.percentile(values, q))


def child_import():
    """(None, seconds) of importing netstab in a new interpreter.

    Only the first import in a process pays for it; timed in a child, the
    import can be repeated like the set-up and calibrated like every other
    short call.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return None, float(proc.stdout.split()[-1])


def median_or_0(values) -> float:
    """The median; 0.0 when every call of the group raised (the run then fails)."""
    return statistics.median(values) if values else 0.0


def timed_run(wl, args, import_s: float):
    """Set-ups and passes for `--seconds`, every call timed and calibrated."""
    from workloads import Run

    run = Run(calibrate=True)
    try:
        return timed_passes(wl, args, import_s, run)
    finally:
        run.cal.close()  # stops the probe thread


def timed_passes(wl, args, import_s: float, run):
    cal = run.cal

    def set_up():
        return cal.time("setup", lambda: wl.setup(run))

    # The import and the set-up are repeated and their medians reported.
    # The repeats are spread over the run, so that a median (and mc8's
    # analyze_s, made in set-up) does not hang on one stretch of the host's
    # drifting speed.
    repeats = {"import": (IMPORT_REPEATS, lambda: cal.measure("import", child_import)),
               "setup": (wl.setup_repeats, set_up)}
    cal.measure("import", child_import)
    state = set_up()
    start = time.perf_counter()
    passes = 0
    while passes < wl.min_passes or time.perf_counter() < start + args.seconds:
        wl.run_pass(run, state, passes)
        passes += 1
        share = (time.perf_counter() - start) / args.seconds
        for group, (n, again) in repeats.items():
            if len(cal.calls[group]) <= min(share * (n - 1), n - 1):
                again()
    for group, (n, again) in repeats.items():
        while len(cal.calls[group]) < n:
            again()

    sim = cal.calibrated("sim")
    import_cal = median_or_0(cal.calibrated("import"))
    metrics = {
        "setup_s": (import_cal + median_or_0(cal.calibrated("setup")), "s"),
        "analyze_s": (median_or_0(cal.calibrated("analyze")), "s"),
        "sim_p50_ms": (1e3 * median_or_0(sim), "ms"),
        "sim_steps_per_s": (run.steps / sum(sim) if sim else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p95 = percentile_with_tail(sim, 95)
    raw = {g: cal.raw(g) for g in ("import", "setup", "analyze", "sim")}
    detail = {
        "passes": passes,
        "samples": {g: len(v) for g, v in raw.items()},
        "sim_steps": run.steps,
        "sim_p95_ms": None if p95 is None else 1e3 * p95,
        "import_s": import_cal,
        "first_import_raw_s": import_s,
        "analyze_raw_s": raw["analyze"],
        "raw": {
            "setup_s": median_or_0(raw["import"]) + median_or_0(raw["setup"]),
            "analyze_s": median_or_0(raw["analyze"]),
            "sim_p50_ms": 1e3 * median_or_0(raw["sim"]),
            "sim_steps_per_s": run.steps / sum(raw["sim"]) if raw["sim"] else 0.0,
        },
        "calibration_s": cal.spent,
    }
    return run, metrics, detail


def tracing_overhead(wl):
    """Tracing overhead from timed calls run alternately traced and untraced.

    Whole passes last seconds to minutes, over which the host's speed
    drifts by more than the tracing costs; consecutive calls of one group
    do not.  Per group, the median traced call is compared with the median
    untraced one, weighted by the group's calls.  Groups with fewer than
    two calls each way (corridor64's 11-20 s `analyze`) are left out: a
    single pair is as far apart in time as two passes.
    """
    from spans import Tracer
    from workloads import Run

    class AlternatingRun(Run):
        def op(self, name, fn, gate, group=None):
            if group is None:
                return super().op(name, fn, gate)
            flips[group] = traced = not flips.get(group, False)
            if not traced:
                return super().op(name, fn, gate, group)
            tracer = Tracer()
            tracer.install()
            try:
                return super().op(name, fn, gate, group + "+traced")
            finally:
                tracer.uninstall()

    flips: dict[str, bool] = {}
    run = AlternatingRun()
    state = wl.setup(run)
    for i in range(wl.overhead_passes):
        wl.run_pass(run, state, i)
    extra = base = 0.0
    groups = {}
    for group in flips:
        plain, traced = run.cal.raw(group), run.cal.raw(group + "+traced")
        if len(plain) < 2 or len(traced) < 2:
            continue
        n = len(plain) + len(traced)
        med_p, med_t = statistics.median(plain), statistics.median(traced)
        extra += n * (med_t - med_p)
        base += n * med_p
        groups[group] = {"calls": n, "untraced_median_s": med_p,
                         "traced_median_s": med_t}
    return (extra / base if base else 0.0), run, groups


def traced_run(wl, args):
    from spans import Summary, Tracer
    from workloads import CONTRACTION_SAMPLES, MC_HORIZON, REPRODUCE_STEPS, Run

    tracer = Tracer()
    tracer.install()
    run = Run(tracer)
    try:
        t0 = time.perf_counter()
        with tracer.op("setup"):
            state = wl.setup(run)
        for i in range(wl.trace_passes):
            wl.run_pass(run, state, i)
        wall_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    out = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(out)
    s = Summary(tracer)
    overhead, alt, overhead_groups = tracing_overhead(wl)
    run.attempted += alt.attempted
    run.failures += [(f"{name} (overhead passes)", msg) for name, msg in alt.failures]

    # Call counts that repeat exactly show that the wrappers saw every call.
    expected = {"contraction_check steps": (
        s.count("dynamics.step", inside="stability.contraction_check"),
        CONTRACTION_SAMPLES * len(run.cal.calls["analyze"]))}
    if args.workload == "paper8":
        expected["reproduce steps"] = (s.count("dynamics.step", op="reproduce"),
                                       REPRODUCE_STEPS * len(run.cal.calls["sim"]))
    elif args.workload == "mc8":
        expected["trajectory steps"] = (s.count("dynamics.step", op="trajectory"),
                                        MC_HORIZON * len(run.cal.calls["sim"]))
    else:
        expected["run steps"] = (s.count("dynamics.step", op="run"), run.steps)
    mismatches = [k for k, (got, want) in expected.items() if got != want]
    run.attempted += 1
    if mismatches:
        run.failures.append(("trace completeness", "; ".join(
            f"{k}: counted {expected[k][0]}, expected {expected[k][1]}"
            for k in mismatches)))

    # A layer a workload never calls reads 0 there (fit_supply_scale and
    # export_csv run inside reproduce-paper, on paper8 only).
    busy, calls, self_t = s.busy.get, s.calls.get, s.self_time.get
    rows_sampled = s.extra_sum("diagrams.demand_batch", inside="stability.drain_constants")
    m, entries = run.m, run.entries
    metrics = {
        "diagrams.demand_batch.calls": (calls("diagrams.demand_batch", 0), "count"),
        "diagrams.demand_batch.rows": (s.extra_sum("diagrams.demand_batch"), "count"),
        "diagrams.demand_batch.busy_s": (busy("diagrams.demand_batch", 0.0), "s"),
        "diagrams.supply_batch.calls": (calls("diagrams.supply_batch", 0), "count"),
        "diagrams.supply_batch.busy_s": (busy("diagrams.supply_batch", 0.0), "s"),
        "diagrams.audit.busy_s": (busy("diagrams.audit_demand_curve", 0.0)
                                  + busy("diagrams.audit_supply_margin", 0.0), "s"),
        "dynamics.step.calls": (calls("dynamics.step", 0), "count"),
        "dynamics.step.self_s": (self_t("dynamics.step", 0.0), "s"),
        "dynamics.compute_flows.self_s": (self_t("dynamics.compute_flows", 0.0), "s"),
        "control.control_law.calls": (calls("control.control_law", 0), "count"),
        "control.control_law.busy_s": (busy("control.control_law", 0.0), "s"),
        "control.synthesize.busy_s": (busy("control.synthesize", 0.0), "s"),
        "equilibrium.solve_uep.busy_s": (busy("equilibrium.solve_uep", 0.0), "s"),
        "equilibrium.fit_supply_scale.busy_s": (busy("equilibrium.fit_supply_scale", 0.0), "s"),
        "equilibrium.residual.calls": (calls("equilibrium.equilibrium_residual", 0), "count"),
        "stability.certify.busy_s": (busy("stability.certify", 0.0), "s"),
        "stability.drain_constants.self_s": (self_t("stability.drain_constants", 0.0), "s"),
        "stability.drain_constants.useful_ratio": (
            s.extra_sum("stability.drain_constants") / rows_sampled
            if rows_sampled else 0.0, "ratio"),
        "stability.build_gamma.busy_s": (busy("stability.build_gamma", 0.0), "s"),
        "stability.spectral_radius.busy_s": (busy("stability.spectral_radius", 0.0), "s"),
        "stability.contraction_check.busy_s": (busy("stability.contraction_check", 0.0), "s"),
        "stability.trap_looseness": (m / max(entries) if entries and max(entries) > 0
                                     and m is not None else 0.0, "ratio"),
        "stability.chain_certify.refusals": (len(run.refusals), "count"),
        "network.topological_sort.calls": (calls("network.topological_sort", 0), "count"),
        "network.topological_sort.busy_s": (busy("network.topological_sort", 0.0), "s"),
        "harness.run_scenario.self_s": (self_t("harness.run_scenario", 0.0), "s"),
        "harness.mass_balance.busy_s": (busy("harness.mass_balance_residuals", 0.0), "s"),
        "harness.export_csv.busy_s": (busy("harness.export_csv", 0.0), "s"),
        "harness.export_csv.bytes": (s.extra_sum("harness.export_csv"), "B"),
        "cli.main.self_s": (self_t("cli.main", 0.0), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.root_coverage": (s.root_s / wall_traced, "ratio"),
        "trace.count_mismatches": (len(mismatches), "count"),
    }
    detail = {
        "wall_traced_s": wall_traced,
        "overhead_groups": overhead_groups,
        "spans": len(tracer.spans), "span_file": str(out.relative_to(ROOT)),
        "completeness": {k: {"counted": got, "expected": want}
                         for k, (got, want) in expected.items()},
        "trap": {"m": m, "worst_entry": max(entries) if entries else None,
                 "trajectories": len(entries)},
    }
    return run, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()[0]
    if not (SRC / "netstab" / "__init__.py").is_file():
        print(f"error: no netstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import netstab  # noqa: F401  (import time is part of set-up)
    import workloads
    import_s = time.perf_counter() - t0
    if Path(netstab.__file__).resolve().parent != SRC / "netstab":
        print(f"error: imported netstab from {netstab.__file__}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
    try:
        if args.trace:
            run, metrics, detail = traced_run(wl, args)
        else:
            run, metrics, detail = timed_run(wl, args, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 3
    for name, msg in run.failures:
        print(f"FAILED {name}: {msg}", file=sys.stderr)
    detail.update({
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(args.seed, load_start),
        "failures": [f"{n}: {m}" for n, m in run.failures],
        "chain_certify_refusals": run.refusals,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(metrics[k][0]), "unit": metrics[k][1]}
                    for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
