"""Self-check of the benchmark's gates: known-bad outputs must be caught.

    python3 perfbench/selfcheck.py

Produces one real output of each kind (an `analyze` certificate, a
`reproduce-paper` directory, a certified closed-loop trajectory, a chain
refusal, a traced call count), checks that its gate passes it, then hands
the gate damaged copies -- a flipped CSV byte, a trajectory pushed out of
the box after entering it, a wrong rho -- and checks that each is reported
as a failure.  A rejected command line and a failed mc8 set-up must count
as failed operations without ending the run.  Prints one line per case;
exits 1 if any case went wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import netstab  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

XSTAR = np.asarray(W.EXPECTED["xstar"])


def analyze_cases(doc):
    def edit(path, value):
        bad = json.loads(json.dumps(doc))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return bad

    x = list(doc["equilibrium"]["xstar"])
    x[2] += 1e-5
    yield "analyze: as produced", (0, doc), True
    yield "analyze: exit code 1", (1, doc), False
    yield "analyze: no output", (2, None), False
    yield "analyze: x* off by 1e-5", (0, edit(["equilibrium", "xstar"], x)), False
    yield "analyze: rho off by 1e-8", (0, edit(["comparison", "rho"], 0.991 + 1e-8)), False
    yield "analyze: no trapping bound", (0, edit(["trapping_steps"], None)), False
    yield "analyze: contraction failed", (0, edit(["checks", "contraction_ok"], False)), False
    yield "analyze: no invariant box", (0, edit(["invariant_box"], None)), False


def reproduce_cases(out, tmp):
    def damaged(name, fn):
        d = tmp / name
        shutil.copytree(out, d)
        fn(d)
        return d

    def flip(d):
        p = d / "closed_loop_jam.csv"
        data = bytearray(p.read_bytes())
        data[-3] ^= 1
        p.write_bytes(bytes(data))

    rc, summary = W.cli_json(["reproduce-paper", "--out", out,
                              "--seed", W.EXPECTED["reproduce_seed"]])
    yield "reproduce: as produced", ((rc, summary), out), True
    yield "reproduce: one CSV byte flipped", ((rc, summary), damaged("flip", flip)), False
    yield "reproduce: a CSV missing", (
        (rc, summary), damaged("missing", lambda d: (d / "open_loop_congestion.csv").unlink())), False
    bad = json.loads(json.dumps(summary))
    bad["scenarios"]["closed_loop_heavy"]["max_mass_balance_error"] = 1e-6
    yield "reproduce: mass balance 1e-6", ((rc, bad), out), False
    yield "reproduce: exit code 1", ((1, summary), out), False


def trajectory_cases(doc):
    mc = W.Mc8(0, Path("."))
    st = {"spec": netstab.presets.reference_network(), "ctrl": W.controller_of(doc)}
    rec = netstab.run_scenario(netstab.presets.reference_network(),
                               netstab.presets.reference_diagrams(), mc.trajectory(st, 0))
    beta = np.asarray(doc["invariant_box"]["beta"])
    m = doc["trapping_steps"]

    def with_states(fn):
        states = rec.states.copy()
        fn(states)
        return dataclasses.replace(rec, states=states)

    def leave(states):
        states[-1, 0] = beta[0] + 1.0

    def stay_out(states):
        states[:, 0] = beta[0] + 1.0

    def leak(states):
        states[100:] += 1e-3

    yield "trajectory: as produced", (rec, beta, m), True
    yield "trajectory: leaves [0, beta] after entering", (with_states(leave), beta, m), False
    yield "trajectory: never enters [0, beta]", (with_states(stay_out), beta, m), False
    yield "trajectory: enters after m", (rec, beta, 1), False
    yield "trajectory: mass not conserved", (with_states(leak), beta, m), False


def main() -> int:
    tmp = ROOT / ".perfbench_tmp" / f"selfcheck-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    bad = 0

    def report(label, problems, should_pass):
        nonlocal bad
        ok = (not problems) == should_pass
        bad += not ok
        verdict = "pass" if not problems else "FAIL: " + "; ".join(problems)
        print(f"[{'ok' if ok else 'WRONG'}] {label} -> {verdict}")

    try:
        rc, doc = W.cli_json(["analyze", "--seed", "0"])
        for label, out, good in analyze_cases(doc):
            report(label, W.gate_analyze(out, XSTAR), good)
        for label, (out, d), good in reproduce_cases(tmp / "reproduce", tmp):
            report(label, W.gate_reproduce(out, d), good)
        for label, (rec, beta, m), good in trajectory_cases(doc):
            report(label, W.gate_trajectory(rec, beta, m, []), good)

        spec, ds, v = W.mainline_chain()
        chain = W.Corridor64.chain_certify(
            {"chain": (spec, ds), "chain_eq": netstab.solve_uep(spec, ds, v)})
        refusals = []
        report("chain: typed refusal (F3) is not a failure",
               W.gate_chain(chain, ds, refusals), True)
        report("chain: the refusal is recorded", [] if refusals else ["not recorded"], True)
        wrong = type("Cert", (), {"rho": 0.5, "m": 1})()
        report("chain: certificate with wrong rho", W.gate_chain(wrong, ds, []), False)

        run = W.Run()
        run.op("raises", lambda: 1 / 0, lambda out: [])
        run.op("bad output", lambda: 1, lambda out: ["wrong"])
        run.op("good output", lambda: 1, lambda out: [])
        report("Run.op: a raise and a bad output count as 2 of 3 failed",
               [] if (run.attempted, len(run.failures)) == (3, 2) else
               [f"attempted {run.attempted}, failed {len(run.failures)}"], True)

        with contextlib.redirect_stderr(io.StringIO()):  # the parser's usage text
            run = W.Run()
            out = run.op("analyze", lambda: W.cli_json(["analyze", "--no-such-option"]),
                         lambda o: W.gate_analyze(o, XSTAR))
        report("cli: a rejected argv is exit code 2, a failed op, not an abort",
               [] if out == (2, None) and len(run.failures) == 1 else
               [f"output {out}, failures {run.failures}"], True)

        real_cli_json, W.cli_json = W.cli_json, lambda argv: (1, None)
        try:
            run, mc = W.Run(), W.Mc8(0, tmp)
            mc.run_pass(run, mc.setup(run), 0)
        finally:
            W.cli_json = real_cli_json
        report("mc8: a failed set-up and the trajectory after it are 2 failed ops",
               [] if (run.attempted, len(run.failures)) == (2, 2) else
               [f"attempted {run.attempted}, failed {len(run.failures)}"], True)

        tracer = spans.Tracer()
        direct = netstab.dynamics.step  # a reference taken before wrapping
        args = (netstab.presets.reference_network(), netstab.presets.reference_diagrams(),
                np.full(8, 50.0), netstab.presets.reference_vstar(),
                np.array([0.5, 0.5, 0.5, 0.25]))
        tracer.install()
        try:
            netstab.dynamics.step(*args)
            netstab.stability.step(*args)
            direct(*args)
        finally:
            tracer.uninstall()
        counted = spans.Summary(tracer).count("dynamics.step")
        report("trace: a call through a pre-wrap reference is missed and shows "
               "as a count mismatch (2 of 3)", [] if counted == 2 else [f"counted {counted}"], True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{bad} case(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
