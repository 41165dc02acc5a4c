"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload mc8 --seeds 1-10 [--seconds 10]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
interquartile range as a share of the median, next to the bound from
BENCHMARK.json.  Results are appended to ``.perfbench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "seconds": seconds, "result": result,
                                 "detail": json.loads(lines[-2])["detail"]}) + "\n")
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'bound':>7}")
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{(q3 - q1) / med:>9.3f}{bounds.get(k, float('nan')):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
