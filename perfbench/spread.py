#!/usr/bin/env python3
"""Run a workload on several seeds and print each metric's median and spread.

Spread is the distance between the first and third quartile of the per-run
values (statistics.quantiles, n=4) as a share of their median, the figure a
metric's bound in BENCHMARK.json is compared with; setup_s is the exception,
its bound applies only to the shift between the medians of two sets of runs.
Run from the repository root:

    python3 perfbench/spread.py --workload fem_probes --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    first, last = (int(v) for v in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{n} {m['value']:.6g}"
                                           for n, m in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name}: median {med:.6g}, spread {spread:.4f}"
              + (f" (bound {bound}, a third {bound / 3:.4f})" if name != "setup_s" else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
