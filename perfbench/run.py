#!/usr/bin/env python3
"""polyhom benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload headline_sweep --seed 0 --seconds 12 --trace 0

Workloads and metric names are listed in BENCHMARK.json. The launcher pins
the BLAS thread count, times start-up (interpreter start to first operation)
in SETUP_SAMPLES fresh worker processes, half before and half after the
measuring worker, which runs the workload in its own process. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every correctness
gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Half of the start-ups run before the measuring worker and half after it,
# so one slow stretch of the host does not cover all of them.
SETUP_SAMPLES = 8
DEADLINE_S = 170.0
# One BLAS thread: on 2 cores, 2 OpenBLAS threads used ~50% more CPU for the
# same wall time.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _worker_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_seconds(base_cmd, env, deadline, samples: int) -> list[float]:
    """Seconds from spawning a worker to its 'ready' line, once per sample."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(base_cmd + ["--setup-only"], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            out.append(time.perf_counter() - t0)
            proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up worker exited {proc.returncode} before 'ready'")
    return out


def _run_worker(cmd, env, deadline) -> tuple[list[str], dict]:
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "polyhom", "__init__.py")):
        return _fail("src/polyhom not found; run from the root of a polyhom checkout")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_root = os.path.abspath(".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    env = _worker_env()
    base_cmd = [sys.executable, WORKER, "--workload", args.workload,
                "--seed", str(args.seed), "--workdir", workdir]
    try:
        half = 0 if args.trace else SETUP_SAMPLES // 2
        setup = _setup_seconds(base_cmd, env, deadline, half)
        spans_out = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.json")
        lines, res = _run_worker(
            base_cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--spans-out", spans_out] if args.trace else []), env, deadline)
        setup += _setup_seconds(base_cmd, env, deadline, half)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines:
        print(line)
    walls, refs = res["untraced_s"], res["reference_s"]
    print(f"wall_s: {res['wall_s']:.4f} s, the median over {len(walls)} untraced passes of each "
          f"pass's seconds at reference speed (x {res['reference_nominal_s'] * 1e3:g} ms / the "
          f"reference kernel's median time in that pass)")
    print(f"untraced passes, measured: median {statistics.median(walls):.4f} s, fastest "
          f"{min(walls):.4f} s, slowest {max(walls):.4f} s (all: "
          f"{', '.join(f'{w:.4f}' for w in walls)}); reference kernel per pass: "
          f"{', '.join(f'{r * 1e3:.4f}' for r in refs)} ms")
    if setup:
        print(f"setup_s: median {statistics.median(setup):.4f} s over {len(setup)} start-ups "
              f"({', '.join(f'{s:.4f}' for s in setup)})")
    if args.trace:
        values = dict(res["layers"])
        values["trace.overhead_ratio"] = (statistics.median(res["traced_s"])
                                          / statistics.median(walls))
        print(f"spans of the traced passes: {os.path.relpath(spans_out)}")
        print(f"traced passes: {len(res['traced_s'])}, coverage of traced wall by span self "
              f"times {values['trace.coverage']:.4f}, overhead "
              f"{values['trace.overhead_ratio']:.4f}x untraced")
    else:
        values = {"wall_s": res["wall_s"], "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"], "ops_ok_frac": res["ok_frac"]}
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
