"""One workload in its own process: set up, run passes for a time budget, report.

Started by run.py, which pins the BLAS thread count and times start-up.
With ``--setup-only`` it prints ``ready`` once imports and inputs are done
and exits; otherwise it prints info lines and a JSON summary as its last line.

Untraced mode runs passes until ``--seconds`` have passed and at least
MIN_PASSES are done. During each untraced pass a timer runs a fixed
reference kernel every TICK_S seconds; its times measure the host's speed,
and ``wall_s`` rescales each pass to the speed at which the kernel takes
REFERENCE_S (see NOTES.md). Peak RSS is read after MIN_PASSES passes, so
it includes growth between passes but not the number of passes a time
budget allows.
Traced mode alternates an untraced and a traced pass, so the tracing overhead
is measured against passes of the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import numpy as np
import scipy

import layers
import tracer
import workloads

MIN_PASSES = 3
MIN_COVERAGE = 0.95
MAX_FAILURES_SHOWN = 20
# On the 2-vCPU VM this was built on, the same code ran up to 1.6x slower for
# seconds to minutes at a time, and interpreter loops, cache-resident and
# memory-bound sparse matvecs slowed down together, so a short fixed kernel
# sampled through a pass measures the speed the pass ran at.
TICK_S = 0.05
REFERENCE_S = 0.0005


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _timed(workload, ops) -> float:
    t0 = time.perf_counter()
    ops.new_pass()
    workload.run_pass(ops)
    return time.perf_counter() - t0


def reference_kernel() -> None:
    """Fixed interpreter and numpy work whose time measures the host's speed."""
    total = 0
    for i in range(8000):
        total += i * i
    a = np.arange(2000.0)
    float((a * a).sum())


class HostSpeed:
    """Times of reference_kernel, run from SIGALRM every TICK_S while ticking."""

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.spent += dt

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _untraced(workload, ops, host: HostSpeed) -> tuple[float, float]:
    """Seconds of one pass less its ticks, and the kernel's median time during it."""
    first, spent = len(host.times), host.spent
    with host.ticking():
        wall = _timed(workload, ops)
    return wall - (host.spent - spent), statistics.median(host.times[first:])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default="", help="write the traced passes' spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    ops = workloads.Ops()
    host = HostSpeed()
    untraced, reference, traced, samples, spans = [], [], [], [], []
    with open("BENCHMARK.json") as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    rss_mb = []
    start = time.perf_counter()
    while True:
        seconds, ref = _untraced(workload, ops, host)
        untraced.append(seconds)
        reference.append(ref)
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if args.trace:
            tr = tracer.Tracer()
            with tracer.patched(tr, layers.sites()):
                wall = _timed(workload, ops)
            workload.check_trace(tr, ops)
            traced.append(wall)
            spans.append([dataclasses.asdict(sp) for sp in tr.spans])
            samples.append(layers.layer_metrics(tr, names, wall))
            coverage = samples[-1]["trace.coverage"]
            ops.check("span self times cover the traced pass", coverage >= MIN_COVERAGE,
                      f"coverage {coverage:.4f} < {MIN_COVERAGE}")
        if time.perf_counter() - start >= args.seconds and (args.trace or len(untraced) >= MIN_PASSES):
            break

    if args.spans_out and spans:
        with open(args.spans_out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": spans}, f)
    for line in ops.lines:
        print(line)
    rss_pass = min(MIN_PASSES, len(rss_mb))
    print(f"peak_rss_mb: read after untraced pass {rss_pass}; after each untraced pass: "
          + ", ".join(f"{r:.1f}" for r in rss_mb) + " MB")
    print("env: " + json.dumps(environment(), sort_keys=True))
    for line in ops.known_red:
        print("known_red: " + line)
    for line in ops.failed[:MAX_FAILURES_SHOWN]:
        print("FAILED: " + line)
    summary = {
        "untraced_s": untraced, "reference_s": reference, "traced_s": traced,
        "wall_s": statistics.median(t * REFERENCE_S / r for t, r in zip(untraced, reference)),
        "reference_nominal_s": REFERENCE_S,
        "attempted": ops.attempted, "failed": len(ops.failed),
        "expected_failures": ops.expected_failures, "ok_frac": ops.ok_frac,
        "peak_rss_mb": rss_mb[rss_pass - 1],
        "layers": {n: statistics.median(s[n] for s in samples) for n in names} if samples else {},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
