"""Where the traced pass wraps polyhom, and the per-layer metrics it derives.

Each layer (cli, harness, fem, periodic, geometry, oscillatory) is measured
from outside, by wrapping its public functions at the place where callers
look them up: module attributes for calls that go through a module, and the
importing module for names taken with ``from ... import``.
"""

from __future__ import annotations

import math
import os

import numpy as np

from polyhom import cli, fem, geometry, harness, oscillatory, periodic


def l1_ball_size(d: int, bound: int) -> int:
    """Integer vectors m != 0 in d dimensions with |m|_1 <= bound."""
    return sum(2 ** k * math.comb(d, k) * math.comb(bound, k) for k in range(d + 1)) - 1


def _count_cli(tr, rc, args, kwargs):
    argv = list(args[0] if args else kwargs["argv"])
    out = argv[argv.index("--out") + 1]
    tr.counts["cli.bytes_written"] += sum(e.stat().st_size for e in os.scandir(out)
                                          if e.is_file())


def _count_records(tr, result, args, kwargs):
    tr.counts["harness.records"] += len(result.records)
    tr.counts["harness.records_failed"] += sum(r.failed for r in result.records)


def _count_dioph(tr, cert, args, kwargs):
    nu = np.asarray(args[0])
    bound = args[2] if len(args) > 2 else kwargs["bound"]
    tr.counts["geometry.diophantine_check.vectors"] += l1_ball_size(nu.size, int(bound))


def _count_partition(tr, part, args, kwargs):
    tr.counts["geometry.lattice_partition.cells"] += len(part.cells)
    tr.counts["geometry.lattice_partition.leftover_pieces"] += len(part.leftover.pieces)


def _count_mesh(tr, mesh, args, kwargs):
    tr.counts["fem.mesh.vertices"] += len(mesh.vertices)
    tr.counts["fem.mesh.triangles"] += len(mesh.triangles)


def _count_solve(tr, sol, args, kwargs):
    nv, nt = len(sol.mesh.vertices), len(sol.mesh.triangles)
    edges = nv + nt - 1   # Euler's formula for a triangulated polygon
    tr.counts["fem.cg.iterations"] += sol.iterations
    tr.counts["fem.cg.residual_max"] = max(tr.counts["fem.cg.residual_max"], sol.residual)
    tr.counts["fem.cg.matvec_nnz"] += sol.iterations * (nv + 2 * edges)
    problem = args[0] if args else kwargs["problem"]
    tr.events.append(("fem.solve_dirichlet", {"epsilon": problem.epsilon, "vertices": nv,
                                              "iterations": sol.iterations}))


def _count_points(tr, values, args, kwargs):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    tr.counts["periodic.evaluate.points"] += x.size // x.shape[-1]


def sites():
    """(module, attribute, span name, counter) for every wrapped call site."""
    return [
        (cli, "main", "cli.main", _count_cli),
        (harness, "run_sweep", "harness.run_sweep", _count_records),
        (harness, "build_rate_report", "harness.build_rate_report", None),
        (harness, "report", "harness.report", None),
        # from-imported into harness and oscillatory: wrapped where they are looked up
        (harness, "diophantine_check", "geometry.diophantine_check", _count_dioph),
        (oscillatory, "lattice_partition", "geometry.lattice_partition", _count_partition),
        (geometry, "diophantine_check", "geometry.diophantine_check", _count_dioph),
        # fem calls triangulate, solve_dirichlet and evaluate_solution through
        # its own module globals, so these wrappers see its internal calls too
        (fem, "triangulate", "fem.triangulate", _count_mesh),
        (fem, "solve_dirichlet", "fem.solve_dirichlet", _count_solve),
        (fem, "evaluate_solution", "fem.evaluate_solution", None),
        (fem, "lp_error", "fem.lp_error", None),
        (fem, "kernel_bound_probe", "fem.kernel_bound_probe", None),
        (fem, "harmonic_measure", "fem.harmonic_measure", None),
        (fem, "corner_probe", "fem.corner_probe", None),
        (fem, "gradient_probe", "fem.gradient_probe", None),
        (periodic, "evaluate", "periodic.evaluate", _count_points),
        (oscillatory, "boundary_average", "oscillatory.boundary_average", None),
        (oscillatory, "face_average", "oscillatory.face_average", None),
        (oscillatory, "patch_integral_closed_form", "oscillatory.patch_integral_closed_form",
         None),
        (oscillatory, "patch_integral_quadrature", "oscillatory.patch_integral_quadrature",
         None),
    ]


def layer_metrics(tracer, names, wall: float) -> dict:
    """Value of every named per-layer metric for one traced pass of ``wall`` seconds.

    ``<span>.s``, ``.self_s`` and ``.calls`` come from the spans, the rest
    from counters; a layer the workload does not call reads 0.
    """
    totals = tracer.totals()
    span_names = {name for _, _, name, _ in sites()}
    out = {}
    for metric in names:
        span, _, key = metric.rpartition(".")
        if span in span_names and key in ("s", "self_s", "calls"):
            out[metric] = float(totals.get(span, {}).get(key, 0.0))
        else:
            out[metric] = float(tracer.counts.get(metric, 0.0))
    fa = totals.get("oscillatory.face_average", {"calls": 0, "failed": 0})
    out["oscillatory.face_average.ok_ratio"] = (
        (fa["calls"] - fa["failed"]) / fa["calls"] if fa["calls"] else 0.0)
    out["trace.coverage"] = sum(tracer.self_times()) / wall
    return out
