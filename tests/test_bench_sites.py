"""Every call site the benchmark's traced pass wraps must still exist and run.

The traced pass replaces these module attributes with timing wrappers; a
renamed or removed function, or a wrapper's counter that no longer fits what
the function returns, would otherwise fail only there.
"""

import ast
import math
import os
import sys

import numpy as np
import pytest

from polyhom import fem as F
from polyhom import geometry as G
from polyhom import harness as H
from polyhom import oscillatory as O
from polyhom import periodic as P
from polyhom.errors import NonDiophantineWarning

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
import tracer  # noqa: E402


def test_every_wrapped_site_resolves_to_a_callable():
    sites = layers.sites()
    assert sites
    for module, attr, span, _ in sites:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_traced_solves_record_their_counts():
    sq = G.unit_square()
    mesh = F.triangulate(sq, 0.05)
    A = F.CoefficientField.identity()
    prob = F.DirichletProblem(polygon=sq, coefficients=A,
                              explicit_data=lambda pts: np.sin(3.0 * pts[:, 0]))
    tr = tracer.Tracer()
    with tracer.patched(tr, layers.sites()):
        F.solve_dirichlet(prob, mesh)
        F.harmonic_measure(sq, A, lambda y: y[1] <= 1e-12, np.array([0.5, 0.5]), mesh=mesh)
        F.kernel_bound_probe(sq, A, np.array([0.3, 0.6]), arcs_per_face=4)
    solves = [e for name, e in tr.events if name == "fem.solve_dirichlet"]
    assert len(solves) == 2
    for e in solves:
        assert e["vertices"] == len(mesh.vertices) and e["iterations"] > 0
    totals = tr.totals()
    assert totals["fem.harmonic_measure"]["calls"] == 1
    assert totals["fem.kernel_bound_probe"]["calls"] == 1
    assert not any(t["failed"] for t in totals.values())


def _workload_keywords() -> dict:
    """fem function name -> keyword names of its calls in perfbench/workloads.py."""
    with open(os.path.join(PERFBENCH, "workloads.py")) as f:
        tree = ast.parse(f.read())
    out = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "fem"):
            out.setdefault(node.func.attr, set()).update(k.arg for k in node.keywords)
    return out


def test_probes_accept_the_benchmark_keywords():
    # the fem_probes workload's probe calls, with its keyword names, at small sizes
    omega = 2.0 * math.pi / 3.0
    gs = G.golden_square()
    A = F.CoefficientField.identity()
    centroid = G.polygon_vertices(gs).mean(axis=0)
    kwargs = {
        "corner_probe": dict(h=0.3, grading=1.0),
        "gradient_probe": dict(corner=(0.0, 0.0),
                               direction=(math.cos(omega / 2), math.sin(omega / 2)),
                               h=0.3, grading=1.0),
        "kernel_bound_probe": dict(arcs_per_face=4, h=0.25),
        "harmonic_measure": dict(mesh=F.triangulate(gs, 0.25)),
    }
    used = _workload_keywords()
    assert {name: set(kw) for name, kw in kwargs.items()} == {name: used.get(name)
                                                               for name in kwargs}
    assert np.isfinite(F.corner_probe(omega, **kwargs["corner_probe"])["fitted_exponent"])
    samples = F.gradient_probe(F.sector_polygon(omega), A, lambda pts: pts[:, 0] * pts[:, 1],
                               **kwargs["gradient_probe"])
    assert len(samples) == 6 and np.all(np.isfinite(samples))
    kb = F.kernel_bound_probe(gs, A, centroid, **kwargs["kernel_bound_probe"])
    assert len(kb["ratios"]) == 16
    w = F.harmonic_measure(gs, A, lambda y: True, centroid, **kwargs["harmonic_measure"])
    assert abs(w - 1.0) <= 1e-8


def test_traced_diophantine_checks_record_both_sites():
    # harness looks diophantine_check up under its own name, geometry's
    # callers under geometry's: one check per face normal up to sign (two
    # for the square's four faces) plus one direct call
    tr = tracer.Tracer()
    with tracer.patched(tr, layers.sites()):
        with pytest.warns(NonDiophantineWarning):
            assert len(H.diophantine_warnings(G.unit_square(), 1.0, 10)) == 4
        G.diophantine_check(np.array([0.6, 0.8]), 1.0, 10)
    totals = tr.totals()
    assert totals["geometry.diophantine_check"]["calls"] == 3
    assert tr.counts["geometry.diophantine_check.vectors"] == 3 * layers.l1_ball_size(2, 10)
    assert not any(t["failed"] for t in totals.values())


def test_traced_boundary_average_integrates_whole_faces():
    # one face_average per cube face, none through the lattice partition
    q, _ = np.linalg.qr(np.random.default_rng(2013).standard_normal((3, 3)))
    cube = G.build_polytope([G.HalfSpace(q @ h.normal, h.offset)
                             for h in G.unit_cube().halfspaces])
    g = P.from_coefficients(3, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5, (0, 1, 1): 0.25j})
    tr = tracer.Tracer()
    with tracer.patched(tr, layers.sites()):
        O.boundary_average(cube, g, 100.0)
    totals = tr.totals()
    assert totals["oscillatory.face_average"]["calls"] == 6
    assert "geometry.lattice_partition" not in totals
    assert not any(t["failed"] for t in totals.values())
