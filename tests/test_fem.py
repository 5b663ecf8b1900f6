import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import random_convex_polygon
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhom import fem as F
from polyhom import geometry as G
from polyhom import harness as H
from polyhom import periodic as P
from polyhom.errors import (
    BudgetExceeded,
    NonSymmetricCoefficients,
    OutsideDomain,
    UnsupportedDimension,
    ValidationError,
)

I2 = F.CoefficientField.identity()


def _harmonic_quadratic(pts):
    return pts[:, 0] ** 2 - pts[:, 1] ** 2


# -- meshing -------------------------------------------------------------------

def test_triangulate_respects_target_edge():
    mesh = F.triangulate(G.unit_square(), 0.5)
    assert mesh.max_edge <= 0.5 + 1e-12
    assert np.all(mesh.areas > 0)


def test_triangulate_area_conservation():
    hexp = G.regular_hexagon()
    mesh = F.triangulate(hexp, 0.1)
    exact = 3.0 * np.sqrt(3.0) / 2.0  # shoelace of the unit-circumradius hexagon
    assert abs(mesh.areas.sum() - exact) <= 1e-9 * exact


def test_triangulate_refinement_bookkeeping():
    m1 = F.triangulate(G.unit_square(), 0.2)
    m2 = F.triangulate(G.unit_square(), 0.1)
    assert m2.max_edge <= m1.max_edge / 2 + 1e-12
    ratio = len(m2.vertices) / len(m1.vertices)
    assert 3.0 < ratio < 5.0


def test_triangulate_boundary_vertices_cover_polygon_vertices():
    poly = G.golden_square()
    mesh = F.triangulate(poly, 0.3)
    bverts = mesh.vertices[mesh.boundary_nodes]
    for v in G.polygon_vertices(poly):
        assert np.min(np.linalg.norm(bverts - v, axis=1)) < 1e-12


def test_triangulate_budget():
    # the node count is known in closed form, so both raise before meshing
    with pytest.raises(BudgetExceeded):
        F.triangulate(G.unit_square(), 0.001, max_vertices=1000)
    with pytest.raises(BudgetExceeded):
        F.triangulate(G.unit_square(), 1e-300)


def _corner_probe_mesh():
    # the graded sector mesh corner_probe(2 pi / 3, h=0.15) solves on
    omega, h = 2.0 * np.pi / 3.0, 0.15
    poly = F.sector_polygon(omega)
    floor = h * (2.0 ** -7 / poly.diameter) / 4.0
    return F.triangulate(poly, h, grading=1.0, grading_centers=np.array([[0.0, 0.0]]),
                         min_edge=floor)


def _strip_mesh():
    gs = G.golden_square()
    return F.triangulate(gs, 0.16, grading=1.0, grading_centers=G.faces(gs)[0].vertices,
                         min_edge=2e-4)


# sha256 of (vertices, triangles, boundary_edges).tobytes(): every sweep
# artifact and CG iteration count rests on these meshes staying bit-identical
MESH_DIGESTS = {
    "golden square, h=1/80": (
        lambda: F.triangulate(G.golden_square(), 1.0 / 80.0),
        ("84ce1991679d4045f7387d204519c5cc98ddc609b663a1a26f242dd5ea7f1bdc",
         "b221e9079b63877c3d0778b8e21357fe1608d787fe5037f2884e388a88e0bf2e",
         "1057a465a4689ac00c528884cbc80d5b34ac3d6ee3360d19b5ff2229d8cbb784")),
    "hexagon, h=0.4": (
        lambda: F.triangulate(G.regular_hexagon(), 0.4),
        ("c0c87eeee38e894612e6497e435ecc3ff47616213d0ed86b30985246ccc8ef8d",
         "c4fc8cdfcba7ff5a76fa91f76bf73cae5237783582ec514e9378dc3b4c804d5c",
         "98d11fa7c234d78a1893714e5b132385a3a176506860308ad122d5ff9d06580a")),
    # symmetric, so equal-length marked sides are common: this one changes if
    # the side lengths lose the bits of the 1-D np.linalg.norm
    "hexagon, h=0.4, graded 0.5 toward its vertices": (
        lambda: F.triangulate(G.regular_hexagon(), 0.4, grading=0.5),
        ("58b56ee39d8975391acde16dfc44d9a5e040737ef2bba4b1bffe59aa3e410747",
         "30b246d81e0240d4640f2d0f5a9601cbea26a4863523395664bacb2fc2ef1de8",
         "87d36171611cfabc4a9593ceef82fab159139f2170bde8789d362165fc465904")),
    "corner probe sector": (
        _corner_probe_mesh,
        ("00ee712395c120b7e8e23014b8d539b15bf8516f4cb4f386a8269005c82d9006",
         "afb7565f333779f3985200bb49410eebec899696f39541245b343eecaa09b087",
         "2a5a9c053003d98a7f5af87ba6b12a9c49ffabdab27a6c0594f69e6d0862c61c")),
    "strip mesh": (
        _strip_mesh,
        ("6125a285be15c3352e6196d7dde14d0efea3372563671f2dce4cfd0634badb98",
         "b70b9549fbb2866c68c10b526546b6cf326955fe0aa02eea0435a9cdf070e019",
         "7058214ccc5010ba8a831ce9d1e0203339f078027fb10354bf2cf15d2ceb3017")),
}


@pytest.mark.parametrize("name", list(MESH_DIGESTS))
def test_mesh_digests_pinned(name):
    make, expected = MESH_DIGESTS[name]
    mesh = make()
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                for a in (mesh.vertices, mesh.triangles, mesh.boundary_edges))
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.08, 0.3), st.sampled_from([0.0, 0.5, 1.0]))
def test_random_polygon_mesh_and_affine_solve(seed, h, grading):
    # any convex polygon, uniform or graded toward a random vertex: the mesh
    # conforms, tiles the polygon, and P1 reproduces affine data exactly
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng)
    verts = G.polygon_vertices(poly)
    mesh = F.triangulate(poly, h, grading=grading,
                         grading_centers=verts[rng.integers(len(verts))][None, :],
                         min_edge=1e-3 * poly.diameter)
    F._validate_mesh(mesh, poly)
    x, y = verts[:, 0], verts[:, 1]
    area = 0.5 * math.fsum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert abs(math.fsum(mesh.areas) - area) <= 1e-12 * area
    c0, c = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, 2)
    prob = F.DirichletProblem(polygon=poly, coefficients=I2,
                              explicit_data=lambda pts: c0 + pts @ c)
    sol = F.solve_dirichlet(prob, mesh, F.SolverConfig(linear_tol=1e-13))
    assert np.max(np.abs(sol.values - (c0 + mesh.vertices @ c))) <= 1e-9


def test_graded_mesh_conforms_and_shrinks_near_corner():
    mesh = F.triangulate(G.unit_square(), 0.2, grading=1.0,
                         grading_centers=np.array([[0.0, 0.0]]), min_edge=1e-3)
    # triangles near the corner are much smaller than h
    pts = mesh.vertices[mesh.triangles].mean(axis=1)
    near = np.linalg.norm(pts, axis=1) < 0.02
    e = mesh.vertices[mesh.triangles]
    lens = np.linalg.norm(e[:, 1] - e[:, 0], axis=1)
    assert lens[near].max() < 0.02


def test_dmp_structure_on_fan_meshes():
    # no positive off-diagonal stiffness entry for A = I: an M-matrix
    for poly, h in ((G.unit_square(), 0.1), (G.regular_hexagon(), 0.2)):
        K = F._assemble(F.triangulate(poly, h), I2).tocoo()
        assert K.data[K.row != K.col].max() <= 1e-10


# -- solving -------------------------------------------------------------------

def test_constant_boundary_data_reproduced():
    prob = F.DirichletProblem(polygon=G.unit_square(), coefficients=I2,
                              explicit_data=lambda pts: np.full(len(pts), 7.5))
    sol = F.solve_dirichlet(prob, F.triangulate(G.unit_square(), 0.1))
    assert np.max(np.abs(sol.values - 7.5)) < 1e-9


def test_explicit_data_must_be_vectorised():
    prob = F.DirichletProblem(polygon=G.unit_square(), coefficients=I2,
                              explicit_data=lambda p: 1.0)
    with pytest.raises(ValidationError, match=r"shape \(5,\)"):
        prob.boundary_values(np.zeros((5, 2)))


def test_solver_config_rejects_values_that_skip_or_never_end_cg():
    for bad in (dict(max_iter=0), dict(max_iter=-3), dict(linear_tol=0.0),
                dict(linear_tol=-1.0), dict(linear_tol=float("nan"))):
        with pytest.raises(ValidationError):
            F.SolverConfig(**bad)
    F.SolverConfig(linear_tol=1e-30, max_iter=1)  # tiny but valid


def _arc_measures(poly, x, kb):
    """omega(x, arc) recovered from the kernel probe's ratios, in the probe's arc order."""
    arcs = kb["arcs_per_face"]
    dx = G.distance_to_boundary(poly, x)
    out = []
    for f in G.faces(poly):
        va, vb = f.vertices
        for i in range(arcs):
            p0, p1 = va + i / arcs * (vb - va), va + (i + 1) / arcs * (vb - va)
            seg = p1 - p0
            s = float(np.clip((x - p0) @ seg / (seg @ seg), 0.0, 1.0))
            dist = float(np.linalg.norm(x - (p0 + s * seg)))
            out.append(kb["ratios"][len(out)] * float(np.linalg.norm(seg)) * dx / dist ** 2)
    return np.array(out)


def test_adjoint_kernel_matches_forward_arc_solves():
    """Each adjoint arc measure equals a forward solve on the arc's indicator, read at x."""
    sq = G.unit_square()
    A = F.CoefficientField.constant([[2.0, 0.5], [0.5, 1.0]])
    arcs, h = 8, 1.0 / 32
    mesh = F.triangulate(sq, h)
    bpts = mesh.vertices[mesh.boundary_nodes]
    # an interior point, and one inside the first cell off the face y = 0,
    # whose triangle has boundary nodes
    for x in (np.array([0.37, 0.61]), np.array([0.53, 0.4 * h])):
        t, lam = F._locate(mesh, x)
        near_face = np.isin(mesh.triangles[t], mesh.boundary_nodes).any()
        assert near_face == (x[1] < h) and np.all(lam > 0)
        forward = []
        for f in G.faces(sq):
            va, vb = f.vertices
            on_face = np.abs(bpts @ f.normal - f.offset) <= 1e-10
            tv = (bpts - va) @ (vb - va) / float((vb - va) @ (vb - va))
            for i in range(arcs):
                inside = on_face & (tv >= i / arcs - 1e-12) & (tv < (i + 1) / arcs - 1e-12)
                prob = F.DirichletProblem(
                    polygon=sq, coefficients=A,
                    explicit_data=lambda pts, m=inside: np.where(m, 1.0, 0.0))
                sol = F.solve_dirichlet(prob, mesh, F.SolverConfig(linear_tol=1e-13))
                forward.append(float(F.evaluate_solution(sol, x)))
        measures = _arc_measures(sq, x, F.kernel_bound_probe(sq, A, x, arcs_per_face=arcs, h=h))
        assert np.all(np.abs(measures - forward) <= 1e-8 * np.abs(forward))
        assert abs(measures.sum() - 1.0) <= 1e-9


def test_kernel_probe_runs_one_solve(monkeypatch):
    """perfbench's kernel setting: one CG solve, and arc measures summing to 1."""
    calls = []
    cg = F._DirichletSystem._cg
    monkeypatch.setattr(F._DirichletSystem, "_cg",
                        lambda self, *a: calls.append(1) or cg(self, *a))
    gs = G.golden_square()
    x = G.polygon_vertices(gs).mean(axis=0)
    arcs = 32
    h = min(f.measure for f in G.faces(gs)) / arcs
    kb = F.kernel_bound_probe(gs, I2, x, arcs_per_face=arcs, h=h)
    assert len(calls) == 1
    assert abs(_arc_measures(gs, x, kb).sum() - 1.0) <= 1e-9


def _einsum_stiffness(mesh, A_field):
    """The gradient-matrix stiffness formula, kept as an oracle for the closed form."""
    pts = mesh.vertices[mesh.triangles]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    inv = np.empty((len(pts), 2, 2))
    inv[:, 0, 0] = e2[:, 1]
    inv[:, 0, 1] = -e2[:, 0]
    inv[:, 1, 0] = -e1[:, 1]
    inv[:, 1, 1] = e1[:, 0]
    inv /= det[:, None, None]
    grads = np.einsum("ir,mrc->mic", F._GREF, inv)
    Abar = A_field.evaluate_many(pts.mean(axis=1))
    Kloc = np.einsum("mid,mde,mje,m->mij", grads, Abar, grads, 0.5 * det)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nv = len(mesh.vertices)
    return sp.coo_matrix((Kloc.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def _variable_field(pts):
    s = 1.0 + 0.5 * np.cos(7.0 * pts[:, 0]) * np.sin(5.0 * pts[:, 1])
    return s[:, None, None] * np.array([[1.5, 0.4], [0.4, 0.7]])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.3), st.sampled_from([0.0, 1.0]))
def test_closed_form_stiffness_matches_einsum_oracle(seed, h, grading):
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng)
    verts = G.polygon_vertices(poly)
    mesh = F.triangulate(poly, h, grading=grading, grading_centers=verts[:1],
                         min_edge=1e-3 * poly.diameter)
    for A in (F.CoefficientField.constant([[3.0, -1.2], [-1.2, 0.8]]),
              F.CoefficientField(evaluator=_variable_field)):
        K, oracle = F._assemble(mesh, A), _einsum_stiffness(mesh, A)
        assert abs(K - oracle).max() <= 1e-14 * abs(oracle).max()
        assert (K != K.T).nnz == 0


def _golden_system(eps):
    gs = G.golden_square()
    mesh = F.triangulate(gs, eps / 10.0)
    g = P.from_coefficients(2, {(1, 0): 0.5, (-1, 0): 0.5, (1, 1): -0.5j, (-1, -1): 0.5j})
    prob = F.DirichletProblem(polygon=gs, coefficients=I2, periodic_data=g, epsilon=eps)
    return mesh, prob.boundary_values(mesh.vertices[mesh.boundary_nodes])


@pytest.mark.parametrize("eps", [1 / 8, 1 / 12, 1 / 16])
def test_amg_cg_iterations_and_accuracy_on_golden_square(eps):
    mesh, vb = _golden_system(eps)
    system = F._DirichletSystem(mesh, I2)
    u, iters, res = system.solve(vb, F.SolverConfig(linear_tol=1e-8))
    assert 0 < iters <= 25 and res <= 1e-8
    x = spla.splu(system.Kii.tocsc()).solve(system.neg_Kib @ vb)
    assert np.max(np.abs(u[system.interior] - x)) <= 1e-7 * np.max(np.abs(x))


def test_vcycle_is_symmetric():
    mesh = F.triangulate(G.regular_hexagon(), 0.02)
    system = F._DirichletSystem(mesh, F.CoefficientField.constant([[2.0, 0.5], [0.5, 1.0]]))
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, len(system.interior)))
    Mx, My = system.vcycle(x), system.vcycle(y)
    assert len(system._levels) >= 1       # a real hierarchy, not only the coarse factor
    assert abs(y @ Mx - x @ My) <= 1e-12 * abs(x @ My)
    assert x @ Mx > 0 and y @ My > 0


def test_two_builds_give_bit_identical_solutions():
    mesh, vb = _golden_system(1 / 8)
    cfg = F.SolverConfig(linear_tol=1e-8)
    a, b = (F._DirichletSystem(mesh, I2).solve(vb, cfg) for _ in range(2))
    assert a[0].tobytes() == b[0].tobytes() and a[1:] == b[1:]


def test_harmonic_measures_on_one_mesh_assemble_once(monkeypatch):
    calls = []
    assemble = F._assemble
    monkeypatch.setattr(F, "_assemble", lambda *a: calls.append(1) or assemble(*a))
    gs = G.golden_square()
    centroid = G.polygon_vertices(gs).mean(axis=0)
    mesh = F.triangulate(gs, 0.05)
    f0 = G.faces(gs)[0]
    for rho in (0.04, 0.02, 0.01):
        F.harmonic_measure(gs, I2, lambda y, rho=rho: abs(float(f0.normal @ y) - f0.offset)
                           <= 1e-10 and G.face_strip_membership(f0, rho, y),
                           centroid, mesh=mesh)
    assert len(calls) == 1


def test_cached_system_dies_with_its_mesh():
    mesh = F.triangulate(G.unit_square(), 0.1)
    prob = F.DirichletProblem(polygon=G.unit_square(), coefficients=I2,
                              explicit_data=lambda pts: pts[:, 0])
    F.solve_dirichlet(prob, mesh)
    mesh_ref, system_ref = weakref.ref(mesh), weakref.ref(F._SYSTEMS[mesh][I2])
    del mesh
    gc.collect()
    assert mesh_ref() is None and system_ref() is None


def test_mesh_cannot_change_under_its_cached_system():
    """A cached system is keyed on the mesh object, so the mesh is immutable."""
    mesh = F.triangulate(G.unit_square(), 0.25)
    for name in ("vertices", "triangles", "boundary_edges"):
        with pytest.raises(ValueError):
            getattr(mesh, name)[0, 0] += 1
        with pytest.raises(AttributeError):
            setattr(mesh, name, getattr(mesh, name).copy())


def test_manufactured_harmonic_l2_order():
    hexp = G.regular_hexagon()
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        mesh = F.triangulate(hexp, h)
        prob = F.DirichletProblem(polygon=hexp, coefficients=I2,
                                  explicit_data=_harmonic_quadratic)
        sol = F.solve_dirichlet(prob, mesh, F.SolverConfig(linear_tol=1e-11))
        tri, v = mesh.triangles, mesh.vertices
        um = np.stack([(sol.values[tri[:, i]] + sol.values[tri[:, (i + 1) % 3]]) / 2
                       for i in range(3)], axis=1)
        mids = np.stack([(v[tri[:, i]] + v[tri[:, (i + 1) % 3]]) / 2
                         for i in range(3)], axis=1)
        ue = _harmonic_quadratic(mids.reshape(-1, 2)).reshape(um.shape)
        errs.append(float(np.sqrt(np.sum(mesh.areas[:, None] / 3 * (um - ue) ** 2))))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.8  # preasymptotic on these levels; the fine triple reaches 1.9


def test_manufactured_harmonic_h1_order():
    hexp = G.regular_hexagon()
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        mesh = F.triangulate(hexp, h)
        prob = F.DirichletProblem(polygon=hexp, coefficients=I2,
                                  explicit_data=_harmonic_quadratic)
        sol = F.solve_dirichlet(prob, mesh, F.SolverConfig(linear_tol=1e-11))
        pts = mesh.vertices[mesh.triangles]
        cent = pts.mean(axis=1)
        exact_grad = np.stack([2 * cent[:, 0], -2 * cent[:, 1]], axis=1)
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        inv = np.empty((len(pts), 2, 2))
        inv[:, 0, 0] = e2[:, 1]
        inv[:, 0, 1] = -e2[:, 0]
        inv[:, 1, 0] = -e1[:, 1]
        inv[:, 1, 1] = e1[:, 0]
        inv /= det[:, None, None]
        Gref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        grads = np.einsum("ir,mrc->mic", Gref, inv)
        uh_grad = np.einsum("mi,mic->mc", sol.values[mesh.triangles], grads)
        err2 = np.sum(mesh.areas[:, None] * (uh_grad - exact_grad) ** 2)
        errs.append(float(np.sqrt(err2)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_discrete_maximum_principle():
    g = P.from_coefficients(2, {(1, 0): 0.5, (-1, 0): 0.5, (1, 1): -0.5j, (-1, -1): 0.5j})
    prob = F.DirichletProblem(polygon=G.golden_square(), coefficients=I2,
                              periodic_data=g, epsilon=0.25)
    mesh = F.triangulate(G.golden_square(), 0.025)
    sol = F.solve_dirichlet(prob, mesh)
    bvals = sol.values[mesh.boundary_nodes].real
    assert sol.values.real.min() >= bvals.min() - 1e-10
    assert sol.values.real.max() <= bvals.max() + 1e-10


def test_complex_boundary_data_solved_componentwise():
    g = P.from_coefficients(2, {(1, 0): 1j})  # not real-valued
    prob = F.DirichletProblem(polygon=G.unit_square(), coefficients=I2,
                              periodic_data=g, epsilon=0.5)
    mesh = F.triangulate(G.unit_square(), 0.1)
    sol = F.solve_dirichlet(prob, mesh, F.SolverConfig(linear_tol=1e-11))
    assert np.iscomplexobj(sol.values)
    b = mesh.boundary_nodes
    want = P.evaluate(g, mesh.vertices[b] / 0.5)
    assert np.max(np.abs(sol.values[b] - want)) < 1e-14
    # interior values obey the maximum principle componentwise
    assert np.max(np.abs(sol.values)) <= np.max(np.abs(want)) + 1e-8


def test_nonsymmetric_coefficients_rejected():
    with pytest.raises(NonSymmetricCoefficients):
        F.CoefficientField.constant([[1.0, 0.3], [0.1, 1.0]])
    bad = F.CoefficientField(
        evaluator=lambda pts: np.broadcast_to([[1.0, 0.2], [0.1, 1.0]], (len(pts), 2, 2)))
    prob = F.DirichletProblem(polygon=G.unit_square(), coefficients=bad,
                              explicit_data=lambda pts: np.zeros(len(pts)))
    with pytest.raises(NonSymmetricCoefficients):
        F.solve_dirichlet(prob, F.triangulate(G.unit_square(), 0.5))


def test_coefficient_evaluator_must_be_vectorised():
    per_point = F.CoefficientField(evaluator=lambda p: np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match=r"\(3, 2, 2\)"):
        per_point.evaluate_many(np.zeros((3, 2)))
    prob = F.DirichletProblem(polygon=G.unit_square(), coefficients=per_point,
                              explicit_data=lambda pts: np.zeros(len(pts)))
    with pytest.raises(ValidationError):
        F.solve_dirichlet(prob, F.triangulate(G.unit_square(), 0.5))


def test_galerkin_residual_bound():
    prob = F.DirichletProblem(polygon=G.unit_square(), coefficients=I2,
                              explicit_data=_harmonic_quadratic)
    cfg = F.SolverConfig(linear_tol=1e-9)
    sol = F.solve_dirichlet(prob, F.triangulate(G.unit_square(), 0.05), cfg)
    assert sol.residual <= 1e-9


# -- evaluation -----------------------------------------------------------------

def test_evaluate_solution_at_vertices_and_linears():
    sq = G.unit_square()
    mesh = F.triangulate(sq, 0.25)
    lin = lambda pts: 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.25
    prob = F.DirichletProblem(polygon=sq, coefficients=I2, explicit_data=lin)
    sol = F.solve_dirichlet(prob, mesh, F.SolverConfig(linear_tol=1e-12))
    i = len(mesh.vertices) // 3
    assert F.evaluate_solution(sol, mesh.vertices[i]) == pytest.approx(sol.values[i], abs=1e-12)
    for x in ([0.37, 0.21], [0.5, 0.5], [0.93, 0.08]):
        want = lin(np.array([x]))[0]
        assert F.evaluate_solution(sol, x) == pytest.approx(want, abs=1e-9)
    with pytest.raises(OutsideDomain):
        F.evaluate_solution(sol, [1.7, 0.3])


def test_locate_picks_lowest_index_containing_triangle():
    gs = G.golden_square()
    mesh = F.triangulate(gs, 1 / 80)
    # the sweep's probe points sit on mesh vertices, where up to six triangles meet
    for x in H.probe_points_at_distances(gs, [0.15, 0.3]):
        v = np.argmin(np.linalg.norm(mesh.vertices - x, axis=1))
        incident = np.flatnonzero((mesh.triangles == v).any(axis=1))
        assert F._locate(mesh, x)[0] == incident.min()

    # the midpoint of an interior edge lies in its two triangles; the lower wins
    keys = F._edge_keys(mesh.triangles, len(mesh.vertices))
    uniq, counts = np.unique(keys, return_counts=True)
    interior = uniq[counts == 2]
    key = interior[len(interior) // 2]
    lo, hi = np.sort(np.flatnonzero(keys == key) % len(mesh.triangles))
    nv = len(mesh.vertices)
    x = 0.5 * (mesh.vertices[key // nv] + mesh.vertices[key % nv])
    assert F._locate(mesh, x)[0] == lo

    # with random nodal values the two triangles have different gradients
    vals = np.random.default_rng(5).normal(size=nv)
    sol = F.FemSolution(mesh=mesh, values=vals, iterations=0, residual=0.0)

    def affine_gradient(t):
        tri = mesh.triangles[t]
        coef = np.linalg.solve(np.column_stack([np.ones(3), mesh.vertices[tri]]), vals[tri])
        return coef[1:]

    assert not np.allclose(affine_gradient(lo), affine_gradient(hi))
    assert F.evaluate_gradient(sol, x) == pytest.approx(affine_gradient(lo), rel=1e-9)


def test_evaluate_constant_everywhere():
    sq = G.unit_square()
    prob = F.DirichletProblem(polygon=sq, coefficients=I2,
                              explicit_data=lambda pts: np.full(len(pts), -2.0))
    sol = F.solve_dirichlet(prob, F.triangulate(sq, 0.3))
    for x in ([0.1, 0.1], [0.77, 0.33]):
        assert F.evaluate_solution(sol, x) == pytest.approx(-2.0, abs=1e-9)


def test_lp_error_trivials():
    sq = G.unit_square()
    mesh = F.triangulate(sq, 0.2)
    prob = F.DirichletProblem(polygon=sq, coefficients=I2,
                              explicit_data=lambda pts: np.full(len(pts), 1.5))
    sol = F.solve_dirichlet(prob, mesh)
    assert F.lp_error(sol, 1.5, 2.0) == pytest.approx(0.0, abs=1e-9)
    for p in (1.0, 2.0, 5.0):
        assert F.lp_error(sol, 0.5, p) == pytest.approx(1.0, abs=1e-8)


def test_lp_error_matches_dense_riemann(rng):
    sq = G.unit_square()
    mesh = F.triangulate(sq, 0.1)
    vals = rng.normal(size=len(mesh.vertices))
    sol = F.FemSolution(mesh=mesh, values=vals, iterations=0, residual=0.0)
    p = 3.0
    got = F.lp_error(sol, 0.2, p)
    n = 500
    xs = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    dense = np.array([F.evaluate_solution(sol, q) for q in pts[rng.choice(len(pts), 4000, replace=False)]])
    # dense Riemann estimate from a random subsample (unbiased up to MC error)
    est = (np.mean(np.abs(dense - 0.2) ** p)) ** (1 / p)
    assert got == pytest.approx(est, rel=5e-2)


# -- probes ----------------------------------------------------------------------

def test_harmonic_measure_normalization_and_additivity():
    gs = G.golden_square()
    centroid = G.polygon_vertices(gs).mean(axis=0)
    mesh = F.triangulate(gs, 0.05)
    total = F.harmonic_measure(gs, I2, lambda y: True, centroid, mesh=mesh)
    assert total == pytest.approx(1.0, abs=1e-8)
    f0 = G.faces(gs)[0]
    on_face = lambda y: abs(float(f0.normal @ y) - f0.offset) <= 1e-10
    wS = F.harmonic_measure(gs, I2, on_face, centroid, mesh=mesh)
    wC = F.harmonic_measure(gs, I2, lambda y: not on_face(y), centroid, mesh=mesh)
    assert wS + wC == pytest.approx(1.0, abs=1e-8)
    assert 0.0 < wS < 1.0


def test_strip_harmonic_measure_is_bounded():
    # the strip bound omega <= C rho / d(x): ratios stay bounded; at convex
    # corners the kernel density vanishes so the ratios in fact decrease
    gs = G.golden_square()
    centroid = G.polygon_vertices(gs).mean(axis=0)
    f0 = G.faces(gs)[0]
    dx = G.distance_to_boundary(gs, centroid)
    ratios = []
    for rho in (0.04, 0.02, 0.01):
        mesh = F.triangulate(gs, 0.08, grading=1.0, grading_centers=f0.vertices,
                             min_edge=2e-4)
        pred = lambda y: (abs(float(f0.normal @ y) - f0.offset) <= 1e-10
                          and G.face_strip_membership(f0, rho, y))
        w = F.harmonic_measure(gs, I2, pred, centroid, mesh=mesh)
        assert dx >= 2 * rho
        ratios.append(w * dx / rho)
    assert max(ratios) < 1.0
    assert ratios[0] >= ratios[1] >= ratios[2]


def test_kernel_bound_probe_stable_under_arc_refinement():
    sq = G.unit_square()
    x = np.array([0.5, 0.5])
    r16 = F.kernel_bound_probe(sq, I2, x, arcs_per_face=16)
    r32 = F.kernel_bound_probe(sq, I2, x, arcs_per_face=32)
    assert np.isfinite(r16["max_ratio"]) and np.isfinite(r32["max_ratio"])
    assert r32["max_ratio"] == pytest.approx(r16["max_ratio"], rel=0.25)


def test_kernel_bound_probe_reports_its_solve():
    kb = F.kernel_bound_probe(G.unit_square(), I2, np.array([0.3, 0.6]), arcs_per_face=8)
    assert kb["iterations"] >= 1
    assert kb["residual"] <= 1e-10


def test_kernel_bound_probe_operator_dependence():
    sq = G.unit_square()
    x = np.array([0.5, 0.5])
    rI = F.kernel_bound_probe(sq, I2, x, arcs_per_face=16)
    rD = F.kernel_bound_probe(sq, F.CoefficientField.constant([[2.0, 0.0], [0.0, 1.0]]),
                              x, arcs_per_face=16)
    assert np.isfinite(rD["max_ratio"])
    assert rD["max_ratio"] != pytest.approx(rI["max_ratio"], rel=1e-3)


def test_opposite_face_measure_shrinks_with_distance():
    # the d(x) factor: harmonic measure of a far arc decays as x approaches
    # the opposite boundary face
    sq = G.unit_square()
    f2 = [f for f in G.faces(sq) if f.index == 2][0]  # the x1 = 1 face
    arc = lambda y: (abs(float(f2.normal @ y) - f2.offset) <= 1e-10
                     and 0.4 <= y[1] <= 0.6)
    mesh = F.triangulate(sq, 0.02)
    vals = [F.harmonic_measure(sq, I2, arc, np.array([d, 0.5]), mesh=mesh)
            for d in (0.5, 0.25, 0.125, 0.0625)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_corner_probe_square_angle():
    r = F.corner_probe(np.pi / 2, h=0.06, grading=1.0)
    assert r["fitted_exponent"] == pytest.approx(2.0, rel=0.05)


def test_corner_probe_rejects_nonconvex_sector():
    with pytest.raises(ValidationError):
        F.corner_probe(3.5)


def test_gradient_probe_square_corner():
    samples = F.gradient_probe(G.unit_square(), I2,
                               lambda pts: 2 * pts[:, 0] * pts[:, 1],
                               corner=(0.0, 0.0), direction=(1.0, 1.0), h=0.05)
    ds = np.array([s[0] for s in samples])
    gs_ = np.array([s[1] for s in samples])
    slope = np.polyfit(np.log(ds), np.log(gs_), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_gradient_probe_constant_data():
    samples = F.gradient_probe(G.unit_square(), I2,
                               lambda pts: np.full(len(pts), 4.0),
                               corner=(0.0, 0.0), direction=(1.0, 1.0), h=0.1)
    # solver-tolerance noise divided by the graded local edge length
    assert max(s[1] for s in samples) < 1e-5


def test_solution_csv(tmp_path):
    sq = G.unit_square()
    prob = F.DirichletProblem(polygon=sq, coefficients=I2,
                              explicit_data=lambda pts: pts[:, 0])
    sol = F.solve_dirichlet(prob, F.triangulate(sq, 0.5))
    path = tmp_path / "sol.csv"
    F.write_solution_csv(path, sol)
    lines = path.read_text().splitlines()
    assert lines[0] == "vertex,x,y,value"
    assert len(lines) == 1 + len(sol.mesh.vertices)
