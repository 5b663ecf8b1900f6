import numpy as np
import pytest

from polyhom import fem as F
from polyhom import geometry as G
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
    with pytest.raises(BudgetExceeded):
        F.triangulate(G.unit_square(), 0.001, max_vertices=1000)


def test_graded_mesh_conforms_and_shrinks_near_corner():
    mesh = F.triangulate(G.unit_square(), 0.2, grading=1.0,
                         grading_centers=np.array([[0.0, 0.0]]), min_edge=1e-3)
    # triangles near the corner are much smaller than h
    pts = mesh.vertices[mesh.triangles].mean(axis=1)
    near = np.linalg.norm(pts, axis=1) < 0.02
    e = mesh.vertices[mesh.triangles]
    lens = np.linalg.norm(e[:, 1] - e[:, 0], axis=1)
    assert lens[near].max() < 0.02


def test_mesh_io_roundtrip(tmp_path):
    mesh = F.triangulate(G.regular_hexagon(), 0.4)
    path = tmp_path / "mesh.txt"
    F.write_mesh(path, mesh)
    back = F.read_mesh(path)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    assert np.allclose(back.vertices, mesh.vertices, atol=0)


def test_dmp_structure_on_fan_meshes():
    assert F.dmp_offdiagonal_max(F.triangulate(G.unit_square(), 0.1)) <= 1e-10
    assert F.dmp_offdiagonal_max(F.triangulate(G.regular_hexagon(), 0.2)) <= 1e-10


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


def test_cg_and_sparse_lu_solves_agree():
    # one or two rows go through Jacobi-CG, more share one sparse LU factor
    mesh = F.triangulate(G.regular_hexagon(), 0.1)
    A = F.CoefficientField.constant([[2.0, 0.5], [0.5, 1.0]])
    bpts = mesh.vertices[mesh.boundary_nodes]
    rows = [np.cos(3.0 * bpts[:, 0]), bpts[:, 0] * bpts[:, 1], np.full(len(bpts), -1.5)]
    cfg = F.SolverConfig(linear_tol=1e-13)
    lu_sols = F._pinned_solves(mesh, A, rows, cfg)
    for row, lu_sol in zip(rows, lu_sols):
        (cg_sol,) = F._pinned_solves(mesh, A, [row], cfg)
        assert cg_sol.iterations > 0 and lu_sol.iterations == 0
        assert np.max(np.abs(lu_sol.values - cg_sol.values)) <= 1e-8
        assert lu_sol.residual <= 1e-12
    assert any(s.residual > 0.0 for s in lu_sols)  # measured, not a hard-coded 0


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
    bad = F.CoefficientField(evaluator=lambda p: np.array([[1.0, 0.2], [0.1, 1.0]]))
    prob = F.DirichletProblem(polygon=G.unit_square(), coefficients=bad,
                              explicit_data=lambda pts: np.zeros(len(pts)))
    with pytest.raises(NonSymmetricCoefficients):
        F.solve_dirichlet(prob, F.triangulate(G.unit_square(), 0.5))


def test_coefficient_validation():
    field = F.CoefficientField.constant([[2.0, 0.0], [0.0, 1.0]])
    F.validate_coefficients(field, np.array([[0.5, 0.5], [0.1, 0.9]]))
    skewed = F.CoefficientField(evaluator=np.array([[4.0, 0.0], [0.0, 1.0]]),
                                ellipticity=2.0)
    with pytest.raises(ValidationError):
        F.validate_coefficients(skewed, np.array([[0.5, 0.5]]))


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
