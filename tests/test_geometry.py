import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from polyhom import fem as F
from polyhom import geometry as G
from polyhom.errors import (
    BadNormal,
    BudgetExceeded,
    DegenerateFaceWarning,
    DuplicateHalfSpace,
    EmptyInterior,
    OffHyperplane,
    OutsideDomain,
    RenormalizedNormalWarning,
    Unbounded,
    UnsupportedDimension,
    ValidationError,
    ZeroNormalComponent,
)
from conftest import random_convex_polygon, random_convex_polytope_3d

PHI = G.GOLDEN_RATIO
SQRT2 = np.sqrt(2.0)


# -- construction -------------------------------------------------------------

def test_unit_square_builds():
    sq = G.unit_square()
    assert sq.dim == 2 and len(sq.halfspaces) == 4
    assert G.distance_to_boundary(sq, sq.interior_point) == 0.5


def test_open_cone_is_unbounded():
    hs = [G.HalfSpace(np.array([1.0, 0.0]), 0.0), G.HalfSpace(np.array([0.0, 1.0]), 0.0)]
    with pytest.raises(Unbounded):
        G.build_polytope(hs)


def test_rotated_golden_square_vertices():
    # oracle: rotate the unit-square corners directly and compare with the
    # vertex enumeration of the half-space intersection
    theta = np.arctan(PHI)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    expected = (R @ np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float).T).T
    sq = G.golden_square()
    got = G.polygon_vertices(sq)
    assert len(got) == 4
    for v in expected:
        assert min(np.linalg.norm(got - v, axis=1)) < 1e-10


def test_bad_normal_rejected():
    with pytest.raises(BadNormal):
        G.HalfSpace(np.array([1.0, 1.0]), 0.0)


def test_empty_interior_rejected():
    hs = [G.HalfSpace(np.array([1.0, 0.0]), 0.0), G.HalfSpace(np.array([-1.0, 0.0]), 0.0),
          G.HalfSpace(np.array([0.0, 1.0]), 0.0), G.HalfSpace(np.array([0.0, -1.0]), -1.0)]
    with pytest.raises(EmptyInterior):
        G.build_polytope(hs)


def test_duplicate_halfspace_rejected():
    hs = list(G.unit_square().halfspaces) + [G.HalfSpace(np.array([1.0, 0.0]), 0.0)]
    with pytest.raises(DuplicateHalfSpace):
        G.build_polytope(hs)
    # non-adjacent duplicates (1, 7) and (4, 6), the second within tolerance:
    # the first pair in i-major order is named
    hex_hs = G.regular_hexagon().halfspaces
    hs = list(hex_hs) + [G.HalfSpace(hex_hs[4].normal, hex_hs[4].offset + 5e-11), hex_hs[1]]
    with pytest.raises(DuplicateHalfSpace, match=r"^half-spaces 1 and 7 coincide within tolerance$"):
        G.build_polytope(hs)


def _first_duplicate_loop(hs):
    """The pairwise scan build_polytope replaced: first (i, j), i-major."""
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            if (np.max(np.abs(hs[i].normal - hs[j].normal)) <= G.GEOM_TOL
                    and abs(hs[i].offset - hs[j].offset) <= G.GEOM_TOL):
                return f"half-spaces {i} and {j} coincide within tolerance"
    return None


@pytest.mark.parametrize("seed", range(20))
def test_duplicate_halfspace_matches_pairwise_scan(seed):
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    hs = []
    for _ in range(rng.integers(3, 12)):
        nu = rng.standard_normal(d)
        hs.append(G.HalfSpace(nu / np.linalg.norm(nu), float(rng.uniform(-1.0, 0.0))))
    for _ in range(rng.integers(0, 4)):  # copies at random places, some nudged within tolerance
        h = hs[rng.integers(len(hs))]
        nudge = rng.choice([0.0, 0.5 * G.GEOM_TOL, 2.0 * G.GEOM_TOL])
        hs.insert(int(rng.integers(len(hs) + 1)), G.HalfSpace(h.normal, h.offset + nudge))
    expected = _first_duplicate_loop(hs)
    try:
        G.build_polytope(hs)
    except DuplicateHalfSpace as exc:
        assert str(exc) == expected
    except ValidationError:  # an unbounded or empty draw passed the duplicate check
        assert expected is None
    else:
        assert expected is None


def _lp_certify(hs):
    """Reference certification by linear programming: a Chebyshev-style LP
    for a strictly interior point, then min/max LPs per coordinate inside the
    box |x_i| <= 1e4, an optimum on the box meaning unbounded (HiGHS reports
    some unbounded coordinate LPs as infeasible). Returns the error class
    build_polytope should raise, or the bbox."""
    from scipy.optimize import linprog  # test-only oracle

    N = np.array([h.normal for h in hs])
    c = np.array([h.offset for h in hs])
    n, d = N.shape
    res = linprog(np.r_[np.zeros(d), -1.0], A_ub=np.hstack([-N, np.ones((n, 1))]), b_ub=-c,
                  bounds=[(None, None)] * d + [(None, 1.0)], method="highs")
    if res.status != 0 or res.x[-1] <= G.GEOM_TOL:
        return EmptyInterior
    bbox = np.empty((d, 2))
    for i in range(d):
        for sign, col in ((1.0, 0), (-1.0, 1)):
            r = linprog(sign * np.eye(d)[i], A_ub=-N, b_ub=-c, bounds=[(-1e4, 1e4)] * d,
                        method="highs")
            assert r.status == 0
            if abs(r.fun) >= 1e4 - 1.0:
                return Unbounded
            bbox[i, col] = sign * r.fun
    return bbox


def _unit(rng, d, k=None):
    v = rng.standard_normal((k or 1, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v if k else v[0]


def _random_system(rng, d, kind):
    """Half-spaces of one kind: random (bounded or not), a cone, a strip,
    normals spanning fewer than d dimensions, or an empty or flat set."""
    if kind == "random":  # the origin is inside; bounded iff the normals positively span
        return [(nu, -rng.uniform(0.2, 1.0)) for nu in _unit(rng, d, int(rng.integers(d + 1, 9)))]
    if kind == "cone":
        apex = rng.uniform(-1.0, 1.0, d)
        return [(nu, float(nu @ apex)) for nu in _unit(rng, d, d)]
    if kind == "strip":  # two parallel planes plus planes that leave one side open
        nu = _unit(rng, d)
        extra = [v if v @ nu > 0.3 else -v for v in _unit(rng, d, d - 1)]
        return [(nu, -0.5), (-nu, -0.5)] + [(v, -rng.uniform(0.2, 1.0)) for v in extra]
    if kind == "low_rank":  # every normal in one (d-1)-dimensional subspace
        basis = _unit(rng, d, d - 1)
        nus = rng.standard_normal((int(rng.integers(d, 7)), d - 1)) @ basis
        hs = [(nu / np.linalg.norm(nu), -rng.uniform(0.2, 1.0)) for nu in nus]
        if rng.random() < 0.5:  # nu_0 . x <= c_0 - delta: empty
            hs += [(-hs[0][0], -hs[0][1] + rng.uniform(0.1, 0.5))]
        return hs
    # "empty" or "flat": nu . x >= 0.1 and nu . x <= 0.1 - gap, with gap > 0 or 0
    hs = [(nu, -rng.uniform(0.2, 1.0)) for nu in _unit(rng, d, int(rng.integers(1, 12)))]
    nu = _unit(rng, d)
    gap = rng.uniform(0.01, 0.5) if kind == "empty" else 0.0
    return hs + [(nu, 0.1), (-nu, gap - 0.1)]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["random", "cone", "strip", "low_rank", "empty", "flat"])
def test_certification_matches_linear_programming(d, kind):
    rng = np.random.default_rng(1600 + 10 * d + len(kind))
    for _ in range(25):
        hs = [G.HalfSpace(nu, float(c)) for nu, c in _random_system(rng, d, kind)]
        expected = _lp_certify(hs)
        if isinstance(expected, type):
            with pytest.raises(expected):
                G.build_polytope(hs)
            continue
        poly = G.build_polytope(hs)
        np.testing.assert_allclose(poly.bbox, expected, rtol=0.0, atol=1e-9)
        assert G.distance_to_boundary(poly, poly.interior_point) > G.GEOM_TOL
        assert np.abs(poly.interior_point - poly.vertices.mean(axis=0)).max() == 0.0
        assert (poly.vertices @ poly.normals.T - poly.offsets).min() >= -1e-9


@pytest.mark.parametrize("kind,d", [("random", 2), ("random", 3), ("cone", 2), ("cone", 3),
                                    ("strip", 2), ("strip", 3), ("low_rank", 2), ("low_rank", 3),
                                    ("empty", 2), ("empty", 3), ("flat", 2), ("flat", 3)])
def test_certification_draws_cover_every_outcome(kind, d):
    # the draws compared above meet each outcome their kind is meant for
    rng = np.random.default_rng(1600 + 10 * d + len(kind))
    outcomes = set()
    for _ in range(25):
        got = _lp_certify([G.HalfSpace(nu, float(c)) for nu, c in _random_system(rng, d, kind)])
        outcomes.add(got if isinstance(got, type) else "bounded")
    assert outcomes == {"random": {"bounded", Unbounded}, "cone": {Unbounded},
                        "strip": {Unbounded}, "low_rank": {Unbounded, EmptyInterior},
                        "empty": {EmptyInterior}, "flat": {EmptyInterior}}[kind]


def test_vertices_match_the_convex_hull():
    rng = np.random.default_rng(1603)
    for _ in range(10):
        pts = rng.standard_normal((12, 3)) * rng.uniform(0.7, 1.0, size=(12, 1))
        hull = ConvexHull(pts)
        poly = G.build_polytope([G.HalfSpace(-eq[:3] / np.linalg.norm(eq[:3]), float(eq[3]))
                                 for eq in hull.equations])
        corners = pts[hull.vertices]
        assert len(poly.vertices) == len(corners)
        for v in poly.vertices:
            assert np.linalg.norm(corners - v, axis=1).min() <= 1e-9


def test_vertex_budget_raises_before_solving(monkeypatch):
    def solve_nothing(*args):
        raise AssertionError("the over-budget system was enumerated")

    monkeypatch.setattr(G, "_vertices", solve_nothing)
    for d, n in ((2, 708), (3, 116)):  # C(707, 2) and C(115, 3) fit in the budget
        assert math.comb(n - 1, d) <= G._VERTEX_BUDGET < math.comb(n, d)
        hs = [G.HalfSpace(nu, -1.0) for nu in _unit(np.random.default_rng(d), d, n)]
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="plane subsets"):
                G.build_polytope(hs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000


def test_import_leaves_scipy_optimize_unloaded():
    # certification solves no LP; importing scipy.optimize roughly doubled
    # the package's start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(G.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, polyhom; print([m for m in sys.modules if m.startswith('scipy.optimize')])"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout.strip() == "[]"


def test_json_roundtrip_and_renormalization_warning(tmp_path):
    sq = G.golden_square()
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(G.polytope_to_dict(sq)))
    back = G.load_polytope(path)
    assert np.allclose(back.normals, sq.normals)
    doc = G.polytope_to_dict(sq)
    doc["halfspaces"][0]["normal"] = [2.0, 0.0]
    with pytest.warns(RenormalizedNormalWarning):
        G.load_polytope(doc)


# -- faces --------------------------------------------------------------------

def test_square_faces_are_unit_segments():
    fs = G.faces(G.unit_square())
    assert len(fs) == 4
    for f in fs:
        assert f.measure == pytest.approx(1.0, abs=1e-12)


def test_hexagon_faces_match_unit_circle_construction():
    # oracle: vertices of the regular hexagon lie at angles k*pi/3 on the
    # unit circle, so each face is the chord between consecutive ones
    fs = G.faces(G.regular_hexagon())
    assert len(fs) == 6
    verts = np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)] for k in range(6)])
    for f in fs:
        assert f.measure == pytest.approx(1.0, abs=1e-12)
        for v in f.vertices:
            assert min(np.linalg.norm(verts - v, axis=1)) < 1e-10


def test_redundant_tangent_halfspace_warns_and_is_dropped():
    nu = np.array([1.0, 1.0]) / SQRT2
    hs = list(G.unit_square().halfspaces) + [G.HalfSpace(-nu, float(-nu @ [1.0, 1.0]))]
    poly = G.build_polytope(hs)
    with pytest.warns(DegenerateFaceWarning):
        fs = G.faces(poly)
    assert len(fs) == 4


def test_degenerate_face_warning_fires_on_the_first_call_only():
    nu = np.array([1.0, 1.0]) / SQRT2
    hs = list(G.unit_square().halfspaces) + [G.HalfSpace(-nu, float(-nu @ [1.0, 1.0]))]
    poly = G.build_polytope(hs)
    with pytest.warns(DegenerateFaceWarning):
        first = G.faces(poly)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = G.faces(poly)
    assert again is first and caught == []


def test_halfspace_along_two_polygon_sides_is_refused():
    # tilted by 5e-10 about (0.5, 0): not a duplicate of the bottom side, but
    # (0.5, 0) joins the vertex cycle and both halves of the side lie on y = 0
    nu = np.array([np.sin(5e-10), np.cos(5e-10)])
    poly = G.build_polytope(list(G.unit_square().halfspaces) + [G.HalfSpace(nu, 0.5 * nu[0])])
    assert len(G.polygon_vertices(poly)) == 5
    with pytest.raises(ValidationError, match="two polygon sides"):
        G.faces(poly)


@pytest.mark.parametrize("make,site,computed", [
    (G.golden_square, "polygon_vertices", 1),
    (G.unit_cube, "_face_polygon_3d", 6),
])
def test_faces_are_computed_once_per_polytope(make, site, computed, monkeypatch):
    poly = make()
    calls = []
    inner = getattr(G, site)
    monkeypatch.setattr(G, site, lambda *a: calls.append(a) or inner(*a))
    fs = G.faces(poly)
    assert isinstance(fs, tuple) and len(calls) == computed
    assert G.faces(poly) is fs and poly.faces is fs
    # the other face consumers read the kept faces too
    G.distance_to_singular(poly, poly.interior_point)
    G.max_adjacent_angle(poly)
    assert len(calls) == computed
    assert G.faces(make()) is not fs and len(calls) == 2 * computed  # a new polytope computes afresh


def test_polygon_vertex_cycle_is_kept_read_only():
    poly = F.sector_polygon(2.0 * np.pi / 3.0)
    cycle = G.polygon_vertices(poly)
    assert G.polygon_vertices(poly) is cycle and G.polygon_sides(poly)[0] is cycle
    assert not cycle.flags.writeable and len(cycle) == 66
    with pytest.raises(ValueError):
        cycle[0, 0] = 1.0


def test_faces_ccw_orientation():
    for f in G.faces(G.unit_square()):
        a, b = f.vertices
        t = np.array([f.normal[1], -f.normal[0]])
        assert float(t @ (b - a)) > 0


def test_general_dimension_faces_by_active_constraints():
    # faces exist for d = 2, 3 only; the polytope itself still works in d = 4
    hs = []
    for i in range(4):
        lo = np.zeros(4)
        lo[i] = 1.0
        hs.append(G.HalfSpace(lo, 0.0))
        hs.append(G.HalfSpace(-lo, -1.0))
    hypercube = G.build_polytope(hs)
    with pytest.raises(UnsupportedDimension):
        G.faces(hypercube)
    assert G.distance_to_boundary(hypercube, [0.5, 0.5, 0.5, 0.1]) == pytest.approx(0.1, abs=1e-12)
    assert G.diophantine_check(hypercube.halfspaces[0].normal, 1.0, 3).c_lower == 0.0


def _faces_by_vertex_filter(poly):
    """Reference d = 2 faces by the earlier rule: the cycle vertices within
    1e-9 of each line, sorted along it, first and last."""
    out = []
    for j, h in enumerate(poly.halfspaces):
        on = [v for v in G.polygon_vertices(poly) if abs(float(h.normal @ v) - h.offset) <= 1e-9]
        if len(on) < 2:
            continue
        t = np.array([h.normal[1], -h.normal[0]])
        on.sort(key=lambda v: float(t @ v))
        if np.linalg.norm(on[-1] - on[0]) > 1e-9:
            out.append((j, np.array([on[0], on[-1]]).tobytes()))
    return out


def _adjacent_pairs_two_loops(poly):
    """Reference adjacency by the earlier per-dimension loops."""
    fs = G.faces(poly)
    pairs = []
    for a in range(len(fs)):
        for b in range(a + 1, len(fs)):
            va, vb = fs[a].vertices, fs[b].vertices
            if poly.dim == 2:
                adjacent = min(np.linalg.norm(p - q) for p in va for q in vb) <= 1e-9
            else:
                adjacent = sum(1 for p in va if min(np.linalg.norm(p - q) for q in vb) <= 1e-9) >= 2
            if adjacent:
                pairs.append((fs[a].index, fs[b].index))
    return pairs


def _oracle_polygons():
    rng = np.random.default_rng(1501)
    polys = [random_convex_polygon(rng, int(rng.integers(4, 30))) for _ in range(40)]
    return polys + [G.unit_square(), G.golden_square(), G.regular_hexagon(),
                    F.sector_polygon(2.0 * np.pi / 3.0), F.sector_polygon(0.9 * np.pi)]


def test_polygon_faces_match_vertex_filter_rule():
    for poly in _oracle_polygons():
        assert [(f.index, f.vertices.tobytes()) for f in G.faces(poly)] == _faces_by_vertex_filter(poly)


def _polygon_vertices_by_pairs(poly):
    """Reference vertex cycle by the earlier per-call rule: every pair of
    lines solved, feasible points deduplicated in order, sorted by angle."""
    N, c = poly.normals, poly.offsets
    pts = []
    for i, j in itertools.combinations(range(len(N)), 2):
        A = np.array([N[i], N[j]])
        if abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) > 1e-12:
            p = np.linalg.solve(A[None], np.array([[[c[i]], [c[j]]]]))[0, :, 0]
            if (N @ p - c).min() >= -1e-9 and all(np.linalg.norm(p - q) > 1e-9 for q in pts):
                pts.append(p)
    pts = np.array(pts)
    x = poly.interior_point
    return pts[np.argsort(np.arctan2(pts[:, 1] - x[1], pts[:, 0] - x[0]))]


def test_polygon_vertices_match_pairwise_rule():
    for poly in _oracle_polygons():
        assert G.polygon_vertices(poly).tobytes() == _polygon_vertices_by_pairs(poly).tobytes()


def _face_polygon_by_clipping(poly, k):
    """Reference 3-D face by the earlier rule: a large square on plane k
    clipped by every other half-space (Sutherland-Hodgman)."""
    h = poly.halfspaces[k]
    a = np.zeros(3)
    a[int(np.argmin(np.abs(h.normal)))] = 1.0
    e1 = np.cross(h.normal, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(h.normal, e1)
    p0 = h.offset * h.normal
    R = poly.diameter + np.linalg.norm(p0 - poly.interior_point) + 1.0
    pts = [np.array(u, dtype=float) for u in ((-R, -R), (R, -R), (R, R), (-R, R))]
    for j, g in enumerate(poly.halfspaces):
        if j != k:
            pts = G._clip_halfplane(pts, -np.array([g.normal @ e1, g.normal @ e2]),
                                    float(g.normal @ p0) - g.offset)
    return p0 + np.array(pts) @ np.array([e1, e2]) if len(pts) >= 3 else None


def test_3d_faces_match_clipping_rule_up_to_roundoff():
    rng = np.random.default_rng(1604)
    polys = [random_convex_polytope_3d(rng, int(rng.integers(5, 20))) for _ in range(15)]
    for poly in polys + [G.unit_cube()]:
        fs = G.faces(poly)
        assert len(fs) == len(poly.halfspaces)
        for f in fs:
            ref = _face_polygon_by_clipping(poly, f.index)
            # the same cycle, from another start vertex
            start = int(np.argmin(np.linalg.norm(ref - f.vertices[0], axis=1)))
            np.testing.assert_allclose(np.roll(ref, -start, axis=0), f.vertices, rtol=0, atol=1e-12)


def test_adjacent_pairs_match_two_loop_rule():
    rng = np.random.default_rng(1502)
    polys = _oracle_polygons() + [random_convex_polytope_3d(rng, int(rng.integers(5, 20)))
                                  for _ in range(15)] + [G.unit_cube()]
    for poly in polys:
        adjacency = G._adjacent_pairs(poly)
        assert [(i, j) for i, j, _ in adjacency] == _adjacent_pairs_two_loops(poly)
        for i, j, shared in adjacency:
            assert len(shared) == poly.dim - 1
            for h in (poly.halfspaces[i], poly.halfspaces[j]):
                assert np.abs(shared @ h.normal - h.offset).max() <= 1e-9


@pytest.mark.parametrize("seed,n_points", [(1280, 15), *((s, 6 + s % 14) for s in range(12))])
def test_polytope_edges_satisfy_euler(seed, n_points):
    # V - E + F = 2; at seed 1280 the two faces of one edge hold its endpoints
    # on either side of a 9th-decimal rounding boundary
    poly = random_convex_polytope_3d(np.random.default_rng(seed), n_points)
    fs = G.faces(poly)
    verts = []
    for v in np.concatenate([f.vertices for f in fs]):
        if not any(np.linalg.norm(v - w) <= 1e-9 for w in verts):
            verts.append(v)
    edges = G.polytope_edges(poly)
    assert len(verts) - len(edges) + len(fs) == 2
    if all(len(f.vertices) == 3 for f in fs):
        assert 2 * len(edges) == 3 * len(fs)


# -- distances ----------------------------------------------------------------

def test_distance_to_boundary_square():
    sq = G.unit_square()
    assert G.distance_to_boundary(sq, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)
    assert G.distance_to_boundary(sq, [0.1, 0.5]) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(OutsideDomain):
        G.distance_to_boundary(sq, [1.2, 0.5])


def test_distance_to_boundary_matches_dense_sampling(rng):
    # oracle: min distance to a dense sample of boundary points
    hexp = G.regular_hexagon()
    fs = G.faces(hexp)
    ts = np.linspace(0.0, 1.0, 20001)[:, None]
    samples = np.concatenate([f.vertices[0] * (1 - ts) + f.vertices[1] * ts for f in fs])
    for _ in range(20):
        x = rng.uniform(-0.4, 0.4, size=2)
        if not hexp.contains(x):
            continue
        brute = np.min(np.linalg.norm(samples - x, axis=1))
        assert G.distance_to_boundary(hexp, x) == pytest.approx(brute, abs=1e-9)


def test_distance_to_singular():
    sq = G.unit_square()
    assert G.distance_to_singular(sq, [0.5, 0.5]) == pytest.approx(SQRT2 / 2, abs=1e-12)
    assert G.distance_to_singular(sq, [0.1, 0.1]) == pytest.approx(SQRT2 * 0.1, abs=1e-12)


def test_distance_to_singular_polygon_matches_vertex_oracle():
    rng = np.random.default_rng(3)
    polys = [random_convex_polygon(rng) for _ in range(20)] + [G.regular_hexagon()]
    for poly in polys:
        verts = G.polygon_vertices(poly)
        for x in [poly.interior_point, *(0.5 * (poly.interior_point + v) for v in verts)]:
            expected = float(np.min(np.linalg.norm(verts - x, axis=1)))
            assert G.distance_to_singular(poly, x) == expected


def test_distance_to_singular_cube_frozen_from_edge_oracle():
    # brute force over the 12 closed edges gives sqrt(0.5^2 + 0.1^2)
    cube = G.unit_cube()
    x = np.array([0.5, 0.5, 0.1])
    edges = G.polytope_edges(cube)
    assert len(edges) == 12
    ts = np.linspace(0.0, 1.0, 4001)[:, None]
    brute = min(np.min(np.linalg.norm(a * (1 - ts) + b * ts - x, axis=1)) for a, b in edges)
    expected = np.sqrt(0.26)
    assert brute == pytest.approx(expected, abs=1e-7)
    assert G.distance_to_singular(cube, x) == pytest.approx(expected, abs=1e-12)


def _point_segment_distance(p, a, b) -> float:
    """The scalar project-and-clip rule ``_segment_distances`` replaced, kept as a reference."""
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


@pytest.mark.parametrize("d", [2, 3])
def test_segment_distances_match_scalar_rule(d):
    # x projects before, inside and past the segments, at parameter s
    rng = np.random.default_rng(1800 + d)
    x = rng.uniform(-1.0, 1.0, d)
    ab = rng.uniform(-1.0, 1.0, (300, d))
    s = np.concatenate([rng.uniform(-2.0, 0.0, 100), rng.uniform(0.0, 1.0, 100),
                        rng.uniform(1.0, 3.0, 100)])
    off = rng.uniform(-1.0, 1.0, (300, d))
    off -= (np.sum(off * ab, axis=1) / np.sum(ab * ab, axis=1))[:, None] * ab
    a = x - s[:, None] * ab + off
    got = G._segment_distances(x, a, a + ab)
    want = [_point_segment_distance(x, p, p + q) for p, q in zip(a, ab)]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


def test_3d_distances_match_scalar_rule():
    rng = np.random.default_rng(1805)
    polys = [G.unit_cube()] + [random_convex_polytope_3d(rng, int(rng.integers(5, 20)))
                               for _ in range(10)]
    for poly in polys:
        edges = G.polytope_edges(poly)
        c = poly.interior_point
        for x in [c, *(0.5 * (c + v) for v in poly.vertices)]:
            want = min(_point_segment_distance(x, a, b) for a, b in edges)
            assert abs(G.distance_to_singular(poly, x) - want) <= 1e-15
        for f in G.faces(poly):
            v = f.vertices
            m = v.mean(axis=0)
            for y in [m, *(0.5 * (m + w) for w in v)]:
                want = min(_point_segment_distance(y, v[i], v[(i + 1) % len(v)])
                           for i in range(len(v)))
                assert abs(f.dist_to_relative_boundary(y) - want) <= 1e-15


def test_distance_to_singular_unsupported_dimension():
    hs = []
    for i in range(4):
        lo = np.zeros(4)
        lo[i] = 1.0
        hs.append(G.HalfSpace(lo, 0.0))
        hs.append(G.HalfSpace(-lo, -1.0))
    with pytest.raises(UnsupportedDimension):
        G.distance_to_singular(G.build_polytope(hs), [0.5] * 4)


# -- angles -------------------------------------------------------------------

def test_max_adjacent_angle_square():
    r = G.max_adjacent_angle(G.unit_square())
    assert r["omega_max"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert r["alpha_star"] == pytest.approx(1.0, abs=1e-12)


def test_max_adjacent_angle_hexagon():
    r = G.max_adjacent_angle(G.regular_hexagon())
    assert r["omega_max"] == pytest.approx(2 * np.pi / 3, abs=1e-12)
    assert r["alpha_star"] == pytest.approx(0.5, abs=1e-12)


def test_max_adjacent_angle_rotation_invariant(rng):
    base = G.max_adjacent_angle(G.unit_square())["omega_max"]
    assert G.max_adjacent_angle(G.golden_square())["omega_max"] == pytest.approx(base, abs=1e-12)
    # random rigid motion of the hexagon
    a = rng.uniform(0, 2 * np.pi)
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    t = rng.uniform(-1, 1, size=2)
    hs = [G.HalfSpace(R @ h.normal, h.offset + float((R @ h.normal) @ t))
          for h in G.regular_hexagon().halfspaces]
    moved = G.build_polytope(hs)
    ref = G.max_adjacent_angle(G.regular_hexagon())["omega_max"]
    assert G.max_adjacent_angle(moved)["omega_max"] == pytest.approx(ref, abs=1e-12)


# -- Diophantine certification --------------------------------------------------

def test_diophantine_rational_axis():
    cert = G.diophantine_check(np.array([1.0, 0.0]), tau=1.0, bound=1)
    assert cert.c_lower == 0.0
    assert cert.worst_m == (0, -1)


def test_diophantine_diagonal():
    cert = G.diophantine_check(np.array([1.0, 1.0]) / SQRT2, tau=1.0, bound=2)
    assert cert.c_lower == 0.0
    assert cert.worst_m == (-1, 1)


def test_diophantine_golden_direction():
    nu = np.array([1.0, PHI]) / np.sqrt(1 + PHI**2)
    # independent oracle: plain nested loops at a small bound
    best = min(abs(m1 * nu[0] + m2 * nu[1]) * (abs(m1) + abs(m2))
               for m1 in range(-60, 61) for m2 in range(-60, 61)
               if 0 < abs(m1) + abs(m2) <= 60)
    cert60 = G.diophantine_check(nu, tau=1.0, bound=60)
    assert cert60.c_lower == pytest.approx(best, abs=1e-15)
    cert = G.diophantine_check(nu, tau=1.0, bound=1000)
    assert cert.c_lower > 0.2
    # frozen from the search: the minimum is 1/sqrt(1 + phi^2), attained at (1, 0)
    assert cert.c_lower == pytest.approx(0.5257311121191336, abs=1e-12)
    assert cert.c_lower == pytest.approx(G.diophantine_check(nu, 1.0, 2000).c_lower, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 3.0), st.integers(2, 30), st.integers(0, 10**6))
def test_diophantine_monotone_in_bound(tau, bound, seed):
    rng = np.random.default_rng(seed)
    nu = rng.standard_normal(2)
    nu /= np.linalg.norm(nu)
    small = G.diophantine_check(nu, tau, bound)
    large = G.diophantine_check(nu, tau, bound + rng.integers(1, 20))
    assert large.c_lower <= small.c_lower + 1e-15


def _full_ball(d, bound):
    """Every m != 0 with |m|_1 <= bound, in lexicographic order."""
    return np.array([m for m in itertools.product(range(-bound, bound + 1), repeat=d)
                     if 0 < sum(map(abs, m)) <= bound], dtype=float).reshape(-1, d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_diophantine_matches_full_ball_oracle(data):
    d = data.draw(st.integers(1, 4))
    bound = data.draw(st.integers(1, {1: 40, 2: 12, 3: 6, 4: 4}[d]))
    tau = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    if data.draw(st.booleans()):   # rational direction
        nu = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), float)
        if not nu.any():
            nu[0] = 1.0
    else:
        nu = np.random.default_rng(data.draw(st.integers(0, 10**6))).standard_normal(d)
    nu /= np.linalg.norm(nu)
    ball = _full_ball(d, bound)
    vals = np.abs(ball @ nu) * np.abs(ball).sum(axis=1) ** tau
    first = int(np.argmin(vals))   # the lexicographically first minimiser
    cert = G.diophantine_check(nu, tau, bound)
    assert cert.c_lower == (0.0 if vals[first] <= 1e-12 else vals[first])
    assert cert.worst_m == tuple(int(v) for v in ball[first])
    assert next(v for v in cert.worst_m if v) < 0


@pytest.mark.parametrize("d,bound,block", [(1, 9, 4), (2, 5, 7), (3, 4, 13), (4, 3, 64), (3, 6, 8192),
                                           (2, 6, 1), (2, 6, 5), (3, 4, 1), (3, 5, 5),
                                           (4, 3, 1), (4, 4, 5)])
def test_half_ball_blocks_list_the_negative_half_in_order(d, bound, block):
    blocks = list(G._l1_half_ball_blocks(d, bound, block=block))
    assert all(len(m) <= block for m, _ in blocks)
    assert all(m.dtype == np.float64 and l1.dtype == np.int64 for m, l1 in blocks)
    M = np.concatenate([m for m, _ in blocks])
    if 1 < d and block in (1, 5):
        # some block starts and ends strictly inside one prefix's run: the rows
        # just before and just after it share its prefix
        starts = np.cumsum([0] + [len(m) for m, _ in blocks])
        assert any(0 < a and b < len(M) and (M[a - 1:b + 1, :-1] == M[a, :-1]).all()
                   for a, b in zip(starts[:-1], starts[1:]))
    ball = _full_ball(d, bound)
    half = ball[[next(v for v in m if v) < 0 for m in ball]]
    np.testing.assert_array_equal(M, half)
    np.testing.assert_array_equal(np.concatenate([l1 for _, l1 in blocks]), np.abs(half).sum(axis=1))
    assert len(M) == G._half_ball_size(d, bound)


def test_diophantine_search_memory_is_bounded():
    nu = np.array([1.0, 2.0 ** 0.5, 3.0 ** 0.5]) / 6.0 ** 0.5
    G.diophantine_check(nu, 2.0, 60)
    tracemalloc.start()
    try:
        G.diophantine_check(nu, 2.0, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3e6


@pytest.mark.parametrize("d,bound", [(2, 4472), (3, 311), (4, 88), (3, 10**9)])
def test_diophantine_over_budget_raises_before_enumerating(d, bound, monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the over-budget search was enumerated")

    monkeypatch.setattr(G, "_l1_half_ball_blocks", enumerate_nothing)
    nu = np.ones(d) / np.sqrt(d)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="lattice search too large"):
            G.diophantine_check(nu, 1.0, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_diophantine_largest_bound_within_budget_is_searched():
    for d, largest in ((2, 4471), (3, 310), (4, 87)):
        assert G._half_ball_size(d, largest) <= 20_000_000 < G._half_ball_size(d, largest + 1)
    assert G.diophantine_check(np.array([0.6, 0.8]), 1.0, 4471).c_lower == 0.0


@pytest.mark.parametrize("nu", [[np.nan, 1.0], [np.inf, 0.0], [0.0, 0.0], [[0.6, 0.8]]])
def test_diophantine_rejects_bad_normal(nu):
    with pytest.raises(BadNormal):
        G.diophantine_check(np.array(nu), 1.0, 10)


@pytest.mark.parametrize("tau,bound", [(np.nan, 10), (np.inf, 10), (0.0, 10), (-1.0, 10),
                                       (1.0, 2.5), (1.0, 0), (1.0, "10"), (2000.0, 2),
                                       (1100.0, 10)])
def test_diophantine_rejects_bad_tau_or_bound(tau, bound):
    with pytest.raises(ValidationError):
        G.diophantine_check(np.array([0.6, 0.8]), tau, bound)


# -- strips --------------------------------------------------------------------

def _face_by_index(poly, idx):
    return [f for f in G.faces(poly) if f.index == idx][0]


def test_face_strip_membership_square_top():
    top = _face_by_index(G.unit_square(), 3)  # the y = 1 face
    assert G.face_strip_membership(top, 0.1, [0.05, 1.0]) is True
    assert G.face_strip_membership(top, 0.1, [0.5, 1.0]) is False
    with pytest.raises(OffHyperplane):
        G.face_strip_membership(top, 0.1, [0.5, 0.5])


def test_face_strip_membership_hexagon_arclength():
    f = G.faces(G.regular_hexagon())[0]
    a, b = f.vertices
    y = a + 0.005 * (b - a)  # relative arclength 0.005 from an endpoint
    assert G.face_strip_membership(f, 0.01, y) is True
    assert G.face_strip_membership(f, 0.001, y) is False


# -- lattice partition ----------------------------------------------------------

def _diag_face():
    return G.Face(index=0, normal=np.array([-1.0, 1.0]) / SQRT2, offset=0.0, dim=2,
                  vertices=np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_lattice_partition_exact_quarters():
    p = G.lattice_partition(_diag_face(), 1, 0.25)
    assert p.cell_count == 4
    assert [c.lattice_index for c in p.cells] == [(0,), (1,), (2,), (3,)]
    for c in p.cells:
        assert c.measure == pytest.approx(0.25 * SQRT2, abs=1e-12)
    assert p.leftover.measure == pytest.approx(0.0, abs=1e-12)


def test_lattice_partition_exact_thirds_with_leftover():
    p = G.lattice_partition(_diag_face(), 1, 0.3)
    assert p.cell_count == 3
    assert [c.lattice_index for c in p.cells] == [(0,), (1,), (2,)]
    assert p.leftover.measure == pytest.approx(0.1 * SQRT2, abs=1e-10)
    # leftover is the lift of (0.9, 1]
    piece = p.leftover.pieces[0]
    assert piece[:, 0].min() == pytest.approx(0.9, abs=1e-12)
    assert piece[:, 0].max() == pytest.approx(1.0, abs=1e-12)


def test_lattice_partition_degenerate_rho():
    p = G.lattice_partition(_diag_face(), 1, 5.0)
    assert p.cell_count == 0
    assert p.leftover.measure == pytest.approx(_diag_face().measure, abs=1e-12)


def test_lattice_partition_zero_normal_component():
    bottom = _face_by_index(G.unit_square(), 1)  # y = 0 face, normal (0, 1)
    with pytest.raises(ZeroNormalComponent):
        G.lattice_partition(bottom, 0, 0.1)


def test_lattice_partition_cube_face():
    f = _face_by_index(G.unit_cube(), 0)
    p = G.lattice_partition(f, 0, 0.25)
    assert p.cell_count == 16
    assert p.leftover.measure == pytest.approx(0.0, abs=1e-10)


def test_lattice_partition_random_polygons_cover(rng):
    for _ in range(10):
        poly = random_convex_polygon(rng)
        for f in G.faces(poly):
            nu = f.normal
            k = int(np.argmax(np.abs(nu)))
            rho = f.measure / rng.uniform(3.0, 12.0)
            p = G.lattice_partition(f, k, rho)
            total = sum(c.measure for c in p.cells) + p.leftover.measure
            assert abs(total - f.measure) <= 1e-9 * max(1.0, f.measure)
            for c in p.cells:
                assert c.measure == pytest.approx(rho / abs(nu[k]), rel=1e-12)
                diam = np.linalg.norm(c.vertices[1] - c.vertices[0])
                assert diam <= rho / abs(nu[k]) + 1e-12


def test_lattice_partition_3d_invariants(rng):
    for _ in range(4):
        poly = random_convex_polytope_3d(rng)
        f = G.faces(poly)[0]
        nu = f.normal
        k = int(np.argmax(np.abs(nu)))
        rho = 0.08
        p = G.lattice_partition(f, k, rho)
        total = sum(c.measure for c in p.cells) + p.leftover.measure
        assert abs(total - f.measure) <= 1e-9 * max(1.0, f.measure)
        for c in p.cells:
            assert c.measure == pytest.approx(rho**2 / abs(nu[k]), rel=1e-12)
            diam = max(np.linalg.norm(c.vertices[i] - c.vertices[j])
                       for i in range(4) for j in range(i + 1, 4))
            assert diam <= np.sqrt(2.0) * rho / abs(nu[k]) + 1e-12
        # E inside the strip of width c0 * rho: check vertices and interior samples
        for piece in p.leftover.pieces:
            w = rng.dirichlet(np.ones(len(piece)), size=25)
            for y in list(piece) + list(w @ piece):
                assert f.dist_to_relative_boundary(np.asarray(y)) <= p.c0 * rho + 1e-9


def _lattice_cells_brute_force(face, axis, rho):
    """Every lattice square (segment for d = 2) whose corners all lie in the
    projected face up to 1e-12, a-major then b ascending."""
    proj = face.vertices[:, [j for j in range(face.dim) if j != axis]]
    lo, hi = np.floor(proj.min(axis=0) / rho) - 1, np.ceil(proj.max(axis=0) / rho) + 1
    if face.dim == 2:
        return [(n,) for n in range(int(lo[0]), int(hi[0]))
                if proj.min() - 1e-12 <= n * rho and (n + 1) * rho <= proj.max() + 1e-12]
    ab = np.array(list(itertools.product(range(int(lo[0]), int(hi[0])),
                                         range(int(lo[1]), int(hi[1])))))
    corners = (ab[:, None, :] + np.array([[0, 0], [1, 0], [1, 1], [0, 1]])) * rho
    e = np.roll(proj, -1, axis=0) - proj
    sign = np.sign(np.sum(proj[:, 0] * e[:, 1] - proj[:, 1] * e[:, 0]))
    rel = corners[:, :, None, :] - proj  # (square, corner, edge, xy)
    inside = sign * (e[:, 0] * rel[..., 1] - e[:, 1] * rel[..., 0])
    keep = np.all(inside >= -1e-12 * np.linalg.norm(e, axis=1), axis=(1, 2))
    return [tuple(map(int, q)) for q in ab[keep]]


def test_lattice_partition_is_maximal(rng):
    # the cells are every lattice square inside the projected face, none left out
    checked = 0
    bodies = [random_convex_polygon(rng) for _ in range(30)]
    bodies += [random_convex_polytope_3d(rng) for _ in range(12)]
    for f in [g for poly in bodies for g in G.faces(poly)]:
        for k in (k for k in range(f.dim) if abs(f.normal[k]) >= 0.05):
            for rho in (0.05, 0.11, 0.3):
                p = G.lattice_partition(f, k, rho)
                assert [c.lattice_index for c in p.cells] == _lattice_cells_brute_force(f, k, rho)
                checked += 1
    cube = G.lattice_partition(_face_by_index(G.unit_cube(), 0), 0, 0.25)
    assert [c.lattice_index for c in cube.cells] == [(a, b) for a in range(4) for b in range(4)]
    assert checked > 2000


def test_projection_distortion_inequality(rng):
    # 1000 random point pairs across random 2-D and 3-D faces
    faces_pool = []
    for _ in range(5):
        faces_pool.append(G.faces(random_convex_polygon(rng))[0])
        faces_pool.append(G.faces(random_convex_polytope_3d(rng))[0])
    pairs_done = 0
    while pairs_done < 1000:
        f = faces_pool[pairs_done % len(faces_pool)]
        if f.dim == 2:
            t = rng.uniform(0, 1, size=(2, 1))
            pts = f.vertices[0] * (1 - t) + f.vertices[1] * t
        else:
            w = rng.dirichlet(np.ones(len(f.vertices)), size=2)
            pts = w @ f.vertices
        nu = f.normal
        k = int(np.argmax(np.abs(nu)))
        x, y = pts
        proj = np.delete(x - y, k)
        full = np.linalg.norm(x - y)
        assert abs(nu[k]) * full <= np.linalg.norm(proj) + 1e-12
        assert np.linalg.norm(proj) <= full + 1e-12
        pairs_done += 1
