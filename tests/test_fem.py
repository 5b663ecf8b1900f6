import gc
import hashlib
import math
import tracemalloc
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
    # four centers whose refinement zones meet: long closure chains
    "golden square, h=0.1, graded 1.0 toward its four vertices": (
        lambda: F.triangulate(G.golden_square(), 0.1, grading=1.0, min_edge=1e-4),
        ("8a49ac25d7bc6dbb20fc49025d026940f0a41ffa16c56b3c1178d6d296a170cf",
         "179752db5185b016068d44492f741c2d21678a9f8ed1ce9d107b91e93c441b93",
         "12872cc1c2f3c9339df2509d9499616c3e6cbebebe0fa564653d7bf5958f9859")),
}


@pytest.mark.parametrize("name", list(MESH_DIGESTS))
def test_mesh_digests_pinned(name):
    make, expected = MESH_DIGESTS[name]
    mesh = make()
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                for a in (mesh.vertices, mesh.triangles, mesh.boundary_edges))
    assert got == expected


def _bisect_marked(coords, tris, side_mid):
    """Bisect each triangle at its longest marked side, then its halves.

    ``side_mid[t, s]`` is the midpoint vertex of side s = (t[s], t[s+1]), or
    -1 when that side is unmarked. A triangle splits at its longest marked
    side (the first of equal lengths); each half has at most one marked side,
    an outer side of the parent, and splits there, after which no marked side
    is left. The output lists, triangle by triangle, the untouched triangle
    or its two to four pieces in depth-first order (first half, then second).
    Returns it with the number of output rows of every input row and the
    output rows of the pieces, ascending.
    """
    has = side_mid >= 0
    touched = has[:, 0] | has[:, 1] | has[:, 2]
    t, sm = tris[touched], side_mid[touched]
    d = np.take(coords, t, axis=0) - np.take(coords, t[:, [1, 2, 0]], axis=0)
    # np.vecdot reproduces the bits of the 1-D np.linalg.norm; axis=1 does not
    L = np.where(sm >= 0, np.sqrt(np.vecdot(d, d)), -1.0)
    s = np.argmax(L, axis=1)
    r = np.arange(len(t))
    i, j, kv = t[r, s], t[r, (s + 1) % 3], t[r, (s + 2) % 3]
    m = sm[r, s]
    m1 = sm[r, (s + 2) % 3]  # on (kv, i), the outer side of the first half (i, m, kv)
    m2 = sm[r, (s + 1) % 3]  # on (j, kv), the outer side of the second half (m, j, kv)
    cut1, cut2 = m1 >= 0, m2 >= 0
    pieces = np.stack([
        np.where(cut1[:, None], np.stack([kv, m1, m], 1), np.stack([i, m, kv], 1)),
        np.stack([m1, i, m], 1),
        np.where(cut2[:, None], np.stack([j, m2, m], 1), np.stack([m, j, kv], 1)),
        np.stack([m2, kv, m], 1)], 1)
    keep = np.column_stack([np.ones_like(cut1), cut1, np.ones_like(cut2), cut2])

    # untouched triangles keep their rows; a touched one makes room for its pieces
    count = np.ones(len(tris), dtype=np.int64)
    count[touched] = 2 + cut1 + cut2
    out = np.repeat(tris, count, axis=0)
    first = np.cumsum(count)[touched] - count[touched]
    rows = (first[:, None] + np.cumsum(keep, axis=1) - 1)[keep]
    out[rows] = pieces[keep]
    return out, count, rows


def _full_recompute_graded_bisection(coords, tris, bedges, centers, h, grading, diam, floor,
                                     max_vertices):
    """Graded bisection that measures every triangle and rebuilds the edge
    table with np.unique on every pass, kept as an oracle for the incremental
    ``F._graded_bisection``."""
    for _ in range(200):
        nv = len(coords)
        p = np.take(coords, tris, axis=0)
        cent = (p[:, 0] + p[:, 1] + p[:, 2]) / 3
        dc = cent[:, None, :] - centers[None, :, :]
        dstar = np.sqrt(dc[..., 0] * dc[..., 0] + dc[..., 1] * dc[..., 1]).min(axis=1)
        target = np.maximum(h * (dstar / diam) ** grading, floor)

        nxt = tris[:, [1, 2, 0]]
        e = p - np.take(coords, nxt, axis=0)
        lens = np.sqrt(e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1])
        lmax = np.maximum(np.maximum(lens[:, 0], lens[:, 1]), lens[:, 2])
        keys = np.minimum(tris, nxt) * nv + np.maximum(tris, nxt)
        near = lens >= lmax[:, None] - 1e-14
        tie_keys = np.where(near, keys, np.iinfo(np.int64).max)
        longest = np.argmin(tie_keys, axis=1)
        rows = np.arange(len(tris))

        need = lmax > target
        if not need.any():
            break

        uniq_keys, inv = np.unique(keys, return_inverse=True)
        inv = inv.reshape(keys.shape)
        longest_id = inv[rows, longest]
        marked = np.zeros(len(uniq_keys), dtype=bool)
        marked[longest_id[need]] = True
        while True:
            side_marked = marked[inv]
            has_marked = side_marked[:, 0] | side_marked[:, 1] | side_marked[:, 2]
            grow = has_marked & ~marked[longest_id]
            if not grow.any():
                break
            marked[longest_id[grow]] = True

        split = uniq_keys[marked]
        if nv + len(split) > max_vertices:
            raise BudgetExceeded(f"vertex budget {max_vertices} exceeded during grading")
        midpoint = np.full(len(uniq_keys), -1, dtype=np.int64)
        midpoint[marked] = nv + np.arange(len(split))
        coords = np.concatenate([coords, 0.5 * (np.take(coords, split // nv, axis=0)
                                                + np.take(coords, split % nv, axis=0))])

        w = midpoint[np.searchsorted(uniq_keys, bedges[:, 0] * nv + bedges[:, 1])]
        hit = w >= 0
        bedges = np.concatenate([
            bedges[~hit],
            np.column_stack([bedges[hit, 0], w[hit], bedges[hit, 2]]),
            np.column_stack([bedges[hit, 1], w[hit], bedges[hit, 2]])])
        tris = _bisect_marked(coords, tris, midpoint[inv])[0]
    else:
        raise BudgetExceeded("graded refinement did not settle within 200 passes")
    return coords, tris, bedges


def _graded_or_budget(bisect, mesh, *args):
    try:
        return bisect(mesh.vertices, mesh.triangles, mesh.boundary_edges, *args)
    except BudgetExceeded as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.4), st.integers(1, 4),
       st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([2e-3, 5e-3, 2e-2]),
       st.sampled_from([300, 3000, None]))
def test_graded_bisection_matches_full_recompute_oracle(seed, h, ncenters, grading, floor,
                                                        extra_vertices):
    # the incremental passes give the same bits, and hit the budget on the same pass
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng)
    verts = G.polygon_vertices(poly)
    # polygon vertices and interior points (convex combinations of the vertices)
    pool = np.vstack([verts, rng.dirichlet(np.ones(len(verts)), 4) @ verts])
    centers = pool[rng.choice(len(pool), ncenters, replace=False)]
    uniform = F.triangulate(poly, h)
    budget = 3_000_000 if extra_vertices is None else len(uniform.vertices) + extra_vertices
    args = (centers, h, grading, poly.diameter, floor * poly.diameter, budget)
    got = _graded_or_budget(F._graded_bisection, uniform, *args)
    want = _graded_or_budget(_full_recompute_graded_bisection, uniform, *args)
    if isinstance(want, str):
        assert got == want
    else:
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def _hexagon_face_midpoint():
    a, b = G.faces(G.regular_hexagon())[0].vertices
    return (0.5 * (a + b))[None, :]


@pytest.mark.parametrize("poly, h, centers, floor", [
    (G.golden_square(), 0.3, G.polygon_vertices(G.golden_square())[:1], 1e-6),
    (G.regular_hexagon(), 0.3, _hexagon_face_midpoint(), 1e-5),
], ids=["deep-corner", "center-on-a-face"])
def test_graded_bisection_matches_oracle_deep_and_on_a_face(monkeypatch, poly, h, centers,
                                                            floor):
    # many passes over one forest, and boundary edges split again on every pass
    passes = []
    depth_first = F._depth_first
    monkeypatch.setattr(F, "_depth_first",
                        lambda nroots, splits: passes.append(len(splits))
                        or depth_first(nroots, splits))
    uniform = F.triangulate(poly, h)
    args = (centers, h, 1.0, poly.diameter, floor, 3_000_000)
    got = _graded_or_budget(F._graded_bisection, uniform, *args)
    want = _graded_or_budget(_full_recompute_graded_bisection, uniform, *args)
    assert passes[0] >= 20
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    on_face = np.abs(got[0][got[2][:, 0]] @ G.faces(poly)[0].normal
                     - G.faces(poly)[0].offset) < 1e-12
    assert len(got[2]) > len(uniform.boundary_edges) and on_face.any()


def _in_place_layout(nroots, splits):
    """The node of every row when each pass replaces, row by row, every parent
    by its pieces: the layout of repeated ``_bisect_marked`` calls."""
    layout, n = list(range(nroots)), nroots
    for parents, counts in splits:
        pieces = {}
        for p, c in zip(parents.tolist(), counts.tolist()):
            pieces[p], n = list(range(n, n + c)), n + c
        layout = [q for node in layout for q in pieces.get(node, [node])]
    return np.array(layout, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 14))
def test_depth_first_order_matches_in_place_layout(seed, nroots, npasses):
    # random forests: parents in any order, 2 to 4 pieces, and leaves that
    # wait many passes before they split, or never do
    rng = np.random.default_rng(seed)
    leaves, n, splits = list(range(nroots)), nroots, []
    for _ in range(npasses):
        parents = rng.permutation(leaves)[:rng.integers(1, max(2, len(leaves) // 4) + 1)]
        counts = rng.integers(2, 5, len(parents))
        splits.append((parents, counts))
        gone = set(parents.tolist())
        leaves = [q for q in leaves if q not in gone] + list(range(n, n + int(counts.sum())))
        n += int(counts.sum())
    order = F._depth_first(nroots, splits)
    assert np.array_equal(order, _in_place_layout(nroots, splits))
    assert sorted(order.tolist()) == sorted(leaves)


def test_default_grading_centers_are_the_corners():
    # the 64 arc vertices of the sector turn by (2 pi / 3) / 64 each: not corners
    omega = 2.0 * np.pi / 3.0
    poly = F.sector_polygon(omega)
    verts = G.polygon_vertices(poly)
    corners = verts[[int(np.argmin(np.linalg.norm(verts - c, axis=1)))
                     for c in ([0.0, 0.0], [1.0, 0.0], [math.cos(omega), math.sin(omega)])]]
    got = F.triangulate(poly, 0.15, grading=1.0)
    want = F.triangulate(poly, 0.15, grading=1.0, grading_centers=corners)
    for a in ("vertices", "triangles", "boundary_edges"):
        assert np.array_equal(getattr(got, a), getattr(want, a))
    # every vertex of a square or a hexagon is a corner; a regular 64-gon has none
    for square_or_hexagon in (G.golden_square(), G.regular_hexagon()):
        assert F._corners(G.polygon_vertices(square_or_hexagon)).all()
    disc = G.polygon_from_vertices(np.column_stack([np.cos(np.arange(64) * np.pi / 32),
                                                    np.sin(np.arange(64) * np.pi / 32)]))
    graded = F.triangulate(disc, 0.3, grading=1.0)
    uniform = F.triangulate(disc, 0.3)
    assert np.array_equal(graded.triangles, uniform.triangles)


@pytest.mark.parametrize("kwargs, message", [
    ({"grading": math.nan}, "grading must be finite"),
    ({"grading": -1.0}, "grading must be finite"),
    ({"grading": math.inf}, "grading must be finite"),
    ({"grading": 1.0, "min_edge": math.nan}, "min_edge must be finite and positive"),
    ({"grading": 1.0, "min_edge": -1.0}, "min_edge must be finite and positive"),
    ({"grading": 1.0, "min_edge": 0.0}, "min_edge must be finite and positive"),
    ({"grading": 1.0, "grading_centers": [[math.nan, 0.0]]}, "grading_centers must be finite"),
    ({"grading": 1.0, "grading_centers": np.empty((0, 2))}, "grading_centers must be finite"),
    ({"grading": 1.0, "grading_centers": [0.0, 0.0]}, "grading_centers must be finite"),
    ({"grading": 1.0, "grading_centers": [[0.0, 0.0, 0.0]]}, "grading_centers must be finite"),
    ({"max_vertices": 2**31 + 1}, "max_vertices must be at most 2\\*\\*31"),
], ids=["grading-nan", "grading-negative", "grading-inf", "min-edge-nan", "min-edge-negative",
        "min-edge-zero", "center-nan", "no-centers", "centers-1d", "centers-3d",
        "max-vertices-over-2-31"])
def test_triangulate_refuses_bad_grading_arguments(kwargs, message):
    # each of these used to give the uniform mesh, run to the budget or raise a bare numpy error
    with pytest.raises(ValidationError, match=message):
        F.triangulate(G.unit_square(), 0.2, **kwargs)


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


def _broken_meshes():
    """Five invalid meshes made from one valid one, with the refusal each must raise."""
    mesh = F.triangulate(G.unit_square(), 0.5)
    v, t, be = (a.copy() for a in (mesh.vertices, mesh.triangles, mesh.boundary_edges))
    clockwise = t.copy()
    clockwise[0] = t[0, [0, 2, 1]]
    off_face = be.copy()
    off_face[0, 2] = (be[0, 2] + 1) % 4
    # triangle k split at the midpoint of its interior side s, its neighbour left
    # whole: the hanging node leaves the side's halves and the whole side on one
    # triangle each
    side_edge = mesh.edges[1]
    first = int(np.flatnonzero(np.bincount(side_edge)[side_edge] == 2)[0])
    s, k = divmod(first, len(t))
    a, b, c = t[k, [s, (s + 1) % 3, (s + 2) % 3]]
    hanging = np.vstack([np.delete(t, k, axis=0), [[a, len(v), c], [len(v), b, c]]])
    return [
        (F.TriMesh(v, clockwise, be), "non-positive triangle areas"),
        # a second copy of triangle 0 puts a third triangle on its interior sides
        (F.TriMesh(v, np.vstack([t, t[:1]]), be), "edge shared by more than two triangles"),
        (F.TriMesh(v, t, be[1:]), "tagged boundary edges disagree with mesh connectivity"),
        (F.TriMesh(v, t, off_face), "a tagged boundary edge is off its face's line"),
        (F.TriMesh(np.vstack([v, 0.5 * (v[a] + v[b])]), hanging, be),
         "tagged boundary edges disagree with mesh connectivity"),
    ]


@pytest.mark.parametrize("case", range(5))
def test_validate_mesh_refuses_broken_meshes(case):
    F._validate_mesh(F.triangulate(G.unit_square(), 0.5), G.unit_square())
    mesh, message = _broken_meshes()[case]
    with pytest.raises(ValidationError, match=message):
        F._validate_mesh(mesh, G.unit_square())


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
        system = F._DirichletSystem(F.triangulate(poly, h), I2)
        Kii = system.Kii.tocoo()
        assert Kii.data[Kii.row != Kii.col].max() <= 1e-10
        assert system.neg_Kib.data.min() >= -1e-10


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


def _assert_blocks_match_oracle(mesh, A):
    """Kii and -Kib against the oracle's interior rows: stored entries agree,
    and every entry left out is roundoff relative to its diagonals."""
    system = F._DirichletSystem(mesh, A)
    oracle = _einsum_stiffness(mesh, A)
    tol = 1e-14 * abs(oracle).max()
    Ki = oracle[system.interior]
    d = oracle.diagonal()
    for got, want, cols in ((system.Kii, Ki[:, system.interior], system.interior),
                            (-system.neg_Kib, Ki[:, system.boundary], system.boundary)):
        assert abs(got - want).multiply(got != 0).max() <= tol
        left_out = (want - want.multiply(got != 0)).tocoo()
        dd = d[system.interior[left_out.row]] * d[cols[left_out.col]]
        assert np.all(np.abs(left_out.data) <= 1e-12 * np.sqrt(dd))
    assert (system.Kii != system.Kii.T).nnz == 0
    return system


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
        _assert_blocks_match_oracle(mesh, A)


def test_golden_square_blocks_leave_out_roundoff_entries():
    # the fan's right triangles make about 29% of Kii's entries roundoff at 1/16
    mesh, _ = _golden_system(1 / 16)
    assert _assert_blocks_match_oracle(mesh, I2).Kii.nnz == 253_129


def _reduceat_aggregate(A):
    """Aggregation with per-node maxima by np.maximum.reduceat over CSR
    segments, kept as an oracle for the scatter-max ``F._aggregate``."""
    n = A.shape[0]
    d = A.diagonal()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    strong = (rows == A.indices) | (np.abs(A.data) >= F._STRENGTH * np.sqrt(d[rows] * d[A.indices]))
    cols = A.indices[strong]
    counts = np.add.reduceat(strong, A.indptr[:-1])
    starts = np.cumsum(counts) - counts

    def near(values):
        return np.maximum.reduceat(values[cols], starts)

    prio = np.random.default_rng(0).permutation(n).astype(np.int32)
    key = n + prio
    while True:
        undecided = (key >= n) & (key < 2 * n)
        if not undecided.any():
            break
        top = near(near(key))
        taken = undecided & (top == key)
        key[taken] += n
        key[undecided & ~taken & (top >= 2 * n)] -= n
    root = key >= 2 * n
    agg = np.full(n, -1)
    agg[root] = np.arange(root.sum())
    root_prio = prio[root]
    node_of = np.argsort(prio)
    for _ in range(2):
        best = near(np.where(agg >= 0, root_prio[agg], -1))
        join = (agg < 0) & (best >= 0)
        agg[join] = agg[node_of[best[join]]]
    lone = agg < 0
    agg[lone] = root.sum() + np.arange(lone.sum())
    return agg


def _assert_aggregates_match_oracle(mesh, A):
    Kii = F._DirichletSystem(mesh, A).Kii
    levels, _ = F._hierarchy(Kii)
    for level in [L.A for L in levels] or [Kii]:
        assert np.array_equal(F._aggregate(level), _reduceat_aggregate(level))


ANISO = F.CoefficientField.constant([[2.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("make, A", [
    (lambda: _golden_system(1 / 16)[0], I2),
    (_corner_probe_mesh, I2),
    (_strip_mesh, I2),
    (lambda: F.triangulate(G.regular_hexagon(), 0.02), ANISO),
], ids=["golden-1-16", "corner-probe-sector", "strip-mesh", "hexagon-0.02-anisotropic"])
def test_aggregates_match_reduceat_oracle(make, A):
    _assert_aggregates_match_oracle(make(), A)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.02, 0.06), st.sampled_from([0.0, 1.0]))
def test_aggregates_match_reduceat_oracle_on_random_polygons(seed, h, grading):
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng)
    mesh = F.triangulate(poly, h, grading=grading, grading_centers=G.polygon_vertices(poly)[:1],
                         min_edge=1e-3 * poly.diameter)
    _assert_aggregates_match_oracle(mesh, I2 if seed % 2 else ANISO)


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
    build = F._DirichletSystem.__init__
    monkeypatch.setattr(F._DirichletSystem, "__init__",
                        lambda self, *a: calls.append(1) or build(self, *a))
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


@pytest.mark.parametrize("refuse, message", [
    (lambda: F.CoefficientField.constant([[np.inf, 0.0], [0.0, 1.0]]),
     "coefficient matrix must be finite"),
    (lambda: F.CoefficientField.constant([[1.0, np.nan], [np.nan, 1.0]]),
     "coefficient matrix must be finite"),
    (lambda: F.CoefficientField(evaluator=lambda pts: np.full((len(pts), 2, 2), np.inf))
     .evaluate_many(np.zeros((3, 2))), "non-finite matrix"),
    # refused before CG, which would run to max_iter on a NaN right-hand side
    (lambda: F.DirichletProblem(polygon=G.unit_square(), coefficients=I2,
                                explicit_data=lambda pts: np.full(len(pts), np.nan))
     .boundary_values(np.zeros((3, 2))), "non-finite boundary value"),
    (lambda: F.DirichletProblem(polygon=G.unit_square(), coefficients=I2,
                                periodic_data=P.from_coefficients(2, {(1, 0): 1.0}),
                                epsilon=np.nan), "epsilon must be positive"),
], ids=["constant-inf", "constant-nan", "evaluator-inf", "explicit-nan", "periodic-nan-epsilon"])
def test_non_finite_coefficients_and_boundary_values_are_refused(refuse, message):
    with pytest.raises(ValidationError, match=message):
        refuse()


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


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
def test_lp_error_refuses_p_that_is_not_finite_and_at_least_one(p):
    mesh = F.triangulate(G.unit_square(), 0.5)
    sol = F.FemSolution(mesh=mesh, values=np.zeros(len(mesh.vertices)), iterations=0, residual=0.0)
    with pytest.raises(ValidationError, match="p must be finite and >= 1"):
        F.lp_error(sol, 0.0, p)


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


# -- working set -----------------------------------------------------------------
# The per-record stages before they stopped building full-size temporaries,
# kept as references: the lean stages must reproduce their every bit.

def _unique_edge_table(mesh):
    """The ``np.unique`` edge table, int64 inverse cast to int32."""
    tri, nv = mesh.triangles, len(mesh.vertices)
    u = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2]]).astype(np.int64)
    v = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
    keys, side_edge = np.unique(np.minimum(u, v) * nv + np.maximum(u, v), return_inverse=True)
    return keys, side_edge.astype(np.int32)


def _gathered_areas(mesh):
    p = np.take(mesh.vertices, mesh.triangles, axis=0)
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _listed_local_stiffness(mesh, A_field):
    """The closed form over lists of gathered columns, A evaluated at every barycenter."""
    x, y = (np.ascontiguousarray(mesh.vertices[:, c]) for c in (0, 1))
    t = [np.ascontiguousarray(mesh.triangles[:, i]) for i in range(3)]
    px, py = [np.take(x, ti) for ti in t], [np.take(y, ti) for ti in t]
    ex = [px[2] - px[1], px[0] - px[2], px[1] - px[0]]
    ey = [py[2] - py[1], py[0] - py[2], py[1] - py[0]]
    det = ex[1] * ey[2] - ey[1] * ex[2]
    Abar = A_field.evaluate_many(np.column_stack([(px[0] + px[1] + px[2]) / 3.0,
                                                  (py[0] + py[1] + py[2]) / 3.0]))
    w = 0.5 / det
    a00, a01, a11 = (Abar[:, r, c] * w for r, c in ((0, 0), (0, 1), (1, 1)))
    bx = [a11 * ex[i] - a01 * ey[i] for i in range(3)]
    by = [a00 * ey[i] - a01 * ex[i] for i in range(3)]
    return (np.stack([bx[i] * ex[i] + by[i] * ey[i] for i in range(3)]),
            np.stack([bx[i] * ex[(i + 1) % 3] + by[i] * ey[(i + 1) % 3] for i in range(3)]))


def _int64_blocks(mesh, A_field):
    """Kii and -Kib from int64 COO entries, as concatenated int64 arrays."""
    diag, off = _listed_local_stiffness(mesh, A_field)
    keys, side_edge = _unique_edge_table(mesh)
    nv = len(mesh.vertices)
    kd = np.bincount(mesh.triangles.T.ravel(), weights=diag.ravel(), minlength=nv)
    ke = np.bincount(side_edge, weights=off.ravel(), minlength=len(keys))
    u, v = keys // nv, keys % nv
    kept = np.abs(ke) > F._ROUNDOFF * np.sqrt(kd[u] * kd[v])
    on_b = np.zeros(nv, dtype=bool)
    on_b[mesh.boundary_nodes] = True
    interior = np.flatnonzero(~on_b)
    ni = len(interior)
    index = np.where(on_b, np.cumsum(on_b), np.cumsum(~on_b)) - 1
    bu, bv = on_b[u], on_b[v]
    ii, ib = kept & ~bu & ~bv, kept & (bu != bv)
    iu, iv, k = index[u[ii]], index[v[ii]], ke[ii]
    Kii = sp.csr_matrix((np.concatenate([kd[interior], k, k]),
                         (np.concatenate([np.arange(ni), iu, iv]),
                          np.concatenate([np.arange(ni), iv, iu]))), shape=(ni, ni))
    i, b = np.where(bu, v, u)[ib], np.where(bu, u, v)[ib]
    neg_Kib = sp.csr_matrix((-ke[ib], (index[i], index[b])),
                            shape=(ni, len(mesh.boundary_nodes)))
    return Kii, neg_Kib


def _int64_hierarchy(A):
    """The smoothed-aggregation levels with P built from int64 concatenations:
    a list of (A, smooth, P, R) and the coarsest matrix."""
    levels = []
    while A.shape[0] > F._COARSEST:
        n = A.shape[0]
        agg = F._aggregate(A).astype(np.int64)
        nagg = int(agg.max()) + 1
        if nagg == n:
            break
        d = A.diagonal()
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        rho = float(np.max(np.add.reduceat(np.abs(A.data), A.indptr[:-1]) / d))
        smooth = (4.0 / (3.0 * rho)) / d
        P = sp.coo_matrix((np.concatenate([np.ones(n), -smooth[rows] * A.data]),
                           (np.concatenate([np.arange(n), rows]),
                            np.concatenate([agg, agg[A.indices]]))), shape=(n, nagg)).tocsr()
        R = P.T.tocsr()
        levels.append((A, smooth, P, R))
        A = (R @ (A @ P)).tocsr()
    return levels, A


def _full_scan_locate(mesh, x):
    """Every triangle tested at once; the lowest-index hit wins."""
    x = np.asarray(x, dtype=float)
    p = np.take(mesh.vertices, mesh.triangles, axis=0)
    e1, e2, r = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], x - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    s = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
    t = (e1[:, 0] * r[:, 1] - e1[:, 1] * r[:, 0]) / det
    inside = np.flatnonzero((s >= -1e-12) & (t >= -1e-12) & (1.0 - s - t >= -1e-12))
    if inside.size == 0:
        raise OutsideDomain("point is not inside any mesh triangle")
    found = int(inside[0])
    return found, F._barycentric(mesh, found, x)


def _stacked_lp_error(sol, reference, p):
    u = np.take(sol.values, sol.mesh.triangles)
    mids = np.stack([(u[:, 0] + u[:, 1]) / 2, (u[:, 1] + u[:, 2]) / 2,
                     (u[:, 2] + u[:, 0]) / 2], axis=1)
    total = float(np.sum(sol.mesh.areas[:, None] / 3.0 * np.abs(mids - reference) ** p))
    return total ** (1.0 / p)


def _same(a, b):
    """Equal dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_csr(a, b):
    return a.shape == b.shape and all(_same(getattr(a, k), getattr(b, k))
                                      for k in ("data", "indices", "indptr"))


@pytest.mark.parametrize("make, A", [
    (lambda: F.triangulate(G.golden_square(), 1 / 160), I2),
    (_corner_probe_mesh, I2),
    (_strip_mesh, I2),
    (lambda: F.triangulate(G.regular_hexagon(), 0.02), ANISO),
    (lambda: F.triangulate(G.regular_hexagon(), 0.02),
     F.CoefficientField(evaluator=_variable_field)),
], ids=["golden-1-16", "corner-probe-sector", "strip-mesh", "hexagon-anisotropic",
        "hexagon-variable"])
def test_lean_stages_reproduce_reference_bits(make, A):
    mesh = make()
    for got, want in zip(mesh.edges, _unique_edge_table(mesh)):
        assert _same(got, want)
    assert _same(mesh.areas, _gathered_areas(mesh))
    for got, want in zip(F._local_stiffness(mesh, A), _listed_local_stiffness(mesh, A)):
        assert _same(got, want)
    system = F._DirichletSystem(mesh, A)
    Kii, neg_Kib = _int64_blocks(mesh, A)
    assert _same_csr(system.Kii, Kii) and _same_csr(system.neg_Kib, neg_Kib)

    levels, coarse = F._hierarchy(system.Kii)
    want, want_coarse = _int64_hierarchy(Kii)
    assert len(levels) == len(want) >= 1
    for L, (A_, smooth, P_, R) in zip(levels, want):
        assert _same_csr(L.A, A_) and _same(L.smooth, smooth)
        assert _same_csr(L.P, P_) and _same_csr(L.R, R)
    b = np.random.default_rng(1).normal(size=want_coarse.shape[0])
    assert _same(coarse.solve(b), spla.splu(want_coarse.tocsc()).solve(b))

    vb = np.sin(3.0 * mesh.vertices[system.boundary, 0]) + mesh.vertices[system.boundary, 1]
    u, iterations, _ = system.solve(vb, F.SolverConfig())
    for values in (u, u + 1j * u[::-1]):
        sol = F.FemSolution(mesh=mesh, values=values, iterations=iterations, residual=0.0)
        for p in (1.0, 2.0, 3.5, 5.0):
            assert F.lp_error(sol, 0.3, p) == _stacked_lp_error(sol, 0.3, p)

    last = mesh.triangles[-1]   # found only by a scan of every block
    for x in (mesh.vertices[len(mesh.vertices) // 2], mesh.vertices[last].mean(axis=0),
              0.5 * (mesh.vertices[last[0]] + mesh.vertices[last[1]])):
        (t, lam), (want_t, want_lam) = F._locate(mesh, x), _full_scan_locate(mesh, x)
        assert t == want_t and _same(lam, want_lam)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1.0, 6.0), st.booleans())
def test_in_place_lp_error_reproduces_reference_bits(seed, p, complex_values):
    # a coarse mesh: with few terms, one changed bit in a term reaches the sum
    mesh = F.triangulate(G.regular_hexagon(), 0.7)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=len(mesh.vertices))
    if complex_values:
        values = values + 1j * rng.normal(size=len(mesh.vertices))
    sol = F.FemSolution(mesh=mesh, values=values, iterations=0, residual=0.0)
    reference = float(rng.normal())
    assert F.lp_error(sol, reference, p) == _stacked_lp_error(sol, reference, p)


def _small_block_locate(mesh, x):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "_LOCATE_BLOCK", 7)
        return F._locate(mesh, x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["inside", "edge", "vertex"]), st.integers(0, 2**31),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_blocked_locate_matches_full_scan(kind, which, a, b):
    # blocks of 7: the triangles around a vertex or an edge fall in different blocks
    mesh = F.triangulate(G.regular_hexagon(), 0.4, grading=0.5)
    p = mesh.vertices[mesh.triangles[which % len(mesh.triangles)]]
    x = {"vertex": p[0], "edge": (1.0 - a) * p[0] + a * p[1],
         "inside": np.array([a, (1.0 - a) * b, (1.0 - a) * (1.0 - b)]) @ p}[kind]
    (t, lam), (want_t, want_lam) = _small_block_locate(mesh, x), _full_scan_locate(mesh, x)
    assert t == want_t and _same(lam, want_lam)


def test_blocked_locate_ties_across_blocks_pick_the_lowest_index():
    mesh = F.triangulate(G.regular_hexagon(), 0.4, grading=0.5)
    nt = len(mesh.triangles)
    _, side_edge = mesh.edges
    order = np.argsort(side_edge, kind="stable")
    pair = np.flatnonzero(side_edge[order[1:]] == side_edge[order[:-1]])
    lo, hi = np.sort(np.stack([order[pair] % nt, order[pair + 1] % nt]), axis=0)
    apart = lo // 7 != hi // 7
    assert apart.sum() >= 10
    for t, u in zip(lo[apart], hi[apart]):
        shared = np.intersect1d(mesh.triangles[t], mesh.triangles[u])
        x = mesh.vertices[shared].mean(axis=0)   # the shared edge's midpoint
        assert _small_block_locate(mesh, x)[0] == _full_scan_locate(mesh, x)[0] == t
    with pytest.raises(OutsideDomain):
        _small_block_locate(mesh, [5.0, 5.0])


def _traced_peak(fn):
    """(fn(), peak bytes numpy and Python allocated while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_system_and_hierarchy_working_set_per_triangle():
    # 144 B per triangle measured at this size (the int64 builds took 288);
    # the bound leaves a 25% margin
    mesh = F.triangulate(G.golden_square(), 1 / 160)
    _, peak = _traced_peak(lambda: F._hierarchy(F._DirichletSystem(mesh, I2).Kii))
    assert peak / len(mesh.triangles) < 180


def test_lp_error_working_set_per_triangle():
    # 48 B per triangle measured (the stacked form took 105); 25% margin
    mesh = F.triangulate(G.golden_square(), 1 / 160)
    vals = np.random.default_rng(2).normal(size=len(mesh.vertices))
    sol = F.FemSolution(mesh=mesh, values=vals, iterations=0, residual=0.0)
    _, peak = _traced_peak(lambda: F.lp_error(sol, 0.1, 2.0))
    assert peak / len(mesh.triangles) < 60


def test_locate_working_set_does_not_grow_with_the_mesh():
    peaks = []
    for h in (1 / 80, 1 / 160):   # 25,600 and 102,400 triangles
        mesh = F.triangulate(G.golden_square(), h)
        x = mesh.vertices[mesh.triangles[-1]].mean(axis=0)   # in the last block only
        (t, _), peak = _traced_peak(lambda: F._locate(mesh, x))
        assert t == len(mesh.triangles) - 1
        peaks.append(peak)
    # 137 B per triangle of one block measured at both sizes (a full scan's
    # grew 4x, to 13 MB); 25% margin
    assert peaks[1] <= 1.05 * peaks[0] and peaks[1] < 170 * F._LOCATE_BLOCK


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


# float.hex of the probe outputs for the benchmark's inputs (2 pi / 3 sector,
# h = 0.15, grading 1, wedge data r^q sin(q phi)): the graded mesh, solve and
# ray sampling are one path, and CG's sums do not depend on the BLAS thread
# count, so these stay bit-identical
CORNER_PROBE_PINS = {
    "fitted_exponent": "0x1.7fb45353a2176p+0",
    "stderr": "0x1.26b555a65cdfbp-11",
    "mesh_vertices": 10805,
    "values": ["0x1.44b58d133315ep-3", "0x1.cd528b34e0dccp-5", "0x1.4663d114cf808p-6",
               "0x1.cd9d21f32aa75p-8", "0x1.4668e93e5b96ap-9", "0x1.cd9b9bd5da335p-11"],
}
GRADIENT_PROBE_PINS = [
    ("0x1.0000000000000p-2", "0x1.7ce631a1c4acap-1"),
    ("0x1.0000000000001p-3", "0x1.0d5363b097aa6p-1"),
    ("0x1.0000000000001p-4", "0x1.7ce103581e114p-2"),
    ("0x1.0000000000003p-5", "0x1.0d51bc3003114p-2"),
    ("0x1.0000000000005p-6", "0x1.7cdf0a35bfa08p-3"),
    ("0x1.000000000000bp-7", "0x1.0d508de5e9d31p-3"),
]


def test_corner_probe_output_pinned():
    r = F.corner_probe(2.0 * np.pi / 3.0, h=0.15, grading=1.0)
    assert r["fitted_exponent"].hex() == CORNER_PROBE_PINS["fitted_exponent"]
    assert r["stderr"].hex() == CORNER_PROBE_PINS["stderr"]
    assert r["mesh_vertices"] == CORNER_PROBE_PINS["mesh_vertices"]
    assert [(rr, v.hex()) for rr, v in r["samples"]] == [
        (2.0 ** -j, v) for j, v in zip(range(2, 8), CORNER_PROBE_PINS["values"])]


def test_gradient_probe_output_pinned():
    omega = 2.0 * np.pi / 3.0
    q = np.pi / omega

    def wedge(pts):
        return np.linalg.norm(pts, axis=1) ** q * np.sin(q * np.arctan2(pts[:, 1], pts[:, 0]))

    samples = F.gradient_probe(F.sector_polygon(omega), I2, wedge, corner=(0.0, 0.0),
                               direction=(math.cos(omega / 2), math.sin(omega / 2)),
                               h=0.15, grading=1.0)
    assert [(d.hex(), g.hex()) for d, g in samples] == GRADIENT_PROBE_PINS


@pytest.mark.parametrize("probe, message", [
    (lambda: F.kernel_bound_probe(G.unit_square(), I2, np.array([0.5, 0.5]), arcs_per_face=0),
     "arcs_per_face"),
    (lambda: F.gradient_probe(G.unit_square(), I2, lambda pts: pts[:, 0] * pts[:, 1],
                              corner=(0.0, 0.0), direction=(0.0, 0.0)),
     "direction"),
], ids=["zero arcs", "zero direction"])
def test_probe_arguments_are_validated_before_meshing(monkeypatch, probe, message):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(F, "triangulate", no_mesh)
    with pytest.raises(ValidationError, match=message):
        probe()


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
