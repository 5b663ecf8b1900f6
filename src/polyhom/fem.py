"""Conforming P1 finite elements on convex polygons (d = 2).

Meshes come from a centroid fan subdivided uniformly to the target edge
length, with optional longest-edge bisection (Rivara, IJNME 20, 1984) graded
toward the polygon's corners or chosen centers. Both stages work on whole
arrays: the fan's nodes, triangles and boundary edges are numbered in closed
form, and each bisection pass marks, closes and splits every edge at once,
touching only the previous pass's pieces, the triangles across their sides
and the edges it marks: triangles, edges (with the triangles on their two
sides), coordinates and boundary rows are append-only, and the in-place
depth-first order of the pieces is laid out once, after the last pass. The
graded stage hands its edge table to the mesh, checked against the triangles'
side keys in O(nt), so no side key is sorted again.
The solver assembles the stiffness of -div(A grad u) in closed form with
one-point coefficient quadrature at barycenters, summed on the mesh's one
edge table (shared with validation) and leaving out roundoff entries
(|k_uv| <= _ROUNDOFF sqrt(k_uu k_vv), _ROUNDOFF = 1e-12), pins Dirichlet
nodes, and runs conjugate gradients preconditioned by a smoothed-aggregation
algebraic multigrid V-cycle, with dot products summed outside BLAS so the
bits do not depend on the thread count; the assembled system is cached per mesh and
coefficient field, so repeated solves on one mesh set up once. Probes built on top estimate
harmonic measures of boundary arcs, pointwise Poisson-kernel bounds (from one
adjoint solve), and corner exponents of solutions vanishing on the faces
incident to a vertex.
No stage holds a full-size temporary it does not need, and each keeps the
bits of its output: the edge table, areas, stiffness, interior split and
prolongators are built from 1-D columns, in place and with int32 indices;
point location tests a fixed block of triangles at a time; the L^p error
works in place on one gather.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import periodic
from .errors import (
    BudgetExceeded,
    NoConvergence,
    NonSymmetricCoefficients,
    OutsideDomain,
    UnsupportedDimension,
    ValidationError,
)
from .geometry import (
    ConvexPolytope,
    _segment_distances,
    distance_to_boundary,
    distance_to_singular,
    faces,
    polygon_from_vertices,
    polygon_sides,
)


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming triangle mesh with tagged boundary edges.

    ``boundary_edges`` rows are (a, b, face_index); all triangles are
    counterclockwise. The arrays are made read-only, because solves cache
    the assembled system per mesh object; so are the cached derived arrays.
    """

    vertices: np.ndarray       # (nv, 2)
    triangles: np.ndarray      # (nt, 3) int
    boundary_edges: np.ndarray  # (nb, 3) int

    def __post_init__(self):
        for a in (self.vertices, self.triangles, self.boundary_edges):
            a.setflags(write=False)

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        return _frozen(np.unique(self.boundary_edges[:, :2]))

    @cached_property
    def areas(self) -> np.ndarray:
        x, y = self.vertices.T
        t0, t1, t2 = self.triangles.T
        x0, y0 = np.take(x, t0), np.take(y, t0)
        return _frozen(0.5 * ((np.take(x, t1) - x0) * (np.take(y, t2) - y0)
                              - (np.take(x, t2) - x0) * (np.take(y, t1) - y0)))

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge table: sorted edge keys min * nv + max, and the int32 edge
        index of every triangle side in ``_edge_keys`` order.

        A graded mesh from ``triangulate`` comes with the table its bisection
        built; any other mesh sorts its side keys here.
        """
        keys, side_edge = _unique_sides(_edge_keys(self.triangles, len(self.vertices)))
        return _frozen(keys), _frozen(side_edge)

    @property
    def max_edge(self) -> float:
        p = self.vertices[self.triangles]
        e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        return float(np.sqrt((e ** 2).sum(-1)).max())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _edge_keys(tri: np.ndarray, nv: int) -> np.ndarray:
    """Key min * nv + max of every side: all sides (0, 1), then (1, 2), then (2, 0)."""
    nt = len(tri)
    keys = np.empty(3 * nt, dtype=np.int64)
    for s in range(3):  # built in place, one side at a time
        u, v, k = tri[:, s], tri[:, (s + 1) % 3], keys[s * nt:(s + 1) * nt]
        np.minimum(u, v, out=k)
        k *= nv
        k += np.maximum(u, v)
    return keys


def _unique_sides(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys and the int32 index of every key among them.

    This is ``np.unique(keys, return_inverse=True)`` with its own unstable
    sort, without the flattened copy and the int64 inverse.
    """
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    index = np.empty(len(keys), dtype=np.int32)
    index[order] = rank
    return keys[first], index


def _check_edge_table(mesh: TriMesh, keys: np.ndarray, side_edge: np.ndarray) -> None:
    """Refuse an edge table built for ``mesh`` elsewhere unless every side
    names an edge that holds the side's key and the keys strictly ascend.

    With the edge count of ``_validate_mesh``, which refuses an edge that no
    side names, this makes it the table ``TriMesh.edges`` would sort, at
    O(nt) cost and without a sort.
    """
    nt = len(mesh.triangles)
    sides = _edge_keys(mesh.triangles, len(mesh.vertices))
    if not (len(side_edge) == 3 * nt and 0 <= side_edge.min() and side_edge.max() < len(keys)
            and np.all(keys[1:] > keys[:-1])
            and all(np.array_equal(np.take(keys, side_edge[q * nt:(q + 1) * nt]),
                                   sides[q * nt:(q + 1) * nt]) for q in range(3))):
        raise ValidationError("the mesh's edge table disagrees with its triangles")


def _validate_mesh(mesh: TriMesh, polygon: ConvexPolytope) -> None:
    if np.any(mesh.areas <= 0):
        raise ValidationError("mesh has non-positive triangle areas")
    keys, side_edge = mesh.edges
    counts = np.bincount(side_edge, minlength=len(keys))
    if counts.min() < 1:
        raise ValidationError("the mesh's edge table has an edge that no triangle has")
    if counts.max() > 2:
        raise ValidationError("non-conforming mesh: edge shared by more than two triangles")
    be = mesh.boundary_edges
    nv = len(mesh.vertices)
    tagged = np.sort(np.minimum(be[:, 0], be[:, 1]).astype(np.int64) * nv
                     + np.maximum(be[:, 0], be[:, 1]))
    if not np.array_equal(keys[counts == 1], tagged):
        raise ValidationError("tagged boundary edges disagree with mesh connectivity")
    normals = polygon.normals[be[:, 2]]
    offsets = polygon.offsets[be[:, 2]]
    for col in (0, 1):
        off = np.abs(np.einsum("ij,ij->i", normals, mesh.vertices[be[:, col]]) - offsets)
        if off.max() > 1e-10:
            raise ValidationError("a tagged boundary edge is off its face's line")


def triangulate(polygon: ConvexPolytope, h: float, grading: float = 0.0,
                grading_centers=None, max_vertices: int = 3_000_000,
                min_edge: float | None = None) -> TriMesh:
    """Fan triangulation from the centroid, refined to max edge <= h.

    The uniform stage splits every fan triangle into k^2 similar copies
    (conforming by construction, quality equal to the fan's). Its nodes are
    numbered in closed form: sector s (from vertex v_s to v_{s+1}) holds
    centroid + (i/k)(v_s - centroid) + (j/k)(v_{s+1} - centroid) for
    i + j <= k, taken i-major; sector s takes its j = 0 ray from the i = 0
    ray of sector s-1, and the last sector its i = 0 ray from the j = 0 ray
    of sector 0. That makes 1 + n k (k + 1) / 2 nodes, so ``max_vertices``
    is checked before any node is made. With grading > 0, triangles near
    the grading centers are bisected further, in array-wide passes that each
    cost only the last pass's pieces and their neighbours (see
    ``_graded_bisection``), until the local edge is below
    h * (d_*(center) / diam)^grading, where d_* is the distance to the
    nearest grading center; ``min_edge`` floors the local target. The
    default centers are the polygon's corners: the vertices whose interior
    angle is below pi by more than ``_FLAT_TURN``, so a polygonal arc is not
    graded (a polygon without such a vertex is not graded at all). A grading,
    ``min_edge`` or ``grading_centers`` out of range, or ``max_vertices``
    above 2**31, raises ``ValidationError``.
    """
    if polygon.dim != 2:
        raise UnsupportedDimension("triangulation is for d = 2 polygons")
    if not h > 0:  # also rejects nan
        raise ValidationError("h must be positive")
    if not 0 <= grading < np.inf:
        raise ValidationError("grading must be finite and non-negative")
    if min_edge is not None and not 0 < min_edge < np.inf:
        raise ValidationError("min_edge must be finite and positive")
    if max_vertices > 2**31:  # a side key holds two vertex indices, 32 bits each
        raise ValidationError("max_vertices must be at most 2**31")
    verts, side_face = polygon_sides(polygon)
    if grading_centers is None:
        centers = verts[_corners(verts)]
    else:
        centers = np.asarray(grading_centers, dtype=float)
        if not (centers.ndim == 2 and len(centers) and centers.shape[1] == 2
                and np.isfinite(centers).all()):
            raise ValidationError("grading_centers must be finite, of shape (k >= 1, 2)")
    n = len(verts)
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    centroid = np.array([float(np.sum((x + xn) * cross)), float(np.sum((y + yn) * cross))]) / (6.0 * area)

    fan_edges = [np.linalg.norm(verts[i] - centroid) for i in range(n)]
    side_lens = [np.linalg.norm(verts[(i + 1) % n] - verts[i]) for i in range(n)]
    # clamped so that a tiny h cannot overflow; a clamped k is over budget anyway
    k = max(1, int(min(np.ceil(max(max(fan_edges), max(side_lens)) / h), max_vertices)))
    if 1 + n * k * (k + 1) // 2 > max_vertices:
        raise BudgetExceeded(f"vertex budget {max_vertices} exceeded during uniform stage")

    # one sector's grid: rows i toward v_s, columns j toward v_{s+1}, i + j <= k;
    # node (i, j) is row pos[i, j] of the i-major list (I, J)
    I, J = np.nonzero(np.add.outer(np.arange(k + 1), np.arange(k + 1)) <= k)
    pos = np.full((k + 1, k + 1), -1, dtype=np.int64)
    pos[I, J] = np.arange(len(I))
    a, b = (I / k)[:, None], (J / k)[:, None]
    va = verts[:, None, :]
    vb = np.roll(verts, -1, axis=0)[:, None, :]
    da, db = va - centroid, vb - centroid
    ray_a, ray_b, rim = J == 0, I == 0, I + J == k
    # the interior formula, then the special cases, in reverse order of
    # precedence: the rays j = 0 and i = 0, the side i + j = k, the centroid
    points = centroid + a * da + b * db  # (n, nodes, 2)
    points[:, ray_b] = centroid + b[ray_b] * db
    points[:, ray_a] = centroid + a[ray_a] * da
    points[:, rim] = a[rim] * va + b[rim] * vb  # exactly on the boundary side
    points[:, 0] = centroid
    new = np.ones((n, len(I)), dtype=bool)
    new[1:, J == 0] = False
    new[-1, I == 0] = False
    ids = np.empty((n, len(I)), dtype=np.int64)
    ids[new] = np.arange(new.sum())
    ids[:, 0] = 0
    ids[1:, pos[1:, 0]] = ids[:-1, pos[0, 1:]]
    ids[-1, pos[0, 1:]] = ids[0, pos[1:, 0]]
    coords = points[new]

    # per cell (i, j), i + j < k: the upward triangle, then the downward one
    # where i + j < k - 1
    Ic, Jc = np.nonzero(np.add.outer(np.arange(k), np.arange(k)) < k)
    cells = np.stack([
        np.stack([pos[Ic, Jc], pos[Ic + 1, Jc], pos[Ic, Jc + 1]], 1),
        np.stack([pos[Ic + 1, Jc], pos[Ic + 1, Jc + 1], pos[Ic, Jc + 1]], 1)], 1)
    cells = cells[np.stack([np.ones(len(Ic), dtype=bool), Ic + Jc < k - 1], 1)]
    tris = np.take(ids, cells, axis=1).reshape(-1, 3)

    # the k boundary edges of each sector, from (k - i, i) to (k - i - 1, i + 1)
    step = np.arange(k)
    ends = np.stack([ids[:, pos[k - step, step]], ids[:, pos[k - step - 1, step + 1]]], -1)
    bedges = np.column_stack([ends.min(-1).ravel(), ends.max(-1).ravel(),
                              np.repeat(side_face, k)])

    edges = None
    if grading > 0.0 and len(centers):
        diam = polygon.diameter
        floor = min_edge if min_edge is not None else 1e-4 * diam
        coords, tris, bedges, edges = _graded_bisection(
            coords, tris, bedges, centers, h, grading, diam, floor, max_vertices)

    bedges = bedges[np.lexsort((bedges[:, 1], bedges[:, 0]))]
    mesh = TriMesh(vertices=coords, triangles=tris, boundary_edges=bedges)
    if edges is not None:
        _check_edge_table(mesh, *edges)
        vars(mesh)["edges"] = edges  # the cached_property's slot: no second sort
    _validate_mesh(mesh, polygon)
    return mesh


# A polygon vertex whose interior angle is within this of pi (10 degrees) is a
# point of a polygonal arc, such as the 64 arc vertices of ``sector_polygon``,
# not a corner the solution feels: the default grading leaves it out.
_FLAT_TURN = np.pi / 18


def _corners(verts: np.ndarray) -> np.ndarray:
    """Mask of the vertices of a counterclockwise cycle that turn by more than _FLAT_TURN."""
    a = verts - np.roll(verts, 1, axis=0)
    b = np.roll(verts, -1, axis=0) - verts
    turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1])
    return turn > _FLAT_TURN


def _graded_bisection(coords, tris, bedges, centers, h, grading, diam, floor,
                      max_vertices):
    """Longest-edge bisection until local targets near the centers are met.

    Each pass marks the longest edge of every too-coarse triangle, closes the
    marking so adjacent triangles stay conforming, and bisects (``_split``);
    new edges are never marked within a pass, so conformity is preserved. A
    triangle a pass leaves whole meets its target ever after, so each pass
    measures only the last pass's pieces (the first: every triangle).

    A pass costs its pieces, the triangles across their sides and the edges
    it marks, not the mesh, because every table is append-only:
    - the refinement forest: the input triangles, then each pass's pieces,
      parent by parent, with their vertices, side edges and longest side;
    - the edges: key min * 2**32 + max, the triangles on its two sides
      (slot 0 the one whose side runs from min to max, slot 1 the other;
      -1 for none) and, once split, its midpoint. A piece's sides are
      numbered from its parent's, not looked up: the parent's unsplit
      sides, the two halves of each split edge (rows 2 q and 2 q + 1 of the
      pass's new rows for its q-th split edge, the halves at min and at
      max) and the pass's inner edges;
    - the boundary rows (edge, face): a split row dies, and the pass appends
      the halves at a of its split rows (a, b, face), then the halves at b;
    - the coordinates: each pass's midpoints in the key order of their edges.
    The marking closes by walking from the marked edges to the triangles
    across them. After the last pass ``_depth_first`` lays out the leaves
    with each triangle replaced in place by its pieces, the order a rewrite
    of the whole triangle list would give pass after pass. Returns (coords,
    tris, bedges, edges): bedges are the live rows (a, b, face), a < b, in
    row order, and edges is the table ``TriMesh.edges`` would sort from the
    output, a side on a split edge (which no conforming run leaves) numbered
    -1; ``_check_edge_table`` refuses such a table.
    """
    nt0, nv = len(tris), len(coords)
    ekey, side = _unique_sides(_edge_keys(tris, 2**32))
    side = side.reshape(3, nt0).T.copy()        # (nodes, 3): the edge of each side
    tri = tris.astype(np.int32)                 # (nodes, 3): vertices, all < 2**31
    longest = np.empty(nt0, dtype=np.int8)      # the side a pass marks first
    n, ne = nt0, len(ekey)
    emid = np.full(ne, -1, dtype=np.int32)      # -2 while marked, then the midpoint
    eadj = np.full((ne, 2), -1, dtype=np.int32)
    for q in range(3):
        slot = 2 * side[:, q].astype(np.int64) + (tris[:, q] > tris[:, (q + 1) % 3])
        eadj.reshape(-1)[slot] = np.arange(nt0)
    bedge = np.searchsorted(ekey, bedges[:, 0] * 2**32 + bedges[:, 1]).astype(np.int32)
    bface = bedges[:, 2].copy()
    nb = len(bedge)
    brow = np.full(ne, -1, dtype=np.int32)      # each edge's boundary row
    brow[bedge] = np.arange(nb)
    splits = []                                 # per pass: parents, pieces of each
    lo = 0                                      # the last pass's pieces: nodes lo..n-1
    for _ in range(200):  # outer passes; each enforces the target once more
        # np.take gathers rows ~10x faster than coords[tris]; explicit columns
        # replace short-axis reductions, with the bits of .mean(axis=1) and
        # np.linalg.norm(axis=-1)
        t = tri[lo:n]
        p = np.take(coords, t, axis=0)
        cent = (p[:, 0] + p[:, 1] + p[:, 2]) / 3
        # the root of the least square distance: the bits of the least distance
        d2 = np.full(len(t), np.inf)
        for cx, cy in centers:
            dx, dy = cent[:, 0] - cx, cent[:, 1] - cy
            np.minimum(d2, dx * dx + dy * dy, out=d2)
        target = np.maximum(h * (np.sqrt(d2) / diam) ** grading, floor)

        nxt = t[:, [1, 2, 0]]  # side s runs from t[:, s] to nxt[:, s]
        e = p - np.take(coords, nxt, axis=0)
        lens = np.sqrt(e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1])            # (F,3)
        lmax = np.maximum(np.maximum(lens[:, 0], lens[:, 1]), lens[:, 2])
        fkeys = np.minimum(t, nxt).astype(np.int64) * 2**32 + np.maximum(t, nxt)
        # longest side with deterministic tie-break: largest length, then
        # smallest edge key among near-equal lengths
        near = lens >= lmax[:, None] - 1e-14
        longest[lo:n] = np.argmin(np.where(near, fkeys, np.iinfo(np.int64).max), axis=1)
        need = lo + np.flatnonzero(lmax > target)
        if not len(need):
            break

        g = _distinct(side[need, longest[need]])
        emid[g] = -2
        marked = [g]
        while len(g):  # the triangles across newly marked edges mark their longest
            adj = eadj[g].ravel()
            adj = adj[adj >= 0]
            g = side[adj, longest[adj]]
            g = _distinct(g[emid[g] == -1])
            emid[g] = -2
            marked.append(g)
        split = np.concatenate(marked)
        split = split[np.argsort(ekey[split])]
        nm = len(split)
        if nv + nm > max_vertices:
            raise BudgetExceeded(f"vertex budget {max_vertices} exceeded during grading")
        emid[split] = np.arange(nv, nv + nm)
        ends = ekey[split]
        a, b = ends >> 32, ends & 0xFFFFFFFF
        coords = _room(coords, nv, nv + nm)
        coords[nv:nv + nm] = 0.5 * (np.take(coords, a, axis=0) + np.take(coords, b, axis=0))

        T = _distinct(eadj[split])
        T = T[T >= 0]
        t, st = tri[T], side[T]
        sm = emid[st]
        rot, pts, case = _split(coords, t, sm)
        rows, which = np.nonzero(_KEEP[case])  # each piece's row, in depth-first order
        kind = case[rows], which
        rows = rows[:, None]
        pieces = pts[rows, _PIECES[kind]]
        # the side labels of _SIDES: halves, inner edges, the parent's sides
        cut1, cut2 = case % 2 == 1, case >= 2
        mid, u, v = (pts[:, c].astype(np.int64) for c in _HALVES)
        inner = np.column_stack([np.arange(len(T)), len(T) - 1 + np.cumsum(cut1),
                                 len(T) - 1 + cut1.sum() + np.cumsum(cut2)])
        labels = np.concatenate([ne + 2 * (mid - nv) + (u > v), ne + 2 * nm + inner,
                                 st[np.arange(len(T))[:, None], rot]], axis=1)
        psides = labels[rows, _SIDES[kind]]

        top = ne + 2 * nm + len(pieces) - len(T)  # new edges: halves, then inner
        ekey, emid, eadj, brow = (_room(arr, ne, top) for arr in (ekey, emid, eadj, brow))
        emid[ne:top] = eadj[ne:top] = brow[ne:top] = -1
        nxt = pieces[:, [1, 2, 0]]
        ekey[psides] = np.minimum(pieces, nxt).astype(np.int64) * 2**32 + np.maximum(pieces, nxt)
        eadj.reshape(-1)[2 * psides + (pieces > nxt)] = np.arange(n, n + len(pieces))[:, None]

        hit = np.flatnonzero(brow[split] >= 0)
        hit = hit[np.argsort(brow[split[hit]])]  # the split rows, in row order
        halves = ne + np.concatenate([2 * hit, 2 * hit + 1])
        new = np.arange(nb, nb + len(halves))
        bedge, bface = _room(bedge, nb, nb + len(new)), _room(bface, nb, nb + len(new))
        bface[new] = np.tile(bface[brow[split[hit]]], 2)
        bedge[new] = halves
        brow[halves] = new
        nb += len(new)

        ne = top
        top = n + len(pieces)
        tri, side, longest = (_room(arr, n, top) for arr in (tri, side, longest))
        tri[n:top], side[n:top] = pieces, psides
        splits.append((T, _COUNT[case]))
        lo, n, nv = n, top, nv + nm
    else:
        raise BudgetExceeded("graded refinement did not settle within 200 passes")

    # each table is dropped once read: the largest meshes peak in this phase
    del eadj, brow, longest
    ends = ekey[bedge[:nb]]
    alive = emid[bedge[:nb]] < 0
    bedges = np.column_stack([ends >> 32, ends & 0xFFFFFFFF, bface[:nb]])[alive]
    leaves = _depth_first(nt0, splits)
    del splits
    tris = np.take(tri, leaves, axis=0).astype(np.int64)
    del tri
    side = np.take(side, leaves, axis=0)
    del leaves
    # the live edges sorted by key, re-encoded min * nv + max, and the rank of each
    live = emid[:ne] < 0
    del emid
    keys = ekey[:ne][live]
    del ekey
    order = np.argsort(keys)
    keys = keys[order]
    rank = np.empty(len(keys), dtype=np.int32)
    rank[order] = np.arange(len(keys), dtype=np.int32)
    del order
    a = keys >> 32
    keys &= 0xFFFFFFFF
    a *= nv
    keys += a
    del a
    edge_rank = np.full(ne, -1, dtype=np.int32)
    edge_rank[live] = rank
    del live, rank
    nt = len(tris)
    side_edge = np.empty(3 * nt, dtype=np.int32)  # in _edge_keys order
    for q in range(3):
        np.take(edge_rank, side[:, q], out=side_edge[q * nt:(q + 1) * nt])
    return coords[:nv].copy(), tris, bedges, (_frozen(keys), _frozen(side_edge))


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending: ``np.unique`` without its slow hash path."""
    x = np.sort(x, axis=None)
    first = np.empty(len(x), dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return x[first]


def _room(a: np.ndarray, used: int, need: int) -> np.ndarray:
    """``a``, or a copy of its first ``used`` rows with room for ``need`` rows.

    The room at least doubles, so appending costs O(1) per row; rows not yet
    written are not resident.
    """
    if need <= len(a):
        return a
    out = np.empty((max(need, 2 * len(a)),) + a.shape[1:], dtype=a.dtype)
    out[:used] = a[:used]
    return out


# A triangle (i, j, kv) splits at its longest marked side (i, j), with
# midpoint m, into (i, m, kv) and (m, j, kv); each half splits again at its
# outer side where that is marked: at m1 on (kv, i), at m2 on (j, kv). Per
# case cut1 + 2 cut2, the pieces in depth-first order (first half, then
# second) as labels 0..5 of the points (i, j, kv, m, m2, m1), padded to four.
_I, _J, _K, _M, _M2, _M1 = range(6)
_PAD = [_I, _I, _I]
_PIECES = np.array([
    [[_I, _M, _K], [_M, _J, _K], _PAD, _PAD],
    [[_K, _M1, _M], [_M1, _I, _M], [_M, _J, _K], _PAD],
    [[_I, _M, _K], [_J, _M2, _M], [_M2, _K, _M], _PAD],
    [[_K, _M1, _M], [_M1, _I, _M], [_J, _M2, _M], [_M2, _K, _M]]])
_COUNT = np.array([2, 3, 3, 4], dtype=np.int8)
_KEEP = np.arange(4) < _COUNT[:, None]
# The pieces' edges as labels 0..11: 0-5 the halves of the split sides,
# rows (midpoint, end, other end) of _HALVES; 6-8 the inner edges (m, kv),
# (m1, m), (m2, m); 9-11 the parent's sides (i, j), (j, kv), (kv, i).
_HALVES = np.array([[_M, _I, _J], [_M, _J, _I], [_M1, _K, _I], [_M1, _I, _K],
                    [_M2, _J, _K], [_M2, _K, _J]]).T


def _side_labels() -> np.ndarray:
    """The edge label of each side (p[q], p[q + 1]) of each piece p of ``_PIECES``."""
    ends = np.concatenate([_HALVES[:2].T, [[_M, _K], [_M1, _M], [_M2, _M], [_I, _J],
                                           [_J, _K], [_K, _I]]])
    label = np.zeros((6, 6), dtype=np.int64)
    label[ends[:, 0], ends[:, 1]] = label[ends[:, 1], ends[:, 0]] = np.arange(12)
    return label[_PIECES, _PIECES[..., [1, 2, 0]]]


_SIDES = _side_labels()


def _split(coords, t, sm):
    """How each triangle bisects at its marked sides (see ``_PIECES``).

    ``sm[:, q]`` is the midpoint vertex of side q = (t[q], t[q+1]), or -1 when
    that side is unmarked; every row has a marked side. The split side is the
    longest marked one, the first of equal lengths. Returns rot, the columns
    (s, s + 1, s + 2) from the split side s, so that t[r, rot[r]] is
    (i, j, kv); the points (i, j, kv, m, m2, m1) of each row; and its case.
    """
    d = np.take(coords, t, axis=0) - np.take(coords, t[:, [1, 2, 0]], axis=0)
    # np.vecdot reproduces the bits of the 1-D np.linalg.norm; axis=1 does not
    L = np.where(sm >= 0, np.sqrt(np.vecdot(d, d)), -1.0)
    rot = (np.argmax(L, axis=1)[:, None] + np.arange(3)) % 3
    r = np.arange(len(t))[:, None]
    pts = np.concatenate([t[r, rot], sm[r, rot]], axis=1)
    return rot, pts, (pts[:, _M1] >= 0) + 2 * (pts[:, _M2] >= 0)


def _depth_first(nroots: int, splits) -> np.ndarray:
    """The leaves of a refinement forest, each root replaced in place by its
    pieces' leaves, first piece first.

    Nodes 0..nroots-1 are the roots; each pass of ``splits`` (parents,
    counts) then appends, parent by parent, counts[k] pieces of leaf
    parents[k]. Leaf counts go bottom-up, a pass at a time from the last;
    then each node's first output row goes top-down. Returns the node of
    every output row.
    """
    starts = np.cumsum([nroots] + [int(c.sum()) for _, c in splits])
    passes = list(zip(splits, starts[:-1], starts[1:]))
    size = np.ones(starts[-1], dtype=np.int64)  # leaves under each node
    leaf = np.ones(starts[-1], dtype=bool)
    for (parents, counts), a, b in reversed(passes):
        size[parents] = np.add.reduceat(size[a:b], np.cumsum(counts) - counts)
        leaf[parents] = False
    at = np.empty(starts[-1], dtype=np.int64)   # each node's first output row
    at[:nroots] = np.cumsum(size[:nroots]) - size[:nroots]
    for (parents, counts), a, b in passes:
        before = np.cumsum(size[a:b]) - size[a:b]  # leaves of the pass's earlier pieces
        at[a:b] = before + np.repeat(at[parents] - before[np.cumsum(counts) - counts], counts)
    leaves = np.flatnonzero(leaf)
    out = np.empty(len(leaves), dtype=np.int64)
    out[at[leaves]] = leaves
    return out


def write_mesh(path, mesh: TriMesh) -> None:
    """Flat text dump: counts, vertex lines, triangle lines, tagged edge lines."""
    with open(path, "w") as f:
        f.write(f"{len(mesh.vertices)} {len(mesh.triangles)} {len(mesh.boundary_edges)}\n")
        for x, y in mesh.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for a, b, c in mesh.triangles:
            f.write(f"{a} {b} {c}\n")
        for a, b, face in mesh.boundary_edges:
            f.write(f"{a} {b} {face}\n")


# ---------------------------------------------------------------------------
# coefficients and problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientField:
    """x -> symmetric 2x2 matrix A(x)."""

    evaluator: object

    @classmethod
    def identity(cls) -> "CoefficientField":
        return cls.constant(np.eye(2))

    @classmethod
    def constant(cls, matrix) -> "CoefficientField":
        A = np.asarray(matrix, dtype=float)
        if A.shape != (2, 2) or A[0, 1] != A[1, 0]:
            raise NonSymmetricCoefficients("constant coefficient matrix must be symmetric 2x2")
        w = np.linalg.eigvalsh(A)
        if w[0] <= 0:
            raise ValidationError("coefficient matrix must be positive definite")
        return cls(evaluator=A.copy())

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        if isinstance(self.evaluator, np.ndarray):
            return np.broadcast_to(self.evaluator, (len(points), 2, 2))
        out = np.asarray(self.evaluator(points), dtype=float)
        if out.shape != (len(points), 2, 2):
            raise ValidationError(f"a coefficient evaluator must map (n, 2) points to shape "
                                  f"({len(points)}, 2, 2), got shape {out.shape}")
        return out


@dataclass(frozen=True, eq=False)
class DirichletProblem:
    """-div(A grad u) = 0 with trace g(x/eps) or an explicit boundary function."""

    polygon: ConvexPolytope
    coefficients: CoefficientField
    periodic_data: object = None      # PeriodicFunction
    epsilon: float | None = None
    explicit_data: object = None      # callable (n, 2) -> (n,)

    def __post_init__(self):
        periodic_mode = self.periodic_data is not None
        explicit_mode = self.explicit_data is not None
        if periodic_mode == explicit_mode:
            raise ValidationError("exactly one of periodic_data and explicit_data is required")
        if periodic_mode and (self.epsilon is None or self.epsilon <= 0):
            raise ValidationError("epsilon must be positive in periodic mode")

    def boundary_values(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        if self.periodic_data is not None:
            vals = periodic.evaluate(self.periodic_data, points / self.epsilon)
            return vals.real if self.periodic_data.real_valued else vals
        vals = np.asarray(self.explicit_data(points))
        if vals.shape != (len(points),):
            raise ValidationError(f"explicit_data must map (n, 2) points to shape "
                                  f"({len(points)},), got shape {vals.shape}")
        return vals


@dataclass(frozen=True)
class SolverConfig:
    linear_tol: float = 1e-10
    max_iter: int = 200_000

    def __post_init__(self):
        # CG run for no iteration returns its zero guess as converged
        if not self.linear_tol > 0:  # also rejects nan
            raise ValidationError("linear_tol must be positive")
        if not self.max_iter >= 1:
            raise ValidationError("max_iter must be at least 1")


@dataclass(eq=False)
class FemSolution:
    mesh: TriMesh
    values: np.ndarray
    iterations: int
    residual: float


# ---------------------------------------------------------------------------
# assembly and solve
# ---------------------------------------------------------------------------

# gradients of the reference hat functions, one row per vertex
_GREF = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

# smoothed aggregation: strength-of-connection threshold, and the size at
# or below which a level is factored instead of coarsened
_STRENGTH = 0.08
_COARSEST = 500
# stiffness entries |k_uv| <= _ROUNDOFF sqrt(k_uu k_vv) are not stored: for
# A = I, k_uv = -(cot alpha + cot beta) / 2, so one that small is coordinate
# roundoff (the right angles of the fan's sub-triangles make many of them)
_ROUNDOFF = 1e-12
# point location tests this many triangles at a time
_LOCATE_BLOCK = 2**14


def _local_stiffness(mesh: TriMesh, A_field: CoefficientField):
    """Per triangle: the diagonal entries K_ii and the entries K_i,i+1 of its P1 stiffness.

    Both are (3, nt), row i for vertex i and side (i, i+1), so raveled they
    follow ``_edge_keys``; the work is on 1-D coordinate columns, the side
    vectors overwrite the gathered coordinates and both outputs are written
    in place. With e_i the side opposite vertex i and R the quarter turn,
    grad phi_i = R e_i / (2 area), so K_ij = (R e_i)^T A (R e_j) / (4 area),
    A taken at the barycenter (only a variable field is evaluated there).
    """
    x, y = mesh.vertices.T
    px, py = [np.take(x, t) for t in mesh.triangles.T], [np.take(y, t) for t in mesh.triangles.T]
    A = A_field.evaluator
    if not isinstance(A, np.ndarray):
        A = A_field.evaluate_many(np.column_stack([(px[0] + px[1] + px[2]) / 3.0,
                                                   (py[0] + py[1] + py[2]) / 3.0]))
    if np.any(A[..., 0, 1] != A[..., 1, 0]):
        raise NonSymmetricCoefficients("A(x) is not symmetric at a barycenter")
    # e_0 = p_2 - p_1, e_1 = p_0 - p_2, e_2 = p_1 - p_0: the last two over p_2, p_1
    ex = [px[2] - px[1], np.subtract(px[0], px[2], out=px[2]), np.subtract(px[1], px[0], out=px[1])]
    ey = [py[2] - py[1], np.subtract(py[0], py[2], out=py[2]), np.subtract(py[1], py[0], out=py[1])]
    del px, py
    w = ex[1] * ey[2]
    w -= ey[1] * ex[2]                   # twice the area
    np.divide(0.5, w, out=w)
    a00, a01, a11 = (A[..., r, c] * w for r, c in ((0, 0), (0, 1), (1, 1)))
    del A, w
    diag, off = np.empty((3, len(a00))), np.empty((3, len(a00)))
    bx, by, tmp = np.empty((3, len(a00)))
    for i in range(3):
        j = (i + 1) % 3
        # R^T A R e_i / (2 det), with R^T A R = [[a11, -a01], [-a01, a00]]
        np.multiply(a11, ex[i], out=bx)
        bx -= np.multiply(a01, ey[i], out=tmp)
        np.multiply(a00, ey[i], out=by)
        by -= np.multiply(a01, ex[i], out=tmp)
        np.multiply(bx, ex[i], out=diag[i])
        diag[i] += np.multiply(by, ey[i], out=tmp)
        np.multiply(bx, ex[j], out=off[i])
        off[i] += np.multiply(by, ey[j], out=tmp)
    return diag, off


def _pair_bound(d: np.ndarray, u: np.ndarray, v: np.ndarray, factor: float) -> np.ndarray:
    """factor * sqrt(d_u d_v) for every pair (u, v), computed in one array."""
    bound = np.take(d, u)
    bound *= np.take(d, v)
    np.sqrt(bound, out=bound)
    bound *= factor
    return bound


def _aggregate(A) -> np.ndarray:
    """Aggregate index of every node of A, from distance-2 independent roots.

    Strong connections are |a_ij| >= _STRENGTH sqrt(a_ii a_jj), i != j; the
    max over a node and its strong neighbours is one scatter-max over them.
    Roots are a maximal set of nodes more than two strong steps apart, chosen
    by fixed priorities (a seeded permutation): each round takes every
    undecided node whose key is the largest within two steps and drops every
    one with a root within two. Other nodes join the highest-priority root
    one step away, then the remaining ones the aggregate of the
    highest-priority root among their neighbours' aggregates.
    """
    n = A.shape[0]
    d = A.diagonal()
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
    strong = np.abs(A.data) >= _pair_bound(d, rows, A.indices, _STRENGTH)
    strong &= rows != A.indices
    rows, cols = rows[strong], A.indices[strong]

    def near(values):  # per node: max of values over itself and its strong neighbours
        out = values.copy()
        np.maximum.at(out, rows, np.take(values, cols))
        return out

    # key = state * n + priority, with state 0 dropped, 1 undecided, 2 root
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
    agg = np.full(n, -1, dtype=np.int32)
    agg[root] = np.arange(root.sum())
    root_prio = prio[root]
    node_of = np.empty(n, dtype=np.int32)  # inverse of the permutation prio
    node_of[prio] = np.arange(n)
    for _ in range(2):      # the ring around each root, then the ring beyond
        best = near(np.where(agg >= 0, root_prio[agg], -1))
        join = (agg < 0) & (best >= 0)
        agg[join] = agg[node_of[best[join]]]
    # only where a coarse level's roundoff made S unsymmetric
    lone = agg < 0
    agg[lone] = root.sum() + np.arange(lone.sum())
    return agg


@dataclass(eq=False)
class _Level:
    A: object            # csr matrix of this level
    smooth: np.ndarray   # omega / diag(A): one damped Jacobi sweep
    P: object            # prolongator from the next coarser level
    R: object            # its transpose


def _hierarchy(A) -> tuple[list, object]:
    """Smoothed-aggregation levels (Vanek, Mandel & Brezina, Computing 56, 1996).

    Each level's tentative prolongator maps an aggregate to the indicator of
    its nodes; one damped Jacobi step, omega = 4 / (3 rho) with rho the
    Gershgorin bound on the spectral radius of D^-1 A (2 for an M-matrix),
    smooths it, and the next level is P^T A P. Levels of at most _COARSEST
    unknowns, or that do not coarsen, get a sparse LU factor.
    """
    levels = []
    while A.shape[0] > _COARSEST:
        n = A.shape[0]
        agg = _aggregate(A)
        nagg = int(agg.max()) + 1
        if nagg == n:
            break
        d = A.diagonal()
        rho = float(np.max(np.add.reduceat(np.abs(A.data), A.indptr[:-1]) / d))
        smooth = (4.0 / (3.0 * rho)) / d
        # P's COO entries: 1 at (i, agg_i) for every i, then -smooth_i a_ij at
        # (i, agg_j) for every stored a_ij; .tocsr() sums duplicates in this order
        m = n + len(A.indices)
        rows, cols, vals = np.empty(m, dtype=np.int32), np.empty(m, dtype=np.int32), np.empty(m)
        rows[:n] = np.arange(n)
        rows[n:] = np.repeat(rows[:n], np.diff(A.indptr))
        cols[:n] = agg
        np.take(agg, A.indices, out=cols[n:])
        vals[:n] = 1.0
        np.negative(np.take(smooth, rows[n:], out=vals[n:]), out=vals[n:])
        vals[n:] *= A.data
        P = sp.coo_matrix((vals, (rows, cols)), shape=(n, nagg)).tocsr()
        del rows, cols, vals
        R = P.T.tocsr()
        levels.append(_Level(A=A, smooth=smooth, P=P, R=R))
        A = (R @ (A @ P)).tocsr()
    return levels, spla.splu(A.tocsc())


class _DirichletSystem:
    """The pinned P1 system of one mesh and coefficient field.

    Sums the stiffness per vertex and per edge of the mesh's edge table,
    leaves out edges with |k_uv| <= _ROUNDOFF sqrt(k_uu k_vv), and builds the
    interior block Kii (each edge entered on both sides, so exactly symmetric)
    and -Kib from the interior-interior and interior-boundary edges. The
    V-cycle hierarchy is built on first use. It keeps no reference to the
    mesh, so a cached system dies with it.
    """

    def __init__(self, mesh: TriMesh, A: CoefficientField):
        keys, side_edge = mesh.edges
        self.nv = nv = len(mesh.vertices)
        diag, off = _local_stiffness(mesh, A)
        kd = np.bincount(mesh.triangles.T.ravel(), weights=diag.ravel(), minlength=nv)
        del diag
        ke = np.bincount(side_edge, weights=off.ravel(), minlength=len(keys))
        del off
        u, v = np.divmod(keys, nv)
        kept = np.abs(ke) > _pair_bound(kd, u, v, _ROUNDOFF)
        self.boundary = mesh.boundary_nodes
        on_b = np.zeros(nv, dtype=bool)
        on_b[self.boundary] = True
        self.interior = np.flatnonzero(~on_b)
        ni = len(self.interior)
        # each node's position within the interior or the boundary nodes
        index = np.empty(nv, dtype=np.int32)
        index[self.interior] = np.arange(ni)
        index[self.boundary] = np.arange(len(self.boundary))
        bu, bv = on_b[u], on_b[v]
        ii, ib = kept & ~bu & ~bv, kept & (bu != bv)
        # int32 COO entries, so scipy's linear COO -> CSR pass copies no index
        iu, iv, k = np.take(index, u[ii]), np.take(index, v[ii]), ke[ii]
        diagonal = np.arange(ni, dtype=np.int32)
        self.Kii = sp.csr_matrix((np.concatenate([kd[self.interior], k, k]),
                                  (np.concatenate([diagonal, iu, iv]),
                                   np.concatenate([diagonal, iv, iu]))), shape=(ni, ni))
        del iu, iv, k, diagonal
        u, v, swap = u[ib], v[ib], bu[ib]
        self.neg_Kib = sp.csr_matrix((-ke[ib], (np.take(index, np.where(swap, v, u)),
                                                np.take(index, np.where(swap, u, v)))),
                                     shape=(ni, len(self.boundary)))
        self._levels = self._coarse = None

    def vcycle(self, b: np.ndarray, k: int = 0) -> np.ndarray:
        """One V-cycle from zero: a symmetric positive definite approximate inverse of Kii."""
        if self._levels is None:
            self._levels, self._coarse = _hierarchy(self.Kii)
        if k == len(self._levels):
            return self._coarse.solve(b)
        L = self._levels[k]
        x = L.smooth * b
        x += L.P @ self.vcycle(L.R @ (b - L.A @ x), k + 1)
        x += L.smooth * (b - L.A @ x)
        return x

    def solve(self, vb: np.ndarray, config: SolverConfig):
        """(values, iterations, residual) with the boundary pinned to the real row ``vb``."""
        x, iters, res = self._cg(self.neg_Kib @ vb, config)
        u = np.zeros(self.nv)
        u[self.boundary] = vb
        u[self.interior] = x
        return u, iters, res

    def _cg(self, rhs: np.ndarray, config: SolverConfig):
        """Kii x = rhs by V-cycle-preconditioned CG: (x, iterations, ||rhs - Kii x|| / ||rhs||).

        The recurrence of ``scipy.sparse.linalg.cg`` from x = 0, stopping when
        ||r|| < linear_tol ||rhs||, with its dot products taken by ``_dot``.
        """
        bnorm = np.sqrt(_dot(rhs, rhs))
        if bnorm == 0.0:
            return np.zeros_like(rhs), 0, 0.0
        x, r = np.zeros_like(rhs), rhs.copy()
        for iterations in range(config.max_iter):
            if np.sqrt(_dot(r, r)) < config.linear_tol * bnorm:
                break
            z = self.vcycle(r)
            rho = _dot(r, z)
            if iterations:
                p *= rho / rho_prev
                p += z
            else:
                p = z.copy()
            q = self.Kii @ p
            alpha = rho / _dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
        else:
            iterations = config.max_iter
        r = rhs - self.Kii @ x
        res = float(np.sqrt(_dot(r, r)) / bnorm)
        if iterations == config.max_iter:
            raise NoConvergence(f"cg stopped at relative residual {res:.3e} "
                                f"after {iterations} iterations")
        return x, iterations, res


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed by numpy's own loop: BLAS ddot splits long sums across its
    threads, so its bits would depend on the thread count."""
    return float(np.einsum("i,i->", a, b))


# per mesh, per coefficient field; an entry dies with its mesh
_SYSTEMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _system(mesh: TriMesh, A: CoefficientField) -> _DirichletSystem:
    """The mesh's cached ``_DirichletSystem`` for A, built on first use."""
    per_mesh = _SYSTEMS.setdefault(mesh, {})
    if A not in per_mesh:
        per_mesh[A] = _DirichletSystem(mesh, A)
    return per_mesh[A]


def solve_dirichlet(problem: DirichletProblem, mesh: TriMesh,
                    config: SolverConfig = SolverConfig()) -> FemSolution:
    """P1 Galerkin solve with boundary nodes pinned to the prescribed data.

    Complex data is solved as its real and imaginary parts; the solution
    reports the larger iteration count and residual of the two.
    """
    boundary = mesh.boundary_nodes
    values_b = problem.boundary_values(mesh.vertices[boundary])
    system = _system(mesh, problem.coefficients)
    if not np.iscomplexobj(values_b):
        return FemSolution(mesh, *system.solve(values_b, config))
    (re, it_re, res_re), (im, it_im, res_im) = (system.solve(part, config)
                                                for part in (values_b.real, values_b.imag))
    u = re + 1j * im
    u[boundary] = values_b  # exact data: re + 1j * im turns a -0.0 real part into 0.0
    return FemSolution(mesh=mesh, values=u, iterations=max(it_re, it_im),
                       residual=max(res_re, res_im))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _barycentric(mesh: TriMesh, t: int, x: np.ndarray) -> np.ndarray:
    a, b, c = mesh.vertices[mesh.triangles[t]]
    T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
    st = np.linalg.solve(T, x - a)
    return np.array([1.0 - st[0] - st[1], st[0], st[1]])


def _locate(mesh: TriMesh, x) -> tuple[int, np.ndarray]:
    """Lowest-index triangle whose three barycentrics at x are all >= -1e-12.

    Triangles are tested in index order, ``_LOCATE_BLOCK`` at a time, and
    the scan ends at the first block that holds one, so its memory does not
    grow with the mesh. The weights returned are ``_barycentric``'s for the
    chosen triangle, because the explicit formula's differ from them in the
    last bits.
    """
    x = np.asarray(x, dtype=float)
    for lo in range(0, len(mesh.triangles), _LOCATE_BLOCK):
        inside = _containing(mesh, x, lo, lo + _LOCATE_BLOCK)
        if inside.size:
            found = lo + int(inside[0])
            return found, _barycentric(mesh, found, x)
    raise OutsideDomain("point is not inside any mesh triangle")


def _containing(mesh: TriMesh, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Offsets from lo of the triangles lo..hi-1 whose barycentrics at x are
    all >= -1e-12, each tested with the explicit 2x2 inverse. A function of
    its own, so one block's temporaries are freed before the next is made."""
    p = np.take(mesh.vertices, mesh.triangles[lo:hi], axis=0)
    e1, e2, r = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], x - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    s = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
    t = (e1[:, 0] * r[:, 1] - e1[:, 1] * r[:, 0]) / det
    return np.flatnonzero((s >= -1e-12) & (t >= -1e-12) & (1.0 - s - t >= -1e-12))


def evaluate_solution(sol: FemSolution, x):
    """Barycentric interpolation at x in the triangle ``_locate`` picks."""
    t, lam = _locate(sol.mesh, x)
    return sol.values[sol.mesh.triangles[t]] @ lam


def evaluate_gradient(sol: FemSolution, x) -> np.ndarray:
    """Piecewise-constant P1 gradient at x."""
    t, _ = _locate(sol.mesh, x)
    tri = sol.mesh.triangles[t]
    a, b, c = sol.mesh.vertices[tri]
    T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
    grads = _GREF @ np.linalg.inv(T)
    return sol.values[tri] @ grads


def lp_error(sol: FemSolution, reference: float, p: float) -> float:
    """||u - reference||_{L^p} by the 3-point edge-midpoint rule per triangle.

    One (nt, 3) gather of the nodal values becomes, in place, the midpoint
    values, |. - reference|^p and the area-weighted terms.
    """
    if not 1 <= p < np.inf:  # also rejects nan
        raise ValidationError("p must be finite and >= 1")
    u = np.take(sol.values, sol.mesh.triangles)
    u0 = u[:, 0].copy()
    u[:, 0] += u[:, 1]
    u[:, 1] += u[:, 2]
    u[:, 2] += u0
    del u0
    u /= 2
    u -= reference
    w = np.abs(u) if np.iscomplexobj(u) else np.abs(u, out=u)
    w **= p
    w *= (sol.mesh.areas / 3.0)[:, None]
    return float(np.sum(w)) ** (1.0 / p)


def write_solution_csv(path, sol: FemSolution) -> None:
    with open(path, "w") as f:
        f.write("vertex,x,y,value\n")
        complex_vals = np.iscomplexobj(sol.values)
        for i, ((x, y), v) in enumerate(zip(sol.mesh.vertices, sol.values)):
            val = complex(v) if complex_vals else float(np.real(v))
            f.write(f"{i},{float(x)!r},{float(y)!r},{val!r}\n")


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def harmonic_measure(polygon: ConvexPolytope, A: CoefficientField, patch, x,
                     mesh: TriMesh) -> float:
    """omega(x, patch): solve on ``mesh`` with data 1 on patch nodes, 0 elsewhere.

    ``patch`` is a predicate on boundary points; positivity of the kernel
    makes the value at x approximate the integral of P(x, .) over the patch.
    """
    problem = DirichletProblem(
        polygon=polygon, coefficients=A,
        explicit_data=lambda pts: np.array([1.0 if patch(p) else 0.0 for p in pts]))
    return float(evaluate_solution(solve_dirichlet(problem, mesh), x))


def kernel_bound_probe(polygon: ConvexPolytope, A: CoefficientField, x,
                       arcs_per_face: int = 32, h: float | None = None) -> dict:
    """Per-arc ratios omega(x, arc) / (len * d(x) / dist(x, arc)^2).

    One adjoint solve gives the discrete Poisson kernel at x: with w the
    barycentric weights of x on the nodes, every discrete solution has
    u(x) = mu . u_b for mu = -Kib^T Kii^-1 w_i + w_b (Kii is symmetric), so
    omega(x, arc) is the sum of mu over the arc's nodes. Each face has n =
    ``arcs_per_face`` equal half-open arcs; a node at face parameter t is in
    arc floor((t + 1e-12) n), so a shared corner is arc 0 of the next face and
    dyadic n align with the fan's nodes. The max ratio is the bound's measured
    constant; ``iterations`` and ``residual`` are those of the adjoint CG solve.
    """
    if not (isinstance(arcs_per_face, (int, np.integer)) and arcs_per_face >= 1):
        raise ValidationError("arcs_per_face must be a positive integer")
    x = np.asarray(x, dtype=float)
    fs = faces(polygon)
    if h is None:
        h = min(f.measure for f in fs) / (4.0 * arcs_per_face)
    mesh = triangulate(polygon, h)
    system = _system(mesh, A)
    found, lam = _locate(mesh, x)
    w = np.zeros(system.nv)
    w[mesh.triangles[found]] = lam
    y, iterations, residual = system._cg(w[system.interior], SolverConfig())
    mu = system.neg_Kib.T @ y + w[system.boundary]
    bpts = mesh.vertices[system.boundary]
    dx = distance_to_boundary(polygon, x)

    n = arcs_per_face
    omega, ends = [], []
    for f in fs:
        va, vb = f.vertices
        t = ((bpts - va) @ (vb - va)) / float((vb - va) @ (vb - va))
        arc = np.floor((t + 1e-12) * n)
        keep = (np.abs(bpts @ f.normal - f.offset) <= 1e-10) & (arc >= 0) & (arc < n)
        omega.append(np.bincount(arc[keep].astype(int), weights=mu[keep], minlength=n))
        ends.append(va + (np.arange(n + 1) / n)[:, None] * (vb - va))
    ends = np.array(ends)  # (faces, n + 1, 2)
    p0, p1 = ends[:, :-1].reshape(-1, 2), ends[:, 1:].reshape(-1, 2)
    ell, dist = np.linalg.norm(p1 - p0, axis=1), _segment_distances(x, p0, p1)
    ratios = np.concatenate(omega) / (ell * dx / dist ** 2)
    return {"ratios": ratios, "max_ratio": float(np.max(ratios)),
            "arcs_per_face": arcs_per_face, "h": h,
            "iterations": iterations, "residual": residual}


def sector_polygon(omega: float, arc_segments: int = 64) -> ConvexPolytope:
    """Polygonal approximation of the unit circular sector of opening omega."""
    if not 0 < omega < np.pi:
        raise ValidationError("sector opening must be in (0, pi)")
    ts = np.linspace(0.0, omega, arc_segments + 1)
    verts = np.vstack([[0.0, 0.0], np.stack([np.cos(ts), np.sin(ts)], axis=1)])
    return polygon_from_vertices(verts)


# the probes' sample radii along a ray from a corner
_RADII = [2.0 ** (-j) for j in range(2, 8)]


def _ray_solve(polygon: ConvexPolytope, A: CoefficientField, data, corner: np.ndarray,
               direction: np.ndarray, h: float, grading: float):
    """Solve on a mesh graded toward ``corner`` with floor h (min r / diam)^grading / 4.

    Returns the solution and the points corner + r direction for r in ``_RADII``.
    """
    floor = h * (min(_RADII) / polygon.diameter) ** grading / 4.0
    mesh = triangulate(polygon, h, grading=grading, grading_centers=corner[None, :],
                       min_edge=floor)
    problem = DirichletProblem(polygon=polygon, coefficients=A, explicit_data=data)
    return solve_dirichlet(problem, mesh), [corner + r * direction for r in _RADII]


def corner_probe(omega: float, h: float = 0.05, grading: float = 1.0,
                 arc_segments: int = 64) -> dict:
    """Fitted growth exponent of the harmonic measure of the arc near the apex.

    Solves with zero data on the two radii and 1 on the arc of a radius-1
    sector, samples along the bisector at r = 2^-2, ..., 2^-7, and returns
    the least-squares slope of log u against log r (theory: pi / omega).
    """
    from .harness import fit_rate  # harness imports fem

    poly = sector_polygon(omega, arc_segments)
    sides = poly.halfspaces[0], poly.halfspaces[-1]  # the radii: edges touching the apex

    def data(pts):
        return np.where(np.any([np.abs(pts @ f.normal - f.offset) <= 1e-10 for f in sides],
                               axis=0), 0.0, 1.0)

    sol, points = _ray_solve(poly, CoefficientField.identity(), data, np.zeros(2),
                             np.array([np.cos(omega / 2.0), np.sin(omega / 2.0)]), h, grading)
    samples = [(r, float(np.real(evaluate_solution(sol, p)))) for r, p in zip(_RADII, points)]
    fit = fit_rate([(r, v) for r, v in samples if v > 0])
    return {"omega": float(omega), "fitted_exponent": fit.exponent, "stderr": fit.stderr,
            "samples": samples, "mesh_vertices": len(sol.mesh.vertices)}


def gradient_probe(polygon: ConvexPolytope, A: CoefficientField, data_fn, corner,
                   direction, h: float = 0.05, grading: float = 1.0) -> list:
    """Sampled (d_*(x), |grad u(x)|) pairs along a ray from a corner.

    The samples sit at r = 2^-2, ..., 2^-7 along ``direction``. The boundary
    data must vanish on the faces incident to the probed corner so the
    solution obeys the corner barrier there.
    """
    corner = np.asarray(corner, dtype=float)
    direction = np.asarray(direction, dtype=float)
    length = np.linalg.norm(direction)
    if not 0.0 < length < np.inf:
        raise ValidationError("direction must be a nonzero finite vector")
    sol, points = _ray_solve(polygon, A, data_fn, corner, direction / length, h, grading)
    return [(float(distance_to_singular(polygon, x)),
             float(np.linalg.norm(evaluate_gradient(sol, x)))) for x in points]
