"""Conforming P1 finite elements on convex polygons (d = 2).

Meshes come from a centroid fan subdivided uniformly to the target edge
length, with optional longest-edge bisection (Rivara, IJNME 20, 1984) graded
toward selected corners. Both stages work on whole arrays: the fan's nodes,
triangles and boundary edges are numbered in closed form, and each bisection
pass marks, closes and splits every edge at once, so a mesh costs a fixed
number of numpy passes rather than a Python step per node or triangle.
The solver assembles the stiffness of -div(A grad u) in closed form with
one-point coefficient quadrature at barycenters, pins Dirichlet nodes, and
runs conjugate gradients preconditioned by a smoothed-aggregation algebraic
multigrid V-cycle; the assembled system is cached per mesh and coefficient
field, so repeated solves on one mesh set up once. Probes built on top estimate
harmonic measures of boundary arcs, pointwise Poisson-kernel bounds (from one
adjoint solve), and corner exponents of solutions vanishing on the faces
incident to a vertex.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

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
    distance_to_boundary,
    faces,
    polygon_from_vertices,
    polygon_vertices,
)


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming triangle mesh with tagged boundary edges.

    ``boundary_edges`` rows are (a, b, face_index); all triangles are
    counterclockwise. The arrays are made read-only, because solves cache
    the assembled system per mesh object.
    """

    vertices: np.ndarray       # (nv, 2)
    triangles: np.ndarray      # (nt, 3) int
    boundary_edges: np.ndarray  # (nb, 3) int

    def __post_init__(self):
        for a in (self.vertices, self.triangles, self.boundary_edges):
            a.setflags(write=False)

    @property
    def boundary_nodes(self) -> np.ndarray:
        return np.unique(self.boundary_edges[:, :2])

    @property
    def areas(self) -> np.ndarray:
        p = np.take(self.vertices, self.triangles, axis=0)
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    @property
    def max_edge(self) -> float:
        p = self.vertices[self.triangles]
        e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        return float(np.sqrt((e ** 2).sum(-1)).max())


def _edge_keys(tri: np.ndarray, nv: int) -> np.ndarray:
    """Key min * nv + max of every side: all sides (0, 1), then (1, 2), then (2, 0)."""
    u = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2]]).astype(np.int64)
    v = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
    return np.minimum(u, v) * nv + np.maximum(u, v)


def _validate_mesh(mesh: TriMesh, polygon: ConvexPolytope) -> None:
    areas = mesh.areas
    if np.any(areas <= 0):
        raise ValidationError("mesh has non-positive triangle areas")
    nv = len(mesh.vertices)
    keys = _edge_keys(mesh.triangles, nv)
    uniq, counts = np.unique(keys, return_counts=True)
    if counts.max() > 2:
        raise ValidationError("non-conforming mesh: edge shared by more than two triangles")
    boundary_keys = set(uniq[counts == 1].tolist())
    be = mesh.boundary_edges
    tagged = set((np.minimum(be[:, 0], be[:, 1]).astype(np.int64) * nv
                  + np.maximum(be[:, 0], be[:, 1])).tolist())
    if boundary_keys != tagged:
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
    the grading centers (default: the polygon vertices) are bisected further,
    in array-wide passes (see ``_graded_bisection``), until the local edge is
    below h * (d_*(center) / diam)^grading, where d_* is the distance to the
    nearest grading center; ``min_edge`` floors the local target.
    """
    if polygon.dim != 2:
        raise UnsupportedDimension("triangulation is for d = 2 polygons")
    if not h > 0:  # also rejects nan
        raise ValidationError("h must be positive")
    verts = np.asarray(polygon_vertices(polygon))
    n = len(verts)
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    centroid = np.array([float(np.sum((x + xn) * cross)), float(np.sum((y + yn) * cross))]) / (6.0 * area)

    # face tag per polygon side (midpoint against each half-space line)
    normals, offsets = polygon.normals, polygon.offsets
    side_face = []
    for i in range(n):
        mid = 0.5 * (verts[i] + verts[(i + 1) % n])
        side_face.append(int(np.argmin(np.abs(normals @ mid - offsets))))

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

    if grading > 0.0:
        centers = np.asarray(grading_centers if grading_centers is not None else verts, dtype=float)
        diam = polygon.diameter
        floor = min_edge if min_edge is not None else 1e-4 * diam
        coords, tris, bedges = _graded_bisection(
            coords, tris, bedges, centers, h, grading, diam, floor, max_vertices)

    bedges = bedges[np.lexsort((bedges[:, 1], bedges[:, 0]))]
    mesh = TriMesh(vertices=coords, triangles=tris, boundary_edges=bedges)
    _validate_mesh(mesh, polygon)
    return mesh


def _graded_bisection(coords, tris, bedges, centers, h, grading, diam, floor,
                      max_vertices):
    """Longest-edge bisection until local targets near the centers are met.

    Each pass marks the longest edge of every too-coarse triangle, closes the
    marking so adjacent triangles stay conforming, and bisects; new edges are
    never marked within a pass, so conformity is preserved. Boundary edges are
    rows (a, b, face) with a < b; a bisected one is replaced by its halves.
    """
    for _ in range(200):  # outer passes; each enforces the target once more
        nv = len(coords)
        # np.take gathers rows ~10x faster than coords[tris]; explicit columns
        # replace short-axis reductions, with the bits of .mean(axis=1) and
        # np.linalg.norm(axis=-1)
        p = np.take(coords, tris, axis=0)
        cent = (p[:, 0] + p[:, 1] + p[:, 2]) / 3
        dc = cent[:, None, :] - centers[None, :, :]
        dstar = np.sqrt(dc[..., 0] * dc[..., 0] + dc[..., 1] * dc[..., 1]).min(axis=1)
        target = np.maximum(h * (dstar / diam) ** grading, floor)

        nxt = tris[:, [1, 2, 0]]  # side s runs from tris[:, s] to nxt[:, s]
        e = p - np.take(coords, nxt, axis=0)
        lens = np.sqrt(e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1])            # (T,3)
        lmax = np.maximum(np.maximum(lens[:, 0], lens[:, 1]), lens[:, 2])
        keys = np.minimum(tris, nxt) * nv + np.maximum(tris, nxt)                # (T,3)
        # longest side with deterministic tie-break: largest length, then
        # smallest edge key among near-equal lengths
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

        # midpoints of the marked edges, numbered in sorted-key order
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
        tris = _bisect_marked(coords, tris, midpoint[inv])
    else:
        raise BudgetExceeded("graded refinement did not settle within 200 passes")
    return coords, tris, bedges


def _bisect_marked(coords, tris, side_mid):
    """Bisect each triangle at its longest marked side, then its halves.

    ``side_mid[t, s]`` is the midpoint vertex of side s = (t[s], t[s+1]), or
    -1 when that side is unmarked. A triangle splits at its longest marked
    side (the first of equal lengths); each half has at most one marked side,
    an outer side of the parent, and splits there, after which no marked side
    is left. The output lists, triangle by triangle, the untouched triangle
    or its two to four pieces in depth-first order (first half, then second).
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
    out[(first[:, None] + np.cumsum(keep, axis=1) - 1)[keep]] = pieces[keep]
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


def _local_stiffness(mesh: TriMesh, A_field: CoefficientField):
    """Per triangle: the diagonal entries K_ii and the entries K_i,i+1 of its P1 stiffness.

    With e_i the side opposite vertex i and R the quarter turn,
    grad phi_i = R e_i / (2 area), so K_ij = (R e_i)^T A (R e_j) / (4 area),
    A taken at the barycenter.
    """
    p = np.take(mesh.vertices, mesh.triangles, axis=0)
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    ex, ey = e[..., 0], e[..., 1]
    det = ex[:, 1] * ey[:, 2] - ey[:, 1] * ex[:, 2]   # twice the area
    Abar = A_field.evaluate_many((p[:, 0] + p[:, 1] + p[:, 2]) / 3.0)
    if np.any(Abar[:, 0, 1] != Abar[:, 1, 0]):
        raise NonSymmetricCoefficients("A(x) is not symmetric at a barycenter")
    w = 0.5 / det
    a00, a01, a11 = (Abar[:, r, c, None] * w[:, None] for r, c in ((0, 0), (0, 1), (1, 1)))
    # R^T A R e_i / (2 det), with R^T A R = [[a11, -a01], [-a01, a00]]
    bx, by = a11 * ex - a01 * ey, a00 * ey - a01 * ex
    nxt = [1, 2, 0]
    return bx * ex + by * ey, bx * ex[:, nxt] + by * ey[:, nxt]


def _assemble(mesh: TriMesh, A_field: CoefficientField):
    """Stiffness matrix, built once the per-triangle arrays are freed.

    Each off-diagonal entry is entered twice, so K is exactly symmetric.
    """
    diag, off = _local_stiffness(mesh, A_field)
    off = off.ravel()
    t = mesh.triangles.astype(np.int32).ravel()   # vertex budgets are far below 2^31
    tn = mesh.triangles[:, [1, 2, 0]].astype(np.int32).ravel()
    nv = len(mesh.vertices)
    return sp.coo_matrix((np.concatenate([diag.ravel(), off, off]),
                          (np.concatenate([t, t, tn]), np.concatenate([t, tn, t]))),
                         shape=(nv, nv)).tocsr()


def _aggregate(A) -> np.ndarray:
    """Aggregate index of every node of A, from distance-2 independent roots.

    Strong connections are |a_ij| >= _STRENGTH sqrt(a_ii a_jj). Roots are a
    maximal set of nodes more than two strong steps apart, chosen by fixed
    priorities (a seeded permutation): each round takes every undecided node
    whose key is the largest within two steps and drops every one with a
    root within two. Other nodes join the highest-priority root one step
    away, then the remaining ones the aggregate of the highest-priority
    root among their neighbours' aggregates.
    """
    n = A.shape[0]
    d = A.diagonal()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    strong = (rows == A.indices) | (np.abs(A.data) >= _STRENGTH * np.sqrt(d[rows] * d[A.indices]))
    cols = A.indices[strong]
    counts = np.add.reduceat(strong, A.indptr[:-1])   # >= 1: the diagonal is strong
    starts = np.cumsum(counts) - counts

    def near(values):  # per node: max of values over itself and its strong neighbours
        return np.maximum.reduceat(values[cols], starts)

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
    agg = np.full(n, -1)
    agg[root] = np.arange(root.sum())
    root_prio = prio[root]
    node_of = np.argsort(prio)
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
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        rho = float(np.max(np.add.reduceat(np.abs(A.data), A.indptr[:-1]) / d))
        smooth = (4.0 / (3.0 * rho)) / d
        P = sp.coo_matrix((np.concatenate([np.ones(n), -smooth[rows] * A.data]),
                           (np.concatenate([np.arange(n), rows]),
                            np.concatenate([agg, agg[A.indices]]))), shape=(n, nagg)).tocsr()
        R = P.T.tocsr()
        levels.append(_Level(A=A, smooth=smooth, P=P, R=R))
        A = (R @ (A @ P)).tocsr()
    return levels, spla.splu(A.tocsc())


class _DirichletSystem:
    """The pinned P1 system of one mesh and coefficient field.

    Assembles the stiffness once and splits it into the interior block Kii
    and the interior-boundary block; the V-cycle hierarchy is built on first
    use. It keeps no reference to the mesh, so a cached system dies with it.
    """

    def __init__(self, mesh: TriMesh, A: CoefficientField):
        K = _assemble(mesh, A)
        self.nv = len(mesh.vertices)
        self.boundary = mesh.boundary_nodes
        self.interior = np.setdiff1d(np.arange(self.nv), self.boundary)
        Ki = K[self.interior]
        self.Kii = Ki[:, self.interior]
        self.neg_Kib = -Ki[:, self.boundary]
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
        """Kii x = rhs by V-cycle-preconditioned CG: (x, iterations, ||rhs - Kii x|| / ||rhs||)."""
        bnorm = float(np.linalg.norm(rhs))
        if bnorm == 0.0:
            return np.zeros_like(rhs), 0, 0.0
        n = len(rhs)
        M = spla.LinearOperator((n, n), matvec=self.vcycle, dtype=float)
        count = [0]
        x, info = spla.cg(self.Kii, rhs, rtol=config.linear_tol, atol=0.0,
                          maxiter=config.max_iter, M=M,
                          callback=lambda _: count.__setitem__(0, count[0] + 1))
        res = float(np.linalg.norm(rhs - self.Kii @ x) / bnorm)
        if info != 0:
            raise NoConvergence(f"cg stopped at relative residual {res:.3e} "
                                f"after {count[0]} iterations")
        return x, count[0], res


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

    Every triangle is tested at once with the explicit 2x2 inverse. The
    weights returned are ``_barycentric``'s for the chosen triangle, because
    the explicit formula's differ from them in the last bits.
    """
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
    return found, _barycentric(mesh, found, x)


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
    """||u - reference||_{L^p} by the 3-point edge-midpoint rule per triangle."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    u = sol.values[sol.mesh.triangles]
    mids = np.stack([(u[:, 0] + u[:, 1]) / 2, (u[:, 1] + u[:, 2]) / 2,
                     (u[:, 2] + u[:, 0]) / 2], axis=1)
    areas = sol.mesh.areas
    total = float(np.sum(areas[:, None] / 3.0 * np.abs(mids - reference) ** p))
    return total ** (1.0 / p)


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
                     mesh: TriMesh, config: SolverConfig = SolverConfig()) -> float:
    """omega(x, patch): solve on ``mesh`` with data 1 on patch nodes, 0 elsewhere.

    ``patch`` is a predicate on boundary points; positivity of the kernel
    makes the value at x approximate the integral of P(x, .) over the patch.
    """
    problem = DirichletProblem(
        polygon=polygon, coefficients=A,
        explicit_data=lambda pts: np.array([1.0 if patch(p) else 0.0 for p in pts]))
    return float(evaluate_solution(solve_dirichlet(problem, mesh, config), x))


def kernel_bound_probe(polygon: ConvexPolytope, A: CoefficientField, x,
                       arcs_per_face: int = 32, h: float | None = None) -> dict:
    """Per-arc ratios omega(x, arc) / (len * d(x) / dist(x, arc)^2).

    One adjoint solve gives the discrete Poisson kernel at x: with w the
    barycentric weights of x on the nodes, every discrete solution has
    u(x) = mu . u_b for mu = -Kib^T Kii^-1 w_i + w_b (Kii is symmetric), so
    omega(x, arc) is the sum of mu over the arc's nodes. Faces are split
    into equal arcs (dyadic counts align exactly with the uniformly refined
    fan, so arc indicators are resolved by mesh nodes); the max ratio is
    the measured constant of the kernel bound. ``iterations`` and
    ``residual`` are those of the adjoint CG solve.
    """
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

    ratios = []
    for f in fs:
        va, vb_ = f.vertices
        tvals = ((bpts - va) @ (vb_ - va)) / float((vb_ - va) @ (vb_ - va))
        on_face = np.abs(bpts @ f.normal - f.offset) <= 1e-10
        for i in range(arcs_per_face):
            t0, t1 = i / arcs_per_face, (i + 1) / arcs_per_face
            p0 = va + t0 * (vb_ - va)
            p1 = va + t1 * (vb_ - va)
            # nodes on this face within the half-open [t0, t1), so the arcs
            # partition the boundary nodes exactly (a shared corner node
            # belongs to the next face's arc 0)
            inside = on_face & (tvals >= t0 - 1e-12) & (tvals < t1 - 1e-12)
            omega = float(mu[inside].sum())
            seg = p1 - p0
            ell = float(np.linalg.norm(seg))
            t = float(np.clip(((x - p0) @ seg) / (seg @ seg), 0.0, 1.0))
            dist = float(np.linalg.norm(x - (p0 + t * seg)))
            ratios.append(omega / (ell * dx / dist ** 2))
    return {"ratios": np.array(ratios), "max_ratio": float(np.max(ratios)),
            "arcs_per_face": arcs_per_face, "h": h,
            "iterations": iterations, "residual": residual}


def sector_polygon(omega: float, arc_segments: int = 64) -> ConvexPolytope:
    """Polygonal approximation of the unit circular sector of opening omega."""
    if not 0 < omega < np.pi:
        raise ValidationError("sector opening must be in (0, pi)")
    ts = np.linspace(0.0, omega, arc_segments + 1)
    verts = np.vstack([[0.0, 0.0], np.stack([np.cos(ts), np.sin(ts)], axis=1)])
    return polygon_from_vertices(verts)


def corner_probe(omega: float, h: float = 0.05, grading: float = 1.0,
                 arc_segments: int = 64, radii=None,
                 config: SolverConfig = SolverConfig()) -> dict:
    """Fitted growth exponent of the harmonic measure of the arc near the apex.

    Solves with zero data on the two radii and 1 on the arc of a radius-1
    sector, samples along the bisector at dyadic radii, and returns the
    least-squares slope of log u against log r (theory: pi / omega).
    """
    from .harness import fit_rate  # harness imports fem

    if radii is None:
        radii = [2.0 ** (-j) for j in range(2, 8)]
    poly = sector_polygon(omega, arc_segments)
    floor = h * (min(radii) / poly.diameter) ** grading / 4.0
    mesh = triangulate(poly, h, grading=grading, grading_centers=np.array([[0.0, 0.0]]),
                       min_edge=floor)
    hs = poly.halfspaces
    radius_faces = [0, len(hs) - 1]  # edges touching the apex in vertex order

    def on_radius(y):
        return any(abs(float(hs[i].normal @ y) - hs[i].offset) <= 1e-10 for i in radius_faces)

    problem = DirichletProblem(
        polygon=poly, coefficients=CoefficientField.identity(),
        explicit_data=lambda pts: np.array([0.0 if on_radius(p) else 1.0 for p in pts]))
    sol = solve_dirichlet(problem, mesh, config)
    direction = np.array([np.cos(omega / 2.0), np.sin(omega / 2.0)])
    samples = [(float(r), float(np.real(evaluate_solution(sol, r * direction))))
               for r in radii]
    fit = fit_rate([(r, v) for r, v in samples if v > 0])
    return {"omega": float(omega), "fitted_exponent": fit.exponent, "stderr": fit.stderr,
            "samples": samples, "mesh_vertices": len(mesh.vertices)}


def gradient_probe(polygon: ConvexPolytope, A: CoefficientField, data_fn, corner,
                   direction, radii=None, h: float = 0.05, grading: float = 1.0,
                   config: SolverConfig = SolverConfig()) -> list:
    """Sampled (d_*(x), |grad u(x)|) pairs along a ray from a corner.

    The boundary data must vanish on the faces incident to the probed corner
    so the solution obeys the corner barrier there.
    """
    from .geometry import distance_to_singular

    corner = np.asarray(corner, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    if radii is None:
        radii = [2.0 ** (-j) for j in range(2, 8)]
    floor = h * (min(radii) / polygon.diameter) ** grading / 4.0
    mesh = triangulate(polygon, h, grading=grading,
                       grading_centers=corner[None, :], min_edge=floor)
    problem = DirichletProblem(polygon=polygon, coefficients=A, explicit_data=data_fn)
    sol = solve_dirichlet(problem, mesh, config)
    out = []
    for r in radii:
        x = corner + r * direction
        g = evaluate_gradient(sol, x)
        out.append((float(distance_to_singular(polygon, x)), float(np.linalg.norm(g))))
    return out
