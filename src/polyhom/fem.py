"""Conforming P1 finite elements on convex polygons (d = 2).

Meshes come from a centroid fan subdivided uniformly to the target edge
length, with optional longest-edge bisection graded toward selected corners.
The solver assembles the stiffness of -div(A grad u) with one-point
coefficient quadrature at barycenters, pins Dirichlet nodes, and runs
Jacobi-preconditioned conjugate gradients. Probes built on top estimate
harmonic measures of boundary arcs, pointwise Poisson-kernel bounds, and
corner exponents of solutions vanishing on the faces incident to a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

@dataclass(eq=False)
class TriMesh:
    """Conforming triangle mesh with tagged boundary edges.

    ``boundary_edges`` rows are (a, b, face_index); all triangles are
    counterclockwise. Treated as immutable after construction.
    """

    vertices: np.ndarray       # (nv, 2)
    triangles: np.ndarray      # (nt, 3) int
    boundary_edges: np.ndarray  # (nb, 3) int
    _neighbors: np.ndarray | None = field(default=None, repr=False)
    _centroid_order: np.ndarray | None = field(default=None, repr=False)

    @property
    def boundary_nodes(self) -> np.ndarray:
        return np.unique(self.boundary_edges[:, :2])

    @property
    def areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    @property
    def max_edge(self) -> float:
        p = self.vertices[self.triangles]
        e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        return float(np.sqrt((e ** 2).sum(-1)).max())

    def neighbors(self) -> np.ndarray:
        """(nt, 3) neighbor triangle per edge (i, i+1), -1 on the boundary."""
        if self._neighbors is None:
            tri = self.triangles
            T = len(tri)
            edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
            keys = edges.min(axis=1) * len(self.vertices) + edges.max(axis=1)
            tri_id = np.tile(np.arange(T), 3)
            side = np.repeat(np.arange(3), T)
            order = np.argsort(keys, kind="stable")
            ks = keys[order]
            pair = np.nonzero(ks[1:] == ks[:-1])[0]
            first, second = order[pair], order[pair + 1]
            nb = -np.ones((T, 3), dtype=np.int64)
            nb[tri_id[first], side[first]] = tri_id[second]
            nb[tri_id[second], side[second]] = tri_id[first]
            self._neighbors = nb
        return self._neighbors


def _edge_keys(tri: np.ndarray, nv: int) -> np.ndarray:
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    return edges.min(axis=1).astype(np.int64) * nv + edges.max(axis=1)


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
    (conforming by construction, quality equal to the fan's). With
    grading > 0, triangles near the grading centers (default: the polygon
    vertices) are bisected further until the local edge is below
    h * (d_*(center) / diam)^grading, where d_* is the distance to the
    nearest grading center; ``min_edge`` floors the local target.
    """
    if polygon.dim != 2:
        raise UnsupportedDimension("triangulation is for d = 2 polygons")
    if h <= 0:
        raise ValidationError("h must be positive")
    verts = np.asarray(polygon_vertices(polygon))
    n = len(verts)
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    centroid = np.array([float(np.sum((x + xn) * cross)), float(np.sum((y + yn) * cross))]) / (6.0 * area)

    # face tag per polygon side (midpoint against each half-space line)
    side_face = []
    for i in range(n):
        mid = 0.5 * (verts[i] + verts[(i + 1) % n])
        dists = np.abs(polygon.normals @ mid - polygon.offsets)
        side_face.append(int(np.argmin(dists)))

    fan_edges = [np.linalg.norm(verts[i] - centroid) for i in range(n)]
    side_lens = [np.linalg.norm(verts[(i + 1) % n] - verts[i]) for i in range(n)]
    k = max(1, int(np.ceil(max(max(fan_edges), max(side_lens)) / h)))

    node_index: dict[tuple[float, float], int] = {}
    coords: list[np.ndarray] = []

    def _node(p: np.ndarray) -> int:
        key = (float(p[0]), float(p[1]))
        idx = node_index.get(key)
        if idx is None:
            idx = len(coords)
            node_index[key] = idx
            coords.append(np.asarray(p, dtype=float))
        return idx

    tris: list[tuple[int, int, int]] = []
    boundary_tags: dict[tuple[int, int], int] = {}

    for s in range(n):
        va, vb = verts[s], verts[(s + 1) % n]
        # grid nodes: rows i toward va, columns j toward vb, i + j <= k
        ids = {}
        for i in range(k + 1):
            for j in range(k + 1 - i):
                if i == 0 and j == 0:
                    p = centroid
                elif i + j == k:
                    p = (i / k) * va + (j / k) * vb  # exactly on the boundary side
                elif j == 0:
                    p = centroid + (i / k) * (va - centroid)
                elif i == 0:
                    p = centroid + (j / k) * (vb - centroid)
                else:
                    p = centroid + (i / k) * (va - centroid) + (j / k) * (vb - centroid)
                ids[(i, j)] = _node(p)
        for i in range(k):
            for j in range(k - i):
                tris.append((ids[(i, j)], ids[(i + 1, j)], ids[(i, j + 1)]))
                if i + j <= k - 2:
                    tris.append((ids[(i + 1, j)], ids[(i + 1, j + 1)], ids[(i, j + 1)]))
        for i in range(k):
            a, b = ids[(k - i, i)], ids[(k - i - 1, i + 1)]
            boundary_tags[(min(a, b), max(a, b))] = side_face[s]
        if len(coords) > max_vertices:
            raise BudgetExceeded(f"vertex budget {max_vertices} exceeded during uniform stage")

    if grading > 0.0:
        centers = np.asarray(grading_centers if grading_centers is not None else verts, dtype=float)
        diam = polygon.diameter
        floor = min_edge if min_edge is not None else 1e-4 * diam
        coords, tris, boundary_tags = _graded_bisection(
            coords, tris, boundary_tags, centers, h, grading, diam, floor, max_vertices)

    vertices = np.array(coords)
    vertices.setflags(write=False)
    triangles = np.array(tris, dtype=np.int64)
    bedges = np.array([(a, b, f) for (a, b), f in sorted(boundary_tags.items())], dtype=np.int64)
    mesh = TriMesh(vertices=vertices, triangles=triangles, boundary_edges=bedges)
    _validate_mesh(mesh, polygon)
    return mesh


def _graded_bisection(coords, tris, boundary_tags, centers, h, grading, diam, floor,
                      max_vertices):
    """Longest-edge bisection until local targets near the centers are met.

    Each pass marks the longest edge of every too-coarse triangle, closes the
    marking so neighbors stay conforming, and bisects; new edges are never
    marked within a pass, so conformity is preserved.
    """
    for _ in range(200):  # outer passes; each enforces the target once more
        pts = np.array(coords)
        tri_arr = np.array(tris, dtype=np.int64)
        nv = len(coords)
        cent = pts[tri_arr].mean(axis=1)
        dstar = np.min(np.linalg.norm(cent[:, None, :] - centers[None, :, :], axis=2), axis=1)
        target = np.maximum(h * (dstar / diam) ** grading, floor)

        a, b, c = tri_arr[:, 0], tri_arr[:, 1], tri_arr[:, 2]
        sides = np.stack([np.stack([a, b], 1), np.stack([b, c], 1), np.stack([c, a], 1)], 1)
        lens = np.linalg.norm(pts[sides[:, :, 0]] - pts[sides[:, :, 1]], axis=2)  # (T,3)
        keys = (sides.min(axis=2).astype(np.int64) * nv + sides.max(axis=2))      # (T,3)
        # longest side with deterministic tie-break: largest length, then
        # smallest edge key among near-equal lengths
        near = lens >= lens.max(axis=1, keepdims=True) - 1e-14
        tie_keys = np.where(near, keys, np.iinfo(np.int64).max)
        longest = np.argmin(tie_keys, axis=1)
        rows = np.arange(len(tris))
        longest_key = keys[rows, longest]

        need = lens.max(axis=1) > target
        if not need.any():
            break

        uniq_keys, inv = np.unique(keys, return_inverse=True)
        inv = inv.reshape(keys.shape)
        longest_id = inv[rows, longest]
        marked = np.zeros(len(uniq_keys), dtype=bool)
        marked[longest_id[need]] = True
        while True:
            has_marked = marked[inv].any(axis=1)
            grow = has_marked & ~marked[longest_id]
            if not grow.any():
                break
            marked[longest_id[grow]] = True

        midpoint: dict[tuple[int, int], int] = {}
        for key in uniq_keys[marked]:
            u, v = int(key // nv), int(key % nv)
            m = 0.5 * (np.asarray(coords[u]) + np.asarray(coords[v]))
            midpoint[(u, v)] = len(coords)
            coords.append(m)
            if (u, v) in boundary_tags:
                f = boundary_tags.pop((u, v))
                w = midpoint[(u, v)]
                boundary_tags[(min(u, w), max(u, w))] = f
                boundary_tags[(min(v, w), max(v, w))] = f
        if len(coords) > max_vertices:
            raise BudgetExceeded(f"vertex budget {max_vertices} exceeded during grading")

        out: list[tuple[int, int, int]] = []

        def emit(tri):
            tri_keys = []
            for s in range(3):
                u, v = tri[s], tri[(s + 1) % 3]
                tri_keys.append((min(u, v), max(u, v)))
            marked_sides = [s for s in range(3) if tri_keys[s] in midpoint]
            if not marked_sides:
                out.append(tuple(tri))
                return
            best_s, best_len = marked_sides[0], -1.0
            for s in marked_sides:
                L = float(np.linalg.norm(np.asarray(coords[tri[s]])
                                         - np.asarray(coords[tri[(s + 1) % 3]])))
                if L > best_len:
                    best_s, best_len = s, L
            s = best_s
            i, j, kv = tri[s], tri[(s + 1) % 3], tri[(s + 2) % 3]
            m = midpoint[tri_keys[s]]
            emit((i, m, kv))
            emit((m, j, kv))

        touched = marked[inv].any(axis=1)
        for flag, tri in zip(touched, tris):
            if flag:
                emit(tri)
            else:
                out.append(tuple(tri))
        tris = out
    else:
        raise BudgetExceeded("graded refinement did not settle within 200 passes")
    return coords, tris, boundary_tags


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


def read_mesh(path) -> TriMesh:
    with open(path) as f:
        nv, nt, nb = (int(s) for s in f.readline().split())
        vertices = np.array([[float(s) for s in f.readline().split()] for _ in range(nv)])
        triangles = np.array([[int(s) for s in f.readline().split()] for _ in range(nt)],
                             dtype=np.int64)
        bedges = np.array([[int(s) for s in f.readline().split()] for _ in range(nb)],
                          dtype=np.int64)
    vertices.setflags(write=False)
    return TriMesh(vertices=vertices, triangles=triangles, boundary_edges=bedges)


# ---------------------------------------------------------------------------
# coefficients and problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientField:
    """x -> symmetric 2x2 matrix A(x) with declared ellipticity constant c."""

    evaluator: object
    ellipticity: float = 1.0

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
        c = float(max(w[1], 1.0 / w[0]))
        return cls(evaluator=A.copy(), ellipticity=c)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        if isinstance(self.evaluator, np.ndarray):
            return np.broadcast_to(self.evaluator, (len(points), 2, 2))
        try:
            out = np.asarray(self.evaluator(points), dtype=float)
            if out.shape == (len(points), 2, 2):
                return out
        except Exception:
            pass
        return np.array([self.evaluator(p) for p in points], dtype=float)


def validate_coefficients(field: CoefficientField, points) -> None:
    """Spot-check symmetry (exact) and eigenvalue bounds on sample points."""
    A = field.evaluate_many(np.atleast_2d(points))
    if np.any(A[:, 0, 1] != A[:, 1, 0]):
        raise NonSymmetricCoefficients("A(x) is not symmetric at a sample point")
    w = np.linalg.eigvalsh(A)
    c = field.ellipticity
    if np.any(w[:, 0] < 1.0 / c - 1e-12) or np.any(w[:, 1] > c + 1e-12):
        raise ValidationError("eigenvalues escape the declared ellipticity interval")


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


def _assemble(mesh: TriMesh, A_field: CoefficientField):
    pts = mesh.vertices[mesh.triangles]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * det
    inv = np.empty((len(pts), 2, 2))
    inv[:, 0, 0] = e2[:, 1]
    inv[:, 0, 1] = -e2[:, 0]
    inv[:, 1, 0] = -e1[:, 1]
    inv[:, 1, 1] = e1[:, 0]
    inv /= det[:, None, None]
    grads = np.einsum("ir,mrc->mic", _GREF, inv)  # (m, 3, 2)
    bary = pts.mean(axis=1)
    Abar = A_field.evaluate_many(bary)
    if np.any(Abar[:, 0, 1] != Abar[:, 1, 0]):
        raise NonSymmetricCoefficients("A(x) is not symmetric at a barycenter")
    Kloc = np.einsum("mid,mde,mje,m->mij", grads, Abar, grads, area)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    K = sp.coo_matrix((Kloc.ravel(), (rows, cols)),
                      shape=(len(mesh.vertices), len(mesh.vertices))).tocsr()
    return K, grads, area


def _cg_solve(Kii, rhs: np.ndarray, config: SolverConfig):
    if rhs.size == 0:
        return rhs.copy(), 0, 0.0
    diag = Kii.diagonal()
    M = sp.diags(1.0 / np.where(diag > 0, diag, 1.0))
    counter = {"n": 0}

    def cb(_):
        counter["n"] += 1

    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    x, info = spla.cg(Kii, rhs, rtol=config.linear_tol, atol=0.0,
                      maxiter=config.max_iter, M=M, callback=cb)
    res = float(np.linalg.norm(rhs - Kii @ x) / bnorm)
    if info != 0:
        raise NoConvergence(f"cg stopped at relative residual {res:.3e} "
                            f"after {counter['n']} iterations")
    return x, counter["n"], res


def _pinned_solves(mesh: TriMesh, A: CoefficientField, rows,
                   config: SolverConfig) -> list[FemSolution]:
    """One P1 solution per row of boundary values, all on one mesh and field.

    Boundary nodes are pinned to the row and the interior system is solved by
    Jacobi-CG for one or two rows (real data, or the two halves of complex
    data) and by one sparse LU factor shared by every row when there are
    more, as for the kernel probe's arcs. Each solution carries the relative
    residual ||rhs - Kii x|| / ||rhs|| it reached.
    """
    K, _, _ = _assemble(mesh, A)
    nv = len(mesh.vertices)
    boundary = mesh.boundary_nodes
    interior = np.setdiff1d(np.arange(nv), boundary)
    Kii = K[interior][:, interior]
    neg_Kib = -K[interior][:, boundary]
    lu = spla.splu(Kii.tocsc()) if len(rows) > 2 else None
    sols = []
    for vb in rows:
        rhs = neg_Kib @ vb
        if lu is None:
            x, iters, res = _cg_solve(Kii, rhs, config)
        else:
            x, iters = lu.solve(rhs), 0
            bnorm = float(np.linalg.norm(rhs))
            res = float(np.linalg.norm(rhs - Kii @ x) / bnorm) if bnorm > 0 else 0.0
        u = np.zeros(nv)
        u[boundary] = vb
        u[interior] = x
        sols.append(FemSolution(mesh=mesh, values=u, iterations=iters, residual=res))
    return sols


def solve_dirichlet(problem: DirichletProblem, mesh: TriMesh,
                    config: SolverConfig = SolverConfig()) -> FemSolution:
    """P1 Galerkin solve with boundary nodes pinned to the prescribed data.

    Complex data is solved as its real and imaginary parts; the solution
    reports the larger iteration count and residual of the two.
    """
    boundary = mesh.boundary_nodes
    values_b = problem.boundary_values(mesh.vertices[boundary])
    if not np.iscomplexobj(values_b):
        return _pinned_solves(mesh, problem.coefficients, [values_b], config)[0]
    re, im = _pinned_solves(mesh, problem.coefficients, [values_b.real, values_b.imag],
                            config)
    u = re.values + 1j * im.values
    u[boundary] = values_b  # exact data: re + 1j * im turns a -0.0 real part into 0.0
    return FemSolution(mesh=mesh, values=u, iterations=max(re.iterations, im.iterations),
                       residual=max(re.residual, im.residual))


def dmp_offdiagonal_max(mesh: TriMesh) -> float:
    """Largest off-diagonal stiffness entry for A = I (<= 0 gives an M-matrix)."""
    K, _, _ = _assemble(mesh, CoefficientField.identity())
    coo = K.tocoo()
    off = coo.data[coo.row != coo.col]
    return float(off.max()) if off.size else 0.0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _barycentric(mesh: TriMesh, t: int, x: np.ndarray) -> np.ndarray:
    a, b, c = mesh.vertices[mesh.triangles[t]]
    T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
    st = np.linalg.solve(T, x - a)
    return np.array([1.0 - st[0] - st[1], st[0], st[1]])


def _locate(mesh: TriMesh, x, max_steps: int = 20000) -> tuple[int, np.ndarray]:
    """Triangle walk with brute-force fallback; on edges the lowest index wins."""
    x = np.asarray(x, dtype=float)
    nb = mesh.neighbors()
    if mesh._centroid_order is None:
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        mesh._centroid_order = cent
    cent = mesh._centroid_order
    t = int(np.argmin(((cent - x) ** 2).sum(axis=1)))
    visited = 0
    found = -1
    while visited < max_steps:
        lam = _barycentric(mesh, t, x)
        if np.min(lam) >= -1e-12:
            found = t
            break
        s = int(np.argmin(lam))  # lam order: (0: opposite edge bc), map to side
        # lam[0] belongs to vertex a (opposite side (b, c) = side index 1)
        side = {0: 1, 1: 2, 2: 0}[s]
        nxt = nb[t, side]
        if nxt < 0:
            break
        t = int(nxt)
        visited += 1
    if found < 0:
        for tt in range(len(mesh.triangles)):
            if np.min(_barycentric(mesh, tt, x)) >= -1e-12:
                found = tt
                break
        if found < 0:
            raise OutsideDomain("point is not inside any mesh triangle")
    # deterministic tie-break: among the found triangle and its neighbors across
    # near-zero barycentric edges, the lowest containing index wins
    lam = _barycentric(mesh, found, x)
    candidates = {found}
    for s in range(3):
        if lam[s] <= 1e-12:
            side = {0: 1, 1: 2, 2: 0}[s]
            other = nb[found, side]
            if other >= 0:
                candidates.add(int(other))
    best = min(t for t in candidates if np.min(_barycentric(mesh, t, x)) >= -1e-12)
    return best, _barycentric(mesh, best, x)


def evaluate_solution(sol: FemSolution, x):
    """Barycentric interpolation at x (point location by triangle walk)."""
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
                     mesh: TriMesh | None = None, h: float = 0.05,
                     config: SolverConfig = SolverConfig()) -> float:
    """omega(x, patch): solve with data 1 on patch nodes, 0 elsewhere.

    ``patch`` is a predicate on boundary points; positivity of the kernel
    makes the value at x approximate the integral of P(x, .) over the patch.
    """
    if mesh is None:
        mesh = triangulate(polygon, h)
    problem = DirichletProblem(
        polygon=polygon, coefficients=A,
        explicit_data=lambda pts: np.array([1.0 if patch(p) else 0.0 for p in pts]))
    return float(evaluate_solution(solve_dirichlet(problem, mesh, config), x))


def kernel_bound_probe(polygon: ConvexPolytope, A: CoefficientField, x,
                       arcs_per_face: int = 32, h: float | None = None,
                       mesh: TriMesh | None = None) -> dict:
    """Per-arc ratios omega(x, arc) / (len * d(x) / dist(x, arc)^2).

    Faces are split into equal arcs (dyadic counts align exactly with the
    uniformly refined fan, so arc indicators are resolved by mesh nodes);
    the max ratio is the measured constant of the kernel bound.
    """
    x = np.asarray(x, dtype=float)
    fs = faces(polygon)
    if h is None:
        h = min(f.measure for f in fs) / (4.0 * arcs_per_face)
    if mesh is None:
        mesh = triangulate(polygon, h)
    b = mesh.boundary_nodes
    bpts = mesh.vertices[b]
    dx = distance_to_boundary(polygon, x)

    arcs = []
    rows = []
    for f in fs:
        va, vb_ = f.vertices
        for i in range(arcs_per_face):
            t0, t1 = i / arcs_per_face, (i + 1) / arcs_per_face
            p0 = va + t0 * (vb_ - va)
            p1 = va + t1 * (vb_ - va)
            arcs.append((f.index, p0, p1))
            # nodes on this face within [t0, t1): half-open split of the face
            # half-open [t0, t1) so the arcs partition the boundary nodes
            # exactly (a shared corner node belongs to the next face's arc 0)
            tvals = ((bpts - va) @ (vb_ - va)) / float((vb_ - va) @ (vb_ - va))
            on_face = np.abs(bpts @ f.normal - f.offset) <= 1e-10
            inside = on_face & (tvals >= t0 - 1e-12) & (tvals < t1 - 1e-12)
            rows.append(np.where(inside, 1.0, 0.0))
    sols = _pinned_solves(mesh, A, rows, SolverConfig())
    ratios = []
    for (fi, p0, p1), sol in zip(arcs, sols):
        omega = float(evaluate_solution(sol, x))
        ell = float(np.linalg.norm(p1 - p0))
        seg = p1 - p0
        t = float(np.clip(((x - p0) @ seg) / (seg @ seg), 0.0, 1.0))
        dist = float(np.linalg.norm(x - (p0 + t * seg)))
        ratios.append(omega / (ell * dx / dist ** 2))
    return {"ratios": np.array(ratios), "max_ratio": float(np.max(ratios)),
            "arcs_per_face": arcs_per_face, "h": h}


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
