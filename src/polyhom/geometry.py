"""Convex polytopes as half-space intersections.

Provides faces with explicit vertex descriptions and their adjacency
(d = 2, 3; faces of a d >= 4 polytope raise UnsupportedDimension), boundary
and singular-set distances, interior dihedral angles, Diophantine
certification of face normals by exhaustive lattice search, strips near face
boundaries, and the lattice partition of a face into lifted cubes plus a
small leftover. Construction, boundary distance and certification work in
any d.

Conventions: a polytope is D = {x : nu_j . x > c_j for all j} with unit
normals nu_j pointing into the domain, so nu_j . x - c_j is the (exact)
distance of an interior point to the j-th bounding hyperplane. All geometric
predicates use absolute tolerance GEOM_TOL on unit-scale inputs; polytopes
are expected pre-scaled to diameter O(1).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
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

GEOM_TOL = 1e-10

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """One constraint nu . x > offset with ||nu|| = 1."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.ndim != 1 or n.size < 2:
            raise ValidationError(f"normal must be a vector in R^d, d >= 2, got shape {n.shape}")
        norm = float(np.linalg.norm(n))
        if abs(norm - 1.0) > 1e-12:
            raise BadNormal(f"||normal|| = {norm!r} deviates from 1 by more than 1e-12")
        object.__setattr__(self, "normal", _readonly(n))
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.size


@dataclass(frozen=True, eq=False)
class ConvexPolytope:
    """Bounded intersection of half-spaces with nonempty interior.

    Construct through :func:`build_polytope`, which certifies boundedness and
    strict feasibility and keeps the vertices; instances are immutable, so
    their faces and a polygon's vertex cycle are computed once, on first
    use, and kept (``faces``, ``cycle``).
    """

    dim: int
    halfspaces: tuple[HalfSpace, ...]
    interior_point: np.ndarray  # the vertex mean
    bbox: np.ndarray  # (d, 2) coordinate ranges
    vertices: np.ndarray  # (k, d), in the order build_polytope found them

    @property
    def normals(self) -> np.ndarray:
        return np.array([h.normal for h in self.halfspaces])

    @property
    def offsets(self) -> np.ndarray:
        return np.array([h.offset for h in self.halfspaces])

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.bbox[:, 1] - self.bbox[:, 0]))

    def slacks(self, x) -> np.ndarray:
        """nu_j . x - c_j for every half-space (positive strictly inside)."""
        x = np.asarray(x, dtype=float)
        return self.normals @ x - self.offsets

    def contains(self, x, tol: float = GEOM_TOL) -> bool:
        return bool(np.min(self.slacks(x)) >= -tol)

    @functools.cached_property
    def faces(self) -> tuple[Face, ...]:
        """The positive-measure faces; see :func:`faces`."""
        return tuple(_compute_faces(self))

    @functools.cached_property
    def cycle(self) -> np.ndarray:
        """The vertices sorted by angle about the interior point; see :func:`polygon_vertices`."""
        v, p = self.vertices, self.interior_point
        return _readonly(v[np.argsort(np.arctan2(v[:, 1] - p[1], v[:, 0] - p[0]))])


@dataclass(frozen=True, eq=False)
class Face:
    """A (d-1)-dimensional flat portion of the boundary.

    ``vertices`` is the ordered vertex description: for d = 2 the two
    endpoints, oriented counterclockwise along the polygon; for d = 3 the
    polytope's vertices on the face's plane, a convex polygon ordered
    counterclockwise about the inward normal.
    """

    index: int
    normal: np.ndarray
    offset: float
    dim: int
    vertices: np.ndarray

    @property
    def measure(self) -> float:
        """(d-1)-dimensional Hausdorff measure, exact."""
        if self.dim == 2:
            return float(np.linalg.norm(self.vertices[1] - self.vertices[0]))
        return _planar_polygon_area(self.vertices)

    def on_hyperplane(self, y, tol: float = GEOM_TOL) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(abs(float(self.normal @ y) - self.offset) <= tol)

    def dist_to_relative_boundary(self, y) -> float:
        """Distance from a point on the face's hyperplane to its relative boundary."""
        y = np.asarray(y, dtype=float)
        if self.dim == 2:
            return float(min(np.linalg.norm(y - self.vertices[0]), np.linalg.norm(y - self.vertices[1])))
        v = self.vertices
        return float(_segment_distances(y, v, np.roll(v, -1, axis=0)).min())


@dataclass(frozen=True, eq=False)
class DiophantineCert:
    """Result of the exhaustive search min |m . nu| |m|_1^tau over 0 < |m|_1 <= M.

    c_lower > 0 certifies no integer vector up to the searched bound
    annihilates nu; c_lower = 0 reports a rational-direction hit at worst_m.
    The search covers the half ball whose first nonzero coordinate is
    negative (-m gives the same value), so worst_m is the lexicographically
    first minimiser and its first nonzero coordinate is negative.
    """

    tau: float
    searched_bound: int
    c_lower: float
    worst_m: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PartitionCell:
    """Preimage under the coordinate projection of one lattice cube.

    ``vertices`` are the lifted cube corners on the face (segment endpoints
    for d = 2, planar quadrilateral for d = 3); ``measure`` is exact:
    rho^{d-1} / |nu_k| for a unit normal.
    """

    lattice_index: tuple[int, ...]
    vertices: np.ndarray
    measure: float


@dataclass(frozen=True, eq=False)
class Leftover:
    """The uncovered part E of a partitioned face.

    ``pieces`` are convex polytopes on the face (same storage as cells);
    their exact measures sum to ``measure``.
    """

    pieces: tuple[np.ndarray, ...]
    measure: float


@dataclass(frozen=True, eq=False)
class FacePartition:
    """Partition of a face into lifted lattice cubes Gamma_j plus leftover E."""

    face: Face
    axis: int
    cell_size: float
    cells: tuple[PartitionCell, ...]
    leftover: Leftover
    c0: float  # E is contained in the width-(c0 * rho) strip near the face boundary

    @property
    def cell_count(self) -> int:
        return len(self.cells)


# ---------------------------------------------------------------------------
# construction and certification
# ---------------------------------------------------------------------------

_VERTEX_BUDGET = 250_000  # subsets of at most d bounding planes


def _subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) as a row, in lexicographic (i-major) order."""
    count = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)


def _vertices(N: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vertices of {x : N x >= c}: each d-subset of its planes with
    |det| > 1e-12 is solved, in i-major order and in batches of 2**18 // n
    subsets (so each slack matrix stays small); the points whose slacks are
    all >= -1e-9 are kept, less those within 1e-9 of an earlier kept one."""
    idx = _subsets(*N.shape)
    rows = max(1, 2**18 // len(N))
    found = []
    for block in (idx[i:i + rows] for i in range(0, len(idx), rows)):
        block = block[np.abs(np.linalg.det(N[block])) > 1e-12]
        pts = np.linalg.solve(N[block], c[block][:, :, None])[:, :, 0]
        found.append(pts[(pts @ N.T - c).min(axis=1) >= -1e-9])
    pts = np.concatenate(found)
    keep = pts[:1]
    for p in pts[1:]:
        gap = keep - p
        if not np.any(np.sqrt(np.vecdot(gap, gap)) <= 1e-9):
            keep = np.vstack([keep, p])
    return keep


def _rays(N: np.ndarray) -> np.ndarray:
    """Unit r with N r >= -GEOM_TOL orthogonal to d - 1 independent normals:
    for full-rank N, every extreme ray of the recession cone {r : N r >= 0}.
    The direction orthogonal to a (d-1)-subset B is the generalized cross
    product r_k = (-1)^k det(B without column k), zero for a singular B."""
    n, d = N.shape
    B = N[_subsets(n, d - 1)]
    r = np.stack([(-1) ** k * np.linalg.det(np.delete(B, k, axis=2)) for k in range(d)], axis=1)
    norm = np.linalg.norm(r, axis=1)
    r = r[norm > 1e-12] / norm[norm > 1e-12, None]
    r = np.concatenate([r, -r])
    return r[(r @ N.T).min(axis=1) >= -GEOM_TOL]


def _certify(N: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and a strictly interior point of {x : N x >= c}.

    Raises EmptyInterior when no point clears every plane by more than
    GEOM_TOL, else Unbounded when the set holds a ray. The point is the
    vertex mean plus the unit rays, a positive combination of all generators,
    so it is interior unless the interior is empty. Normals spanning fewer
    than d dimensions leave a line in the set; its interior is decided in
    their span."""
    rank = int(np.linalg.matrix_rank(N))
    if rank < N.shape[1]:
        _certify(N @ np.linalg.svd(N)[2][:rank].T, c)  # the rows stay unit vectors
        raise Unbounded(f"the normals span only {rank} of {N.shape[1]} dimensions")
    V = _vertices(N, c)
    if not len(V):
        raise EmptyInterior("no vertex: the half-spaces have no common point")
    R = _rays(N)
    x = V.mean(axis=0) + R.sum(axis=0)
    if (N @ x - c).min() <= GEOM_TOL:
        raise EmptyInterior("no strictly feasible point (interior empty or lower-dimensional)")
    if len(R):
        raise Unbounded("the recession cone has an extreme ray: the intersection is unbounded")
    return V, x


def build_polytope(halfspaces) -> ConvexPolytope:
    """Validate a half-space list into a certified bounded convex polytope.

    Certification is by exact vertex enumeration (``_certify``), without an
    LP: an extreme ray of the recession cone raises Unbounded, and no vertex
    or a vertex mean on the boundary raises EmptyInterior. The vertices are
    kept on the polytope; the interior point is their mean and the bbox
    their coordinate range. More than 250,000 subsets of at most d planes
    raise BudgetExceeded before any is formed.
    """
    hs = tuple(h if isinstance(h, HalfSpace) else HalfSpace(*h) for h in halfspaces)
    if not hs:
        raise ValidationError("need at least one half-space")
    d = hs[0].dim
    if d < 2:
        raise ValidationError("dimension must be >= 2")
    if any(h.dim != d for h in hs):
        raise ValidationError("all half-spaces must share one dimension")
    if math.comb(len(hs), min(d, len(hs) // 2)) > _VERTEX_BUDGET:  # the largest C(n, k), k <= d
        raise BudgetExceeded(f"{len(hs)} half-spaces in d = {d}: more than {_VERTEX_BUDGET} "
                             "plane subsets to solve for vertices")

    N = np.array([h.normal for h in hs])
    c = np.array([h.offset for h in hs])
    same = ((np.abs(N[:, None] - N[None]).max(axis=2) <= GEOM_TOL)
            & (np.abs(c[:, None] - c[None]) <= GEOM_TOL))
    i, j = np.nonzero(np.triu(same, 1))  # row-major: the first pair in i-major order
    if i.size:
        raise DuplicateHalfSpace(f"half-spaces {i[0]} and {j[0]} coincide within tolerance")

    V, interior = _certify(N, c)
    return ConvexPolytope(dim=d, halfspaces=hs, interior_point=_readonly(interior),
                          bbox=_readonly(np.stack([V.min(axis=0), V.max(axis=0)], axis=1)),
                          vertices=_readonly(V))


def load_polytope(source) -> ConvexPolytope:
    """Read {"dim": d, "halfspaces": [{"normal": [...], "offset": c}, ...]}.

    ``source`` is a path, file object, or already-parsed dict. Normals are
    normalized on load; a RenormalizedNormalWarning fires when the stored
    vector deviates from unit length by more than 1e-8.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as f:
            doc = json.load(f)
    d = int(doc["dim"])
    hs = []
    for i, entry in enumerate(doc["halfspaces"]):
        raw = np.asarray(entry["normal"], dtype=float)
        if raw.size != d:
            raise ValidationError(f"half-space {i}: normal has {raw.size} components, expected {d}")
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            raise BadNormal(f"half-space {i}: zero normal")
        if abs(norm - 1.0) > 1e-8:
            warnings.warn(f"half-space {i}: renormalizing |normal| = {norm!r}",
                          RenormalizedNormalWarning, stacklevel=2)
        hs.append(HalfSpace(raw / norm, float(entry["offset"])))
    return build_polytope(hs)


def polytope_to_dict(poly: ConvexPolytope) -> dict:
    return {
        "dim": poly.dim,
        "halfspaces": [{"normal": list(h.normal), "offset": h.offset} for h in poly.halfspaces],
    }


def polygon_from_vertices(vertices) -> ConvexPolytope:
    """Convex polygon (d = 2) from counterclockwise vertices."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise ValidationError("need at least three 2-D vertices")
    hs = []
    for i in range(len(v)):
        t = v[(i + 1) % len(v)] - v[i]
        L = np.linalg.norm(t)
        if L <= GEOM_TOL:
            raise ValidationError(f"degenerate edge at vertex {i}")
        nu = np.array([-t[1], t[0]]) / L  # inward for CCW ordering
        hs.append(HalfSpace(nu, float(nu @ v[i])))
    return build_polytope(hs)


# canonical laboratory shapes -------------------------------------------------

def unit_square() -> ConvexPolytope:
    """Axis-aligned unit square [0, 1]^2 (rational face normals)."""
    return build_polytope([
        HalfSpace(np.array([1.0, 0.0]), 0.0),
        HalfSpace(np.array([0.0, 1.0]), 0.0),
        HalfSpace(np.array([-1.0, 0.0]), -1.0),
        HalfSpace(np.array([0.0, -1.0]), -1.0),
    ])


def golden_square() -> ConvexPolytope:
    """The unit square [0, 1]^2 rotated about the origin by arctan(phi).

    Axis normals are rotated and the offsets (0, 0, -1, -1) kept, so all
    four face normals are proportional to (+-1, +-phi) up to swap and every
    face direction is badly approximable (Diophantine with tau = 1).
    """
    theta = np.arctan(GOLDEN_RATIO)
    ct, st = np.cos(theta), np.sin(theta)
    R = np.array([[ct, -st], [st, ct]])
    hs = []
    for axis_normal, c in (([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0),
                           ([-1.0, 0.0], -1.0), ([0.0, -1.0], -1.0)):
        nu = R @ np.array(axis_normal)
        hs.append(HalfSpace(nu / np.linalg.norm(nu), c))
    return build_polytope(hs)


def regular_hexagon() -> ConvexPolytope:
    """Regular hexagon with unit circumradius, vertices at angles k*pi/3."""
    hs = []
    for k in range(6):
        a = np.pi / 6.0 + k * np.pi / 3.0
        outward = np.array([np.cos(a), np.sin(a)])
        hs.append(HalfSpace(-outward, -np.sqrt(3.0) / 2.0))
    return build_polytope(hs)


def unit_cube() -> ConvexPolytope:
    """Axis-aligned unit cube [0, 1]^3."""
    hs = []
    for i in range(3):
        lo = np.zeros(3)
        lo[i] = 1.0
        hs.append(HalfSpace(lo, 0.0))
        hs.append(HalfSpace(-lo, -1.0))
    return build_polytope(hs)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def polygon_vertices(poly: ConvexPolytope) -> np.ndarray:
    """Counterclockwise vertex cycle of a 2-D polytope, sorted once and kept
    (``ConvexPolytope.cycle``): every call returns the same read-only array."""
    if poly.dim != 2:
        raise UnsupportedDimension("vertex cycle is for d = 2")
    return poly.cycle


def polygon_sides(poly: ConvexPolytope) -> tuple[np.ndarray, np.ndarray]:
    """The vertex cycle and the half-space each side lies on.

    Side i = (v_i, v_{i+1}) of ``polygon_vertices`` lies on half-space
    argmin_j |nu_j . mid_i - c_j|, its midpoint's nearest bounding line.
    """
    verts = polygon_vertices(poly)
    mid = 0.5 * (verts + np.roll(verts, -1, axis=0))
    return verts, np.argmin(np.abs(mid @ poly.normals.T - poly.offsets), axis=1)


def _planar_polygon_area(verts3d: np.ndarray) -> float:
    """Area of a planar polygon in R^3 via the cross-product shoelace."""
    v0 = verts3d[0]
    s = np.zeros(3)
    for i in range(1, len(verts3d) - 1):
        s += np.cross(verts3d[i] - v0, verts3d[i + 1] - v0)
    return float(np.linalg.norm(s) / 2.0)


def _segment_distances(x, a, b) -> np.ndarray:
    """Distances from the point x to the closed segments [a_i, b_i], rows of a and b."""
    ab = b - a
    t = np.clip(np.sum((x - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
    return np.linalg.norm(x - (a + t[:, None] * ab), axis=1)


def _clip_halfplane(pts: list[np.ndarray], a: np.ndarray, b: float) -> list[np.ndarray]:
    """Sutherland-Hodgman step keeping {u : a . u <= b}."""
    out: list[np.ndarray] = []
    n = len(pts)
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        fp, fq = float(a @ p) - b, float(a @ q) - b
        if fp <= GEOM_TOL:
            out.append(p)
        if (fp < -GEOM_TOL and fq > GEOM_TOL) or (fp > GEOM_TOL and fq < -GEOM_TOL):
            t = fp / (fp - fq)
            out.append(p + t * (q - p))
    dedup: list[np.ndarray] = []
    for p in out:
        if not dedup or np.linalg.norm(p - dedup[-1]) > 1e-12:
            dedup.append(p)
    if len(dedup) > 1 and np.linalg.norm(dedup[0] - dedup[-1]) <= 1e-12:
        dedup.pop()
    return dedup


def _face_polygon_3d(poly: ConvexPolytope, k: int) -> np.ndarray | None:
    """The kept vertices on the k-th bounding plane, CCW about nu_k; None without area."""
    nu = poly.halfspaces[k].normal
    v = poly.vertices[np.abs(poly.vertices @ nu - poly.halfspaces[k].offset) <= 1e-9]
    if len(v) < 3:
        return None
    rel = v - v.mean(axis=0)  # angles from rel[0], counterclockwise about nu
    v = v[np.argsort(np.arctan2(rel @ np.cross(nu, rel[0]), rel @ rel[0]))]
    return v if _planar_polygon_area(v) > 1e-12 else None


def faces(poly: ConvexPolytope) -> tuple[Face, ...]:
    """One Face per half-space whose active set has positive (d-1)-measure.

    Faces exist for d = 2 and 3; for d >= 4 this raises UnsupportedDimension.
    A polygon's faces are its sides, each on the half-space ``polygon_sides``
    names; a 3-polytope's are the kept vertices on each bounding plane, in
    counterclockwise order (``_face_polygon_3d``). Degenerate contacts (a vertex or lower-dimensional touch,
    including fully redundant half-spaces) are dropped with a
    DegenerateFaceWarning. The faces are computed on the first call for a
    polytope and kept on it (``ConvexPolytope.faces``): later calls return
    the same tuple, and the warning fires on the first call only.
    """
    return poly.faces


def _degenerate(j: int, shape: str) -> None:
    # frames: this, _compute_faces, ConvexPolytope.faces, cached_property, faces, its caller
    warnings.warn(f"half-space {j} touches the {shape} in a degenerate set; dropped",
                  DegenerateFaceWarning, stacklevel=6)


def _compute_faces(poly: ConvexPolytope) -> list[Face]:
    out: list[Face] = []
    if poly.dim == 2:
        verts, owner = polygon_sides(poly)
        side = dict(zip(owner.tolist(), range(len(verts))))
        if len(side) < len(verts):
            raise ValidationError("a half-space lies along two polygon sides (collinear vertices)")
        for j, h in enumerate(poly.halfspaces):
            if j not in side:
                _degenerate(j, "polygon")
                continue
            i = side[j]
            out.append(Face(index=j, normal=h.normal, offset=h.offset, dim=2,
                            vertices=_readonly(verts[[i, (i + 1) % len(verts)]])))
        return out
    if poly.dim == 3:
        for j, h in enumerate(poly.halfspaces):
            vv = _face_polygon_3d(poly, j)
            if vv is None:
                _degenerate(j, "polytope")
                continue
            out.append(Face(index=j, normal=h.normal, offset=h.offset, dim=3,
                            vertices=_readonly(vv)))
        return out
    raise UnsupportedDimension("faces are computed for d = 2, 3 only")


# ---------------------------------------------------------------------------
# distances and angles
# ---------------------------------------------------------------------------

def distance_to_boundary(poly: ConvexPolytope, x) -> float:
    """min_j (nu_j . x - c_j); equals dist(x, boundary) for unit normals."""
    s = poly.slacks(x)
    m = float(np.min(s))
    if m < -GEOM_TOL:
        raise OutsideDomain(f"point violates constraint {int(np.argmin(s))} by {-m:.3e}")
    return m


def polytope_edges(poly: ConvexPolytope) -> list[tuple[np.ndarray, np.ndarray]]:
    """Closed edges (1-dimensional faces) of a 3-D polytope.

    One edge per adjacent face pair (``_adjacent_pairs``), in the pairs'
    order: the first and last shared vertex, in the first face's cyclic order.
    """
    if poly.dim != 3:
        raise UnsupportedDimension("edges enumerated for d = 3 only")
    return [(shared[0], shared[-1]) for _, _, shared in _adjacent_pairs(poly)]


def distance_to_singular(poly: ConvexPolytope, x) -> float:
    """Distance to the singular boundary: vertices (d = 2) or closed edges (d = 3)."""
    x = np.asarray(x, dtype=float)
    if not poly.contains(x):
        raise OutsideDomain("point outside the closed polytope")
    if poly.dim == 2:
        verts = np.array([f.vertices[0] for f in faces(poly)])  # each vertex starts one face
        return float(np.min(np.linalg.norm(verts - x, axis=1)))
    if poly.dim == 3:
        edges = np.array(polytope_edges(poly))
        return float(_segment_distances(x, edges[:, 0], edges[:, 1]).min())
    raise UnsupportedDimension("singular-set distance implemented for d = 2, 3 only")


def _adjacent_pairs(poly: ConvexPolytope) -> list[tuple[int, int, np.ndarray]]:
    """Adjacent faces (i, j, shared), i before j in face order, pairs in face order.

    Two faces are adjacent when at least d - 1 vertices of the first lie
    within 1e-9 of a vertex of the second (a shared vertex for d = 2, a
    shared edge for d = 3); ``shared`` holds those vertices of the first
    face, in its cyclic order. i and j are half-space indices.
    """
    fs = faces(poly)
    verts = np.concatenate([f.vertices for f in fs])
    sizes = [len(f.vertices) for f in fs]
    starts = np.cumsum([0] + sizes[:-1])
    near = np.linalg.norm(verts[:, None] - verts[None], axis=-1) <= 1e-9
    # hit[p, b]: vertex p lies within 1e-9 of some vertex of face b
    hit = np.logical_or.reduceat(near, starts, axis=1)
    count = np.add.reduceat(hit.astype(int), starts, axis=0)
    pairs = []
    for a, b in zip(*np.nonzero(np.triu(count >= poly.dim - 1, 1))):
        idx = np.flatnonzero(hit[starts[a]:starts[a] + sizes[a], b])
        # begin after the widest cyclic gap: a run that wraps past the last vertex
        gap = np.diff(idx, append=idx[0] + sizes[a])
        idx = np.roll(idx, -1 - int(np.argmax(gap)))
        pairs.append((fs[a].index, fs[b].index, fs[a].vertices[idx]))
    return pairs


def max_adjacent_angle(poly: ConvexPolytope) -> dict:
    """Largest interior dihedral angle and the corner-regularity exponent.

    The interior angle between adjacent faces is pi - arccos(nu_i . nu_j)
    (same value for inward or outward normals); alpha_star solves
    pi / (1 + alpha_star) = omega_max, matching the harmonic sector exponent
    pi / omega at a corner of opening omega.
    """
    best = None
    for i, j, _ in _adjacent_pairs(poly):
        dot = float(np.clip(poly.halfspaces[i].normal @ poly.halfspaces[j].normal, -1.0, 1.0))
        omega = np.pi - np.arccos(dot)
        if best is None or omega > best[0]:
            best = (omega, (i, j))
    if best is None:
        raise ValidationError("no adjacent face pairs found")
    omega_max = float(best[0])
    return {"omega_max": omega_max, "alpha_star": float(np.pi / omega_max - 1.0),
            "argmax_pair": best[1]}


# ---------------------------------------------------------------------------
# Diophantine certification
# ---------------------------------------------------------------------------

_SEARCH_BUDGET = 20_000_000  # vectors of the searched half ball


def _half_ball_size(d: int, bound: int) -> int:
    """Integer vectors m != 0 in d dimensions with |m|_1 <= bound, one per +-m pair."""
    return (sum(2 ** k * math.comb(d, k) * math.comb(bound, k) for k in range(d + 1)) - 1) // 2


def _extend(prefix, budget, ends, zero, start, stop):
    """Rows start..stop-1 of the prefixes, each extended by one more coordinate c.

    Prefix i owns the contiguous run of rows below ends[i] from ends[i - 1]
    on, where c climbs by one per row from -budget[i], and zero[i] is its row
    with c = 0; also returns the l1 budget each row has left. Only the runs
    the rows overlap are read: their prefixes are repeated once per row, and
    c is the row index less the repeated zero rows.
    """
    i0 = int(np.searchsorted(ends, start, side="right"))
    i1 = int(np.searchsorted(ends, stop - 1, side="right")) + 1
    ends, zero, budget = ends[i0:i1], zero[i0:i1], budget[i0:i1]
    counts = np.minimum(ends, stop) - np.maximum(zero - budget, start)
    c = np.arange(start, stop) - np.repeat(zero, counts)
    m = np.empty((stop - start, prefix.shape[1] + 1))
    m[:, :-1] = np.repeat(prefix[i0:i1], counts, axis=0)
    m[:, -1] = c
    return m, np.repeat(budget, counts) - np.abs(c)


def _l1_half_ball_blocks(d: int, bound: int, block: int = 8192):
    """Yield (m, |m|_1) blocks of at most ``block`` rows, in lexicographic order.

    Covers the m != 0 with |m|_1 <= bound whose first nonzero coordinate is
    negative, one of each +-m pair. Coordinates are added one at a time: a
    prefix with l1 budget r takes the next one from [-r, r], or from [-r, 0]
    while it is all zero ([-r, -1] for the last coordinate, excluding m = 0).
    In lexicographic order each prefix owns one run of consecutive values of
    the next coordinate, so a block is built from the runs it overlaps by
    repeating their prefixes (``_extend``); a block may start and end inside
    a run.
    """
    prefix = np.zeros((1, 0))  # float rows: M @ nu then needs no cast copy
    budget = np.array([bound])
    for k in range(1, d + 1):
        # coordinate k runs over [-budget, hi]
        hi = np.where(prefix.any(axis=1), budget, 0 if k < d else -1)
        ends = np.cumsum(hi + budget + 1)
        zero = ends - hi - 1
        if k < d:
            prefix, budget = _extend(prefix, budget, ends, zero, 0, int(ends[-1]))
    for start in range(0, int(ends[-1]), block):
        m, left = _extend(prefix, budget, ends, zero, start, min(start + block, int(ends[-1])))
        yield m, bound - left


def diophantine_check(nu, tau: float, bound: int) -> DiophantineCert:
    """Exhaustive search of min |m . nu| |m|_1^tau over 0 < |m|_1 <= bound.

    Since -m gives the same value, only the half ball whose first nonzero
    coordinate is negative is searched, in lexicographic order; worst_m is the
    lexicographically first minimiser. The vectors come in blocks of at most
    8192 rows, each built from runs of the last coordinate
    (`_l1_half_ball_blocks`), so memory stays at one block plus the prefixes.
    A search of more than 20M vectors (d = 3 beyond bound 310) raises
    ValidationError before enumerating any.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 1 or not np.isfinite(nu).all() or abs(np.linalg.norm(nu) - 1.0) > 1e-10:
        raise BadNormal("nu must be a finite unit vector")
    if not 0 < tau < np.inf:  # also rejects nan
        raise ValidationError("tau must be positive and finite")
    try:
        bound = operator.index(bound)
    except TypeError:
        raise ValidationError(f"bound must be an integer, got {bound!r}") from None
    if bound < 1:
        raise ValidationError("bound must be >= 1")
    # |m . nu| |m|_1^tau <= bound^(tau + 1) must stay finite: an overflow
    # would turn an exact zero into 0 * inf = nan and hide it from argmin
    if (tau + 1.0) * math.log(bound) > 700.0:
        raise ValidationError(f"tau = {tau!r} is too large for bound = {bound}")
    d = nu.size
    if _half_ball_size(d, bound) > _SEARCH_BUDGET:
        raise ValidationError(f"lattice search too large for d = {d}, bound = {bound}")
    best_val = np.inf
    best_m = None
    for M, l1 in _l1_half_ball_blocks(d, bound):
        vals = np.abs(M @ nu) * l1.astype(float) ** tau
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_m = tuple(int(v) for v in M[i])
    if best_val <= 1e-12:
        best_val = 0.0
    return DiophantineCert(tau=float(tau), searched_bound=int(bound),
                           c_lower=best_val, worst_m=best_m)


# ---------------------------------------------------------------------------
# strips and lattice partition
# ---------------------------------------------------------------------------

def face_strip_membership(face: Face, rho: float, y) -> bool:
    """Whether y lies in the width-rho strip of the face near its relative boundary."""
    if rho <= 0:
        raise ValidationError("rho must be positive")
    y = np.asarray(y, dtype=float)
    if not face.on_hyperplane(y):
        raise OffHyperplane("point is not on the face's hyperplane")
    if face.dim == 2:
        a, b = face.vertices
        t = b - a
        s = float(np.dot(y - a, t) / np.dot(t, t))
        if s < -GEOM_TOL or s > 1.0 + GEOM_TOL:
            return False  # off the face itself
    else:
        # inside test: y must be in the closed convex polygon
        v = face.vertices
        nu = face.normal
        for i in range(len(v)):
            edge = v[(i + 1) % len(v)] - v[i]
            inward = np.cross(nu, edge)
            if float(np.dot(inward, y - v[i])) < -1e-9:
                return False
    return face.dist_to_relative_boundary(y) <= rho


def hyperplane_lift(nu: np.ndarray, c: float, axis: int, u) -> np.ndarray:
    """Points of the hyperplane nu . y = c whose coordinates other than
    ``axis``, in increasing order, are the rows of u."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    others = [j for j in range(nu.size) if j != axis]
    out = np.empty((len(u), nu.size))
    out[:, others] = u
    out[:, axis] = (c - u @ nu[others]) / nu[axis]
    return out


def _lattice_run(lo: float, hi: float, rho: float, snap: float) -> range:
    """Indices n whose lattice interval [n rho, (n+1) rho] lies in [lo - snap, hi + snap]."""
    return range(int(np.ceil((lo - snap) / rho - 1e-12)), int(np.floor((hi + snap) / rho + 1e-12)))


def lattice_partition(face: Face, axis: int, rho: float) -> FacePartition:
    """Partition a face into preimages of lattice rho-cubes under pi_axis.

    Cells are the maximal family of side-rho cubes with vertices in the
    lattice rho * Z^{d-1} fully contained in the projected face, lifted back
    through the (bijective) coordinate projection; the leftover E is stored
    as explicit convex pieces and is contained in the strip of width
    c0 * rho, c0 = 2 sqrt(d-1) / |nu_axis|.

    One interval rule finds the cells (`_lattice_run`): for d = 2 they are
    the lattice run inside the projected segment. For d = 3 the projected
    polygon is cut into columns [a rho, (a+1) rho]; a square of a column lies
    in the convex polygon exactly when both of its vertical sides do, so its
    rows are the lattice run inside both sides of the column's strip, and the
    strip above and below that run (all of it when the run is empty) is E.
    """
    if rho <= 0:
        raise ValidationError("rho must be positive")
    nu, c, d = face.normal, face.offset, face.dim
    if not 0 <= axis < d:
        raise ValidationError(f"axis {axis} out of range for d = {d}")
    if abs(nu[axis]) <= 1e-12:
        raise ZeroNormalComponent(f"normal component {axis} vanishes; projection is not bijective")
    if d not in (2, 3):
        raise UnsupportedDimension("lattice partition implemented for d = 2, 3")

    c0 = 2.0 * np.sqrt(d - 1.0) / abs(nu[axis])
    cell_measure = rho ** (d - 1) / abs(nu[axis])
    proj = face.vertices[:, [j for j in range(d) if j != axis]]
    squares, pieces = [], []  # (index, projected corners), (projected piece, projected measure)
    if d == 2:
        lo, hi = sorted(proj[:, 0])
        run = _lattice_run(lo, hi, rho, 1e-9)
        squares = [((n,), [[n * rho], [(n + 1) * rho]]) for n in run]
        gaps = [(lo, run.start * rho), (run.stop * rho, hi)] if run else [(lo, hi)]
        pieces = [([[a], [b]], b - a) for a, b in gaps if b - a > 1e-9]
    else:
        snap = 1e-12  # cube-containment slack; keeps exactly-flush lattice squares
        for a in range(int(np.floor((proj[:, 0].min() - snap) / rho)),
                       int(np.ceil((proj[:, 0].max() + snap) / rho))):
            x0, x1 = a * rho, (a + 1) * rho
            strip = _clip_halfplane(_clip_halfplane(list(proj), np.array([1.0, 0.0]), x1),
                                    np.array([-1.0, 0.0]), -x0)
            if len(strip) < 3:
                continue
            sides = [[v for u, v in strip if abs(u - x) <= GEOM_TOL] for x in (x0, x1)]
            run = (_lattice_run(max(map(min, sides)), min(map(max, sides)), rho, snap)
                   if sides[0] and sides[1] else range(0))
            squares += [((a, b), [[x0, b * rho], [x1, b * rho], [x1, (b + 1) * rho],
                                  [x0, (b + 1) * rho]]) for b in run]
            rest = ([_clip_halfplane(strip, np.array([0.0, -1.0]), -run.stop * rho),
                     _clip_halfplane(strip, np.array([0.0, 1.0]), run.start * rho)]
                    if run else [strip])  # the strip above and below the run, or all of it
            for q in (np.reshape(p, (-1, 2)) for p in rest):  # shoelace: 0 below 3 points
                area = abs(0.5 * np.sum(q[:, 0] * np.roll(q[:, 1], -1)
                                        - np.roll(q[:, 0], -1) * q[:, 1]))
                if area / abs(nu[axis]) > 1e-15:
                    pieces.append((q, area))

    def lift(u):
        return _readonly(hyperplane_lift(nu, c, axis, np.array(u, dtype=float)))

    cells = tuple(PartitionCell(lattice_index=i, vertices=lift(u), measure=cell_measure)
                  for i, u in squares)
    leftover = Leftover(pieces=tuple(lift(q) for q, _ in pieces),
                        measure=sum((m / abs(nu[axis]) for _, m in pieces), 0.0))
    total = len(cells) * cell_measure + leftover.measure
    # d = 2 snaps the run's ends and drops gaps at 1e-9, beyond this check's slack
    if d == 3 and abs(total - face.measure) > 1e-9 * max(1.0, face.measure):
        raise ValidationError(
            f"partition does not cover the face: {total!r} vs {face.measure!r}")
    return FacePartition(face=face, axis=axis, cell_size=float(rho),
                         cells=cells, leftover=leftover, c0=float(c0))
