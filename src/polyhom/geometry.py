"""Convex polytopes as half-space intersections.

Provides faces with explicit vertex descriptions (d = 2, 3), boundary and
singular-set distances, interior dihedral angles, Diophantine certification
of face normals by exhaustive lattice search, strips near face boundaries,
and the lattice partition of a face into lifted cubes plus a small leftover.

Conventions: a polytope is D = {x : nu_j . x > c_j for all j} with unit
normals nu_j pointing into the domain, so nu_j . x - c_j is the (exact)
distance of an interior point to the j-th bounding hyperplane. All geometric
predicates use absolute tolerance GEOM_TOL on unit-scale inputs; polytopes
are expected pre-scaled to diameter O(1).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    BadNormal,
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
    strict feasibility; instances are immutable.
    """

    dim: int
    halfspaces: tuple[HalfSpace, ...]
    interior_point: np.ndarray
    inradius: float
    bbox: np.ndarray  # (d, 2) coordinate ranges

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


@dataclass(frozen=True, eq=False)
class Face:
    """A (d-1)-dimensional flat portion of the boundary.

    ``vertices`` is the ordered vertex description for d = 2 (two endpoints,
    oriented counterclockwise along the polygon) and d = 3 (planar convex
    polygon, counterclockwise about the inward normal); for d >= 4 only the
    active-constraint description (index, normal, offset) is kept and
    ``vertices`` is None.
    """

    index: int
    normal: np.ndarray
    offset: float
    dim: int
    vertices: np.ndarray | None

    @property
    def measure(self) -> float:
        """(d-1)-dimensional Hausdorff measure (exact for d = 2, 3)."""
        if self.vertices is None:
            raise UnsupportedDimension("no vertex description for d >= 4 faces")
        if self.dim == 2:
            return float(np.linalg.norm(self.vertices[1] - self.vertices[0]))
        return _planar_polygon_area(self.vertices)

    @property
    def centroid(self) -> np.ndarray:
        if self.vertices is None:
            raise UnsupportedDimension("no vertex description for d >= 4 faces")
        return self.vertices.mean(axis=0)

    def on_hyperplane(self, y, tol: float = GEOM_TOL) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(abs(float(self.normal @ y) - self.offset) <= tol)

    def dist_to_relative_boundary(self, y) -> float:
        """Distance from a point on the face's hyperplane to its relative boundary."""
        y = np.asarray(y, dtype=float)
        if self.dim == 2:
            return float(min(np.linalg.norm(y - self.vertices[0]), np.linalg.norm(y - self.vertices[1])))
        if self.dim == 3:
            k = len(self.vertices)
            return float(min(_point_segment_distance(y, self.vertices[i], self.vertices[(i + 1) % k])
                             for i in range(k)))
        raise UnsupportedDimension("relative-boundary distance implemented for d = 2, 3 only")


@dataclass(frozen=True, eq=False)
class DiophantineCert:
    """Result of the exhaustive search min |m . nu| |m|_1^tau over 0 < |m|_1 <= M.

    c_lower > 0 certifies no integer vector up to the searched bound
    annihilates nu; c_lower = 0 reports a rational-direction hit at worst_m.
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

def build_polytope(halfspaces) -> ConvexPolytope:
    """Validate a half-space list into a certified bounded convex polytope.

    Certification is by linear programming: a Chebyshev-style LP produces a
    strictly interior point (or proves EmptyInterior), and per-coordinate
    min/max LPs prove boundedness (or raise Unbounded) and give the bbox.
    """
    hs = tuple(h if isinstance(h, HalfSpace) else HalfSpace(*h) for h in halfspaces)
    if not hs:
        raise ValidationError("need at least one half-space")
    d = hs[0].dim
    if d < 2:
        raise ValidationError("dimension must be >= 2")
    if any(h.dim != d for h in hs):
        raise ValidationError("all half-spaces must share one dimension")

    N = np.array([h.normal for h in hs])
    c = np.array([h.offset for h in hs])
    n = len(hs)
    for i in range(n):
        for j in range(i + 1, n):
            if np.max(np.abs(N[i] - N[j])) <= GEOM_TOL and abs(c[i] - c[j]) <= GEOM_TOL:
                raise DuplicateHalfSpace(f"half-spaces {i} and {j} coincide within tolerance")

    # max t  s.t.  nu_j . x - t >= c_j, t <= 1  (t* = inradius when t* < 1)
    A_ub = np.hstack([-N, np.ones((n, 1))])
    res = linprog(np.r_[np.zeros(d), -1.0], A_ub=A_ub, b_ub=-c,
                  bounds=[(None, None)] * d + [(None, 1.0)], method="highs")
    if res.status == 3:
        # objective bounded by t <= 1, so unboundedness can only be reported
        # through the coordinate LPs below; treat defensively
        raise Unbounded("feasibility LP unbounded")
    if res.status != 0 or res.x is None or res.x[-1] <= GEOM_TOL:
        raise EmptyInterior("no strictly feasible point (interior empty or lower-dimensional)")
    interior = res.x[:d]
    inradius = float(res.x[-1])

    bbox = np.empty((d, 2))
    for i in range(d):
        for sign, col in ((1.0, 0), (-1.0, 1)):
            obj = np.zeros(d)
            obj[i] = sign
            r = linprog(obj, A_ub=-N, b_ub=-c, bounds=[(None, None)] * d, method="highs")
            if r.status == 3:
                raise Unbounded(f"coordinate {i} is unbounded over the intersection")
            if r.status != 0:
                raise ValidationError(f"boundedness LP failed with status {r.status}")
            # obj = +e_i gives min x_i, obj = -e_i gives -max x_i
            bbox[i, col] = sign * r.fun

    return ConvexPolytope(dim=d, halfspaces=hs, interior_point=_readonly(interior),
                          inradius=inradius, bbox=_readonly(bbox))


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
    """Counterclockwise vertex cycle of a 2-D polytope."""
    if poly.dim != 2:
        raise UnsupportedDimension("vertex cycle is for d = 2")
    N, c = poly.normals, poly.offsets
    n = len(N)
    pts = []
    for i in range(n):
        for j in range(i + 1, n):
            A = np.array([N[i], N[j]])
            det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            if abs(det) <= 1e-12:
                continue
            p = np.linalg.solve(A, np.array([c[i], c[j]]))
            if np.min(N @ p - c) >= -1e-9:
                pts.append(p)
    if len(pts) < 3:
        raise ValidationError("fewer than three vertices found")
    pts = np.array(pts)
    # dedupe within 1e-9
    keep = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= 1e-9 for q in keep):
            keep.append(p)
    keep = np.array(keep)
    ang = np.arctan2(keep[:, 1] - poly.interior_point[1], keep[:, 0] - poly.interior_point[0])
    return _readonly(keep[np.argsort(ang)])


def _planar_polygon_area(verts3d: np.ndarray) -> float:
    """Area of a planar polygon in R^3 via the cross-product shoelace."""
    v0 = verts3d[0]
    s = np.zeros(3)
    for i in range(1, len(verts3d) - 1):
        s += np.cross(verts3d[i] - v0, verts3d[i + 1] - v0)
    return float(np.linalg.norm(s) / 2.0)


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def _plane_basis(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal in-plane basis (e1, e2) with (e1, e2, nu) right-handed."""
    a = np.zeros(3)
    a[int(np.argmin(np.abs(nu)))] = 1.0
    e1 = np.cross(nu, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nu, e1)
    return e1, e2


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
    """Clip the k-th bounding plane by all other half-spaces; CCW about nu_k."""
    nu = poly.halfspaces[k].normal
    c = poly.halfspaces[k].offset
    p0 = c * nu
    e1, e2 = _plane_basis(nu)
    R = poly.diameter + np.linalg.norm(p0 - poly.interior_point) + 1.0
    pts = [np.array([-R, -R]), np.array([R, -R]), np.array([R, R]), np.array([-R, R])]
    for j, h in enumerate(poly.halfspaces):
        if j == k:
            continue
        # h.normal . (p0 + u1 e1 + u2 e2) >= h.offset  ->  a . u <= b
        a = -np.array([float(h.normal @ e1), float(h.normal @ e2)])
        b = float(h.normal @ p0) - h.offset
        pts = _clip_halfplane(pts, a, b)
        if len(pts) < 3:
            return None
    uv = np.array(pts)
    area2 = 0.5 * np.sum(uv[:, 0] * np.roll(uv[:, 1], -1) - np.roll(uv[:, 0], -1) * uv[:, 1])
    if area2 < 0:
        uv = uv[::-1]
    if abs(area2) <= 1e-12:
        return None
    return p0 + uv[:, :1] * e1 + uv[:, 1:] * e2


def faces(poly: ConvexPolytope) -> list[Face]:
    """One Face per half-space whose active set has positive (d-1)-measure.

    Degenerate contacts (a vertex or lower-dimensional touch, including fully
    redundant half-spaces) are dropped with a DegenerateFaceWarning.
    """
    out: list[Face] = []
    if poly.dim == 2:
        verts = polygon_vertices(poly)
        N, c = poly.normals, poly.offsets
        for j, h in enumerate(poly.halfspaces):
            on = [v for v in verts if abs(float(h.normal @ v) - h.offset) <= 1e-9]
            if len(on) < 2:
                warnings.warn(f"half-space {j} touches the polygon in a degenerate set; dropped",
                              DegenerateFaceWarning, stacklevel=2)
                continue
            t = np.array([h.normal[1], -h.normal[0]])  # CCW traversal direction
            on.sort(key=lambda v: float(t @ v))
            a, b = on[0], on[-1]
            if np.linalg.norm(b - a) <= 1e-9:
                warnings.warn(f"half-space {j} touches the polygon in a degenerate set; dropped",
                              DegenerateFaceWarning, stacklevel=2)
                continue
            out.append(Face(index=j, normal=h.normal, offset=h.offset, dim=2,
                            vertices=_readonly(np.array([a, b]))))
        return out
    if poly.dim == 3:
        for j, h in enumerate(poly.halfspaces):
            vv = _face_polygon_3d(poly, j)
            if vv is None:
                warnings.warn(f"half-space {j} touches the polytope in a degenerate set; dropped",
                              DegenerateFaceWarning, stacklevel=2)
                continue
            out.append(Face(index=j, normal=h.normal, offset=h.offset, dim=3,
                            vertices=_readonly(vv)))
        return out
    # general d: active-constraint description, existence certified by LP
    for j, h in enumerate(poly.halfspaces):
        others = [i for i in range(len(poly.halfspaces)) if i != j]
        N = poly.normals[others]
        c = poly.offsets[others]
        d = poly.dim
        # max t s.t. nu_j . x = c_j, nu_i . x - t >= c_i, t <= 1
        A_ub = np.hstack([-N, np.ones((len(others), 1))])
        res = linprog(np.r_[np.zeros(d), -1.0], A_ub=A_ub, b_ub=-c,
                      A_eq=np.r_[h.normal, 0.0][None, :], b_eq=[h.offset],
                      bounds=[(lo, hi) for lo, hi in poly.bbox] + [(None, 1.0)],
                      method="highs")
        if res.status != 0 or res.x is None or res.x[-1] <= GEOM_TOL:
            warnings.warn(f"half-space {j} touches the polytope in a degenerate set; dropped",
                          DegenerateFaceWarning, stacklevel=2)
            continue
        out.append(Face(index=j, normal=h.normal, offset=h.offset, dim=poly.dim, vertices=None))
    return out


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
    """Closed edges (1-dimensional faces) of a 3-D polytope."""
    if poly.dim != 3:
        raise UnsupportedDimension("edges enumerated for d = 3 only")
    seen = {}
    for f in faces(poly):
        v = f.vertices
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            key = tuple(sorted((tuple(np.round(a, 9)), tuple(np.round(b, 9)))))
            seen.setdefault(key, (a, b))
    return list(seen.values())


def distance_to_singular(poly: ConvexPolytope, x) -> float:
    """Distance to the singular boundary: vertices (d = 2) or closed edges (d = 3)."""
    x = np.asarray(x, dtype=float)
    if not poly.contains(x):
        raise OutsideDomain("point outside the closed polytope")
    if poly.dim == 2:
        verts = polygon_vertices(poly)
        return float(np.min(np.linalg.norm(verts - x, axis=1)))
    if poly.dim == 3:
        return float(min(_point_segment_distance(x, a, b) for a, b in polytope_edges(poly)))
    raise UnsupportedDimension("singular-set distance implemented for d = 2, 3 only")


def _adjacent_pairs(poly: ConvexPolytope) -> list[tuple[int, int]]:
    fs = faces(poly)
    pairs = []
    if poly.dim == 2:
        for a in range(len(fs)):
            for b in range(a + 1, len(fs)):
                va, vb = fs[a].vertices, fs[b].vertices
                if min(np.linalg.norm(p - q) for p in va for q in vb) <= 1e-9:
                    pairs.append((fs[a].index, fs[b].index))
        return pairs
    if poly.dim == 3:
        for a in range(len(fs)):
            for b in range(a + 1, len(fs)):
                va, vb = fs[a].vertices, fs[b].vertices
                shared = sum(1 for p in va if min(np.linalg.norm(p - q) for q in vb) <= 1e-9)
                if shared >= 2:
                    pairs.append((fs[a].index, fs[b].index))
        return pairs
    raise UnsupportedDimension("adjacency implemented for d = 2, 3 only")


def max_adjacent_angle(poly: ConvexPolytope) -> dict:
    """Largest interior dihedral angle and the corner-regularity exponent.

    The interior angle between adjacent faces is pi - arccos(nu_i . nu_j)
    (same value for inward or outward normals); alpha_star solves
    pi / (1 + alpha_star) = omega_max, matching the harmonic sector exponent
    pi / omega at a corner of opening omega.
    """
    best = None
    for i, j in _adjacent_pairs(poly):
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

def _l1_ball_blocks(d: int, bound: int, block: int = 512):
    """Yield integer-vector blocks covering 0 < |m|_1 <= bound."""
    rng = np.arange(-bound, bound + 1)
    if d == 2:
        for start in range(0, rng.size, block):
            m1 = rng[start:start + block]
            M1, M2 = np.meshgrid(m1, rng, indexing="ij")
            yield np.column_stack([M1.ravel(), M2.ravel()])
    elif d == 3:
        for m1 in rng:
            M2, M3 = np.meshgrid(rng, rng, indexing="ij")
            M1 = np.full(M2.size, m1)
            yield np.column_stack([M1, M2.ravel(), M3.ravel()])
    else:
        if (2 * bound + 1) ** d > 20_000_000:
            raise ValidationError(f"lattice search too large for d = {d}, bound = {bound}")
        grids = np.meshgrid(*([rng] * d), indexing="ij")
        yield np.column_stack([g.ravel() for g in grids])


def diophantine_check(nu, tau: float, bound: int) -> DiophantineCert:
    """Exhaustive search of min |m . nu| |m|_1^tau over 0 < |m|_1 <= bound."""
    nu = np.asarray(nu, dtype=float)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-10:
        raise BadNormal("nu must be a unit vector")
    if tau <= 0:
        raise ValidationError("tau must be positive")
    if bound < 1:
        raise ValidationError("bound must be >= 1")
    d = nu.size
    best_val = np.inf
    best_m = None
    for M in _l1_ball_blocks(d, bound):
        l1 = np.abs(M).sum(axis=1)
        mask = (l1 > 0) & (l1 <= bound)
        if not mask.any():
            continue
        M = M[mask]
        l1 = l1[mask]
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
    if face.vertices is None:
        raise UnsupportedDimension("strip membership needs a vertex description (d = 2, 3)")
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


def lattice_partition(face: Face, axis: int, rho: float) -> FacePartition:
    """Partition a face into preimages of lattice rho-cubes under pi_axis.

    Cells are the maximal family of side-rho cubes with vertices in the
    lattice rho * Z^{d-1} fully contained in the projected face, lifted back
    through the (bijective) coordinate projection; the leftover E is stored
    as explicit convex pieces and is contained in the strip of width
    c0 * rho, c0 = 2 sqrt(d-1) / |nu_axis|.
    """
    if rho <= 0:
        raise ValidationError("rho must be positive")
    nu, c, d = face.normal, face.offset, face.dim
    if not 0 <= axis < d:
        raise ValidationError(f"axis {axis} out of range for d = {d}")
    if abs(nu[axis]) <= 1e-12:
        raise ZeroNormalComponent(f"normal component {axis} vanishes; projection is not bijective")
    if face.vertices is None or d not in (2, 3):
        raise UnsupportedDimension("lattice partition implemented for d = 2, 3")

    snap = 1e-9
    c0 = 2.0 * np.sqrt(d - 1.0) / abs(nu[axis])
    others = [j for j in range(d) if j != axis]

    if d == 2:
        j = others[0]
        lo, hi = sorted(float(v[j]) for v in face.vertices)
        n0 = int(np.ceil((lo - snap) / rho - 1e-12))
        n1 = int(np.floor((hi + snap) / rho + 1e-12))  # cells n0 .. n1-1
        cells = []
        cell_measure = rho / abs(nu[axis])
        for n in range(n0, n1):
            ends = hyperplane_lift(nu, c, axis, np.array([[n * rho], [(n + 1) * rho]]))
            cells.append(PartitionCell(lattice_index=(n,), vertices=_readonly(ends),
                                       measure=cell_measure))
        gaps = [(lo, n0 * rho), (n1 * rho, hi)] if n1 > n0 else [(lo, hi)]
        pieces = []
        e_measure = 0.0
        for a, b in gaps:
            if b - a > snap:
                seg = hyperplane_lift(nu, c, axis, np.array([[a], [b]]))
                pieces.append(_readonly(seg))
                e_measure += (b - a) / abs(nu[axis])
        leftover = Leftover(pieces=tuple(pieces), measure=e_measure)
        return FacePartition(face=face, axis=axis, cell_size=float(rho),
                             cells=tuple(cells), leftover=leftover, c0=float(c0))

    # d == 3: project the face polygon by dropping the eliminated coordinate
    proj = face.vertices[:, others]
    area2 = 0.5 * np.sum(proj[:, 0] * np.roll(proj[:, 1], -1) - np.roll(proj[:, 0], -1) * proj[:, 1])
    if area2 < 0:
        proj = proj[::-1]
    # half-plane form alpha . u <= beta of the projected convex polygon (CCW)
    alphas, betas = [], []
    for i in range(len(proj)):
        t = proj[(i + 1) % len(proj)] - proj[i]
        a = np.array([t[1], -t[0]])
        a /= np.linalg.norm(a)
        alphas.append(a)
        betas.append(float(a @ proj[i]))
    alphas = np.array(alphas)
    betas = np.array(betas)

    snap = 1e-12  # cube-containment slack; keeps exactly-flush lattice cubes
    lo1, hi1 = float(proj[:, 0].min()), float(proj[:, 0].max())
    a_first = int(np.floor((lo1 - snap) / rho))
    a_last = int(np.ceil((hi1 + snap) / rho))

    jacobian = 1.0 / abs(nu[axis])
    cell_measure = rho * rho * jacobian
    cells = []
    pieces_2d: list[np.ndarray] = []
    for a in range(a_first, a_last):
        u1a, u1b = a * rho, (a + 1) * rho
        # integer b-range such that the square [u1a,u1b] x [b rho,(b+1) rho]
        # satisfies every half-plane at its worst corner
        b_lo, b_hi = -np.inf, np.inf
        feasible = True
        for al, be in zip(alphas, betas):
            x_worst = u1b if al[0] > 0 else u1a
            rem = be - al[0] * x_worst + snap
            if abs(al[1]) <= 1e-14:
                if rem < 0:
                    feasible = False
                    break
            elif al[1] > 0:
                b_hi = min(b_hi, rem / (al[1] * rho) - 1.0)
            else:
                b_lo = max(b_lo, rem / (al[1] * rho))
        bs = []
        if feasible and np.isfinite(b_lo) and np.isfinite(b_hi):
            b0 = int(np.ceil(b_lo - 1e-12))
            b1 = int(np.floor(b_hi + 1e-12))
            bs = list(range(b0, b1 + 1))
        for b in bs:
            corners = np.array([[u1a, b * rho], [u1b, b * rho],
                                [u1b, (b + 1) * rho], [u1a, (b + 1) * rho]])
            quad = hyperplane_lift(nu, c, axis, corners)
            cells.append(PartitionCell(lattice_index=(a, b), vertices=_readonly(quad),
                                       measure=cell_measure))
        # leftover pieces of this column: clip polygon to the slab, remove the
        # contiguous covered rectangle (convexity makes the covered b-range
        # contiguous, so the remainder splits into a top and a bottom piece)
        strip = _clip_halfplane([p for p in proj], np.array([1.0, 0.0]), u1b)
        strip = _clip_halfplane(strip, np.array([-1.0, 0.0]), -u1a)
        if len(strip) < 3:
            continue
        if bs:
            top = _clip_halfplane(list(strip), np.array([0.0, -1.0]), -(bs[-1] + 1) * rho)
            bot = _clip_halfplane(list(strip), np.array([0.0, 1.0]), bs[0] * rho)
            for piece in (top, bot):
                if len(piece) >= 3:
                    pieces_2d.append(np.array(piece))
        else:
            pieces_2d.append(np.array(strip))

    pieces = []
    e_measure = 0.0
    for q in pieces_2d:
        area = 0.5 * np.sum(q[:, 0] * np.roll(q[:, 1], -1) - np.roll(q[:, 0], -1) * q[:, 1])
        if abs(area) * jacobian <= 1e-15:
            continue
        e_measure += abs(area) * jacobian
        pieces.append(_readonly(hyperplane_lift(nu, c, axis, q)))
    leftover = Leftover(pieces=tuple(pieces), measure=e_measure)

    part = FacePartition(face=face, axis=axis, cell_size=float(rho),
                         cells=tuple(cells), leftover=leftover, c0=float(c0))
    total = len(cells) * cell_measure + e_measure
    if abs(total - face.measure) > 1e-9 * max(1.0, face.measure):
        raise ValidationError(
            f"partition does not cover the face: {total!r} vs {face.measure!r}")
    return part
