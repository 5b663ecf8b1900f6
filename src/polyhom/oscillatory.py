"""Oscillatory integrals of exp(2 pi i lambda m . y) over flat face patches.

A patch is the box-constrained piece of a hyperplane
Pi = {y : nu . y = c, y_j in [a_j, b_j] for j != k}; eliminating y_k turns
the surface integral into a product of one-dimensional integrals with an
explicit Jacobian 1/|nu_k| and phase exp(2 pi i lambda c m_k / nu_k).
The adaptive tensor quadrature below validates that derivation numerically;
decay envelopes record how fast the integrals fall with lambda for
Diophantine normals, and face/boundary averages measure equidistribution of
lambda-dilated boundary data with exact integrals only: segment sinc factors
for d = 2; closed-form patches on lattice cells plus divergence-theorem edge
sums on the leftover pieces for d = 3.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    NotApplicable,
    UnsupportedDimension,
    ValidationError,
    ZeroNormalComponent,
)
from .geometry import (ConvexPolytope, Face, _readonly, faces, hyperplane_lift,
                       lattice_partition)

_SMALL_PHASE = 1e-13
_TAYLOR_PHASE = 1e-3
_GAUSS_ORDER = 8
_GLX, _GLW = np.polynomial.legendre.leggauss(_GAUSS_ORDER)


@dataclass(frozen=True, eq=False)
class FacePatch:
    """Box piece of a hyperplane with one eliminated coordinate.

    ``bounds`` has one (a_j, b_j) row per coordinate j != axis, in
    increasing j order; every point of the patch satisfies nu . y = c.
    """

    normal: np.ndarray
    offset: float
    axis: int
    bounds: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.normal, dtype=float)
        d = nu.size
        if abs(np.linalg.norm(nu) - 1.0) > 1e-10:
            raise ValidationError("patch normal must be a unit vector")
        if not 0 <= self.axis < d:
            raise ValidationError(f"axis {self.axis} out of range for d = {d}")
        if abs(nu[self.axis]) <= 1e-12:
            raise ZeroNormalComponent("eliminated axis has zero normal component")
        b = np.asarray(self.bounds, dtype=float).reshape(d - 1, 2)
        if np.any(b[:, 1] <= b[:, 0]):
            raise ValidationError("bounds must satisfy a_j < b_j")
        object.__setattr__(self, "normal", _readonly(nu))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "bounds", _readonly(b))

    @property
    def dim(self) -> int:
        return self.normal.size

    @property
    def free_axes(self) -> list[int]:
        return [j for j in range(self.dim) if j != self.axis]

    def lift(self, u: np.ndarray) -> np.ndarray:
        """Map free-coordinate rows u to points on the patch's hyperplane."""
        return hyperplane_lift(self.normal, self.offset, self.axis, u)


@dataclass(frozen=True, eq=False)
class OscValue:
    """One evaluated oscillatory integral with its provenance."""

    value: complex
    lam: float
    m: tuple[int, ...]
    method: str  # "closed_form" | "quadrature"


def _checked(value: complex, lam: float, m, method: str, measure: float) -> OscValue:
    value = complex(value)
    if abs(value) > measure * (1.0 + 1e-9) + 1e-12:
        raise ValidationError(
            f"|integral| = {abs(value)!r} exceeds the patch measure {measure!r}")
    return OscValue(value=value, lam=float(lam), m=tuple(int(v) for v in m), method=method)


def patch_measure(patch: FacePatch) -> float:
    """Surface measure: prod (b_j - a_j) / |nu_k| for a unit normal."""
    widths = patch.bounds[:, 1] - patch.bounds[:, 0]
    return float(np.prod(widths) / abs(patch.normal[patch.axis]))


# ---------------------------------------------------------------------------
# closed form and quadrature oracle
# ---------------------------------------------------------------------------

def _interval_factor(theta: float, lam: float, a: float, b: float) -> complex:
    """int_a^b exp(2 pi i lam theta t) dt, stable for small phases.

    Uses the exact midpoint-sinc form, which equals
    (exp(2 pi i lam theta b) - exp(2 pi i lam theta a)) / (2 pi i lam theta)
    without subtractive cancellation; below the small-phase threshold the
    limit (b - a) is returned directly.
    """
    w = lam * theta
    if abs(w) <= _SMALL_PHASE * max(abs(a), abs(b), 1.0):
        return complex(b - a)
    return (b - a) * np.exp(2j * np.pi * w * (a + b) / 2.0) * np.sinc(w * (b - a))


def patch_integral_closed_form(patch: FacePatch, lam: float, m) -> OscValue:
    """Exact integral of exp(2 pi i lam m . y) over the patch.

    I = (1/|nu_k|) exp(2 pi i lam c m_k / nu_k)
        prod_{j != k} int_{a_j}^{b_j} exp(2 pi i lam theta_j y_j) dy_j,
    with theta_j = m_j - m_k nu_j / nu_k.
    """
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    m = np.asarray(m, dtype=float)
    if m.size != patch.dim:
        raise ValidationError(f"m has {m.size} components, expected {patch.dim}")
    nu, k, c = patch.normal, patch.axis, patch.offset
    mk = m[int(k)]
    value = np.exp(2j * np.pi * lam * c * mk / nu[k]) / abs(nu[k])
    for row, j in enumerate(patch.free_axes):
        theta = m[j] - mk * nu[j] / nu[k]
        a, b = patch.bounds[row]
        value *= _interval_factor(float(theta), lam, float(a), float(b))
    return _checked(value, lam, m.astype(int), "closed_form", patch_measure(patch))


def _axis_sum(patch: FacePatch, m: np.ndarray, lam: float, row: int,
              n_panels: int, u0: np.ndarray, phi0: float) -> complex:
    """Panel Gauss sum of exp(2 pi i lam (m . lift - phi0)) along one free axis."""
    a, b = patch.bounds[row]
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GLX[None, :]).ravel()
    weights = (half[:, None] * _GLW[None, :]).ravel()
    pts = np.tile(u0, (nodes.size, 1))
    pts[:, row] = nodes
    phase = patch.lift(pts) @ m - phi0
    return complex(np.sum(weights * np.exp(2j * np.pi * lam * phase)))


def patch_integral_quadrature(patch: FacePatch, lam: float, m, tol: float = 1e-10,
                              max_panels: int = 4_000_000) -> OscValue:
    """Adaptive tensor quadrature of exp(2 pi i lam m . y) over the patch.

    Panel-doubling Gauss rule per free axis; initial panels are sized to at
    most a quarter period of the fastest phase component, and panel counts
    double until the change is below tol (absolute on the value). The phase
    is affine in the free coordinates, so the tensor-product Gauss sum over
    the box factorizes exactly into per-axis sums; only the parametrization
    of the surface is shared with the closed form, not its antiderivatives.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    m = np.asarray(m, dtype=float)
    nu, k = patch.normal, patch.axis
    jac = 1.0 / abs(nu[k])
    u0 = 0.5 * (patch.bounds[:, 0] + patch.bounds[:, 1])
    phi0 = float(patch.lift(u0)[0] @ m)
    # effective per-axis frequency from the lift map itself
    rates = []
    for row in range(patch.dim - 1):
        e = np.zeros(patch.dim - 1)
        e[row] = 1.0
        rates.append(abs(float(patch.lift(u0 + e)[0] @ m) - phi0))
    widths = patch.bounds[:, 1] - patch.bounds[:, 0]
    panels = [max(1, int(np.ceil(4.0 * lam * r * w))) for r, w in zip(rates, widths)]

    prev = None
    while True:
        if sum(panels) > max_panels:
            raise BudgetExceeded(f"panel count {sum(panels)} exceeds cap {max_panels}")
        value = jac * np.exp(2j * np.pi * lam * phi0)
        for row in range(patch.dim - 1):
            value *= _axis_sum(patch, m, lam, row, panels[row], u0, phi0)
        if prev is not None and abs(value - prev) <= tol:
            return _checked(value, lam, m.astype(int), "quadrature",
                            patch_measure(patch) * (1.0 + 1e-12) + tol)
        prev = value
        panels = [2 * n for n in panels]


# ---------------------------------------------------------------------------
# decay envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecayEnvelope:
    """Per-lambda normalized moduli lambda^{d-1} |I| / |m|_1^{(d-1) tau}."""

    m: tuple[int, ...]
    tau: float
    rows: tuple  # (lam, value, ratio) triples
    sup_ratio: float


def decay_envelope(patch: FacePatch, m, lambdas, tau: float) -> DecayEnvelope:
    """Measure the decay constant of the closed-form integrals on a lambda grid.

    Requires m_k != 0 for the patch's eliminated axis; the normalization
    lambda^{d-1} |I| / |m|_1^{(d-1) tau} stays bounded exactly when the decay
    estimate for Diophantine normals applies.
    """
    m = tuple(int(v) for v in np.atleast_1d(m))
    if int(m[patch.axis]) == 0:
        raise NotApplicable("m has zero component along the eliminated axis")
    d = patch.dim
    l1 = float(sum(abs(v) for v in m))
    rows = []
    sup = 0.0
    for lam in lambdas:
        val = patch_integral_closed_form(patch, float(lam), m).value
        ratio = abs(val) * float(lam) ** (d - 1) / l1 ** ((d - 1) * tau)
        rows.append((float(lam), val, ratio))
        sup = max(sup, ratio)
    return DecayEnvelope(m=m, tau=float(tau), rows=tuple(rows), sup_ratio=float(sup))


def write_envelope_csv(path, envelope: DecayEnvelope) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["lambda", "re", "im", "abs", "ratio"])
        for lam, val, ratio in envelope.rows:
            w.writerow([repr(lam), repr(val.real), repr(val.imag),
                        repr(abs(val)), repr(ratio)])


# ---------------------------------------------------------------------------
# face and boundary averages (equidistribution)
# ---------------------------------------------------------------------------

def _segment_integral(p: np.ndarray, q: np.ndarray, lam: float, m: np.ndarray) -> complex:
    """int over the segment [p, q] of exp(2 pi i lam m . y) d sigma."""
    L = float(np.linalg.norm(q - p))
    w = lam * float(m @ (q - p))
    mid = 0.5 * (p + q)
    if abs(w) <= _SMALL_PHASE:
        return L * np.exp(2j * np.pi * lam * float(m @ mid))
    return L * np.exp(2j * np.pi * lam * float(m @ mid)) * np.sinc(w)


def _polygon_integral(verts: np.ndarray, nu: np.ndarray, lam: float, m: np.ndarray) -> complex:
    """int over a planar convex polygon with unit normal nu of exp(2 pi i lam m . y) d sigma.

    With k = 2 pi lam m and k_t its in-plane part, exp(i k . y) is the in-plane
    divergence of k_t exp(i k . y) / (i |k_t|^2), so the integral is the sum
    over edges e of (k_t . (e x nu)) exp(i k . mid_e) sinc(k . e / 2) / (i |k_t|^2),
    oriented by the sign of the polygon's signed area along nu. The edge terms
    cancel to about 1e-16 / (|k_t| w), w the polygon's width along k_t, so
    where |k_t| w, half the sum of |k_t . e|, is at most _TAYLOR_PHASE (k_t = 0
    included) a Taylor series in k_t is used instead.
    """
    nxt = np.roll(verts, -1, axis=0)
    area = 0.5 * float(np.sum(np.cross(verts, nxt), axis=0) @ nu)
    k = 2.0 * np.pi * lam * m
    kt = k - (k @ nu) * nu
    q2 = float(kt @ kt)
    e = nxt - verts
    if float(np.sum(np.abs(e @ kt))) <= 2.0 * _TAYLOR_PHASE:
        return complex(np.sign(area) * np.exp(1j * float(k @ verts[0]))
                       * _polygon_integral_taylor(verts - verts[0], nu, kt))
    flux = np.cross(e, nu) @ kt
    edges = flux * np.exp(0.5j * ((verts + nxt) @ k)) * np.sinc(e @ k / (2.0 * np.pi))
    return complex(np.sign(area) * np.sum(edges) / (1j * q2))


def _polygon_integral_taylor(rel: np.ndarray, nu: np.ndarray, kt: np.ndarray) -> complex:
    """int of exp(i kt . t) over the polygon with vertices rel (rel[0] = 0), signed along nu.

    Over the fan triangle (0, p, q) of signed area s, with a = kt . p and
    b = kt . q, the integral is 2 s sum_n i^n h_n(a, b) / (n + 2)!, where
    h_n(a, b) = sum_{j <= n} a^j b^(n-j); five terms reach roundoff for
    |a|, |b| <= _TAYLOR_PHASE, which the polygon's width along kt ensures.
    """
    p, q = rel[1:-1], rel[2:]
    s = 0.5 * (np.cross(p, q) @ nu)
    a, b = p @ kt, q @ kt
    h = np.ones_like(a)
    series = h / 2.0
    for n in range(1, 5):
        h = a ** n + b * h
        series = series + (1j ** n / math.factorial(n + 2)) * h
    return complex(np.sum(2.0 * s * series))


def face_average(face: Face, g, lam: float) -> complex:
    """Average of g(lam y) over one face.

    d = 2 faces are a single segment and use exact per-frequency integrals;
    d = 3 faces are covered by lattice-partition cells (closed-form patch
    integrals) plus the leftover pieces (exact edge sums).
    """
    if face.dim == 2:
        p, q = face.vertices
        total = 0.0 + 0.0j
        for m, cm in sorted(g.coefficients.items()):
            total += cm * _segment_integral(p, q, lam, np.asarray(m, dtype=float))
        return complex(total / face.measure)
    if face.dim != 3:
        raise UnsupportedDimension("face averages implemented for d = 2, 3")

    nu = face.normal
    axis = int(np.argmax(np.abs(nu)))
    part = lattice_partition(face, axis, max(np.ptp(face.vertices, axis=0)) / 8.0)
    others = [j for j in range(3) if j != axis]
    total = 0.0 + 0.0j
    for m, cm in sorted(g.coefficients.items()):
        mv = np.asarray(m, dtype=float)
        contrib = 0.0 + 0.0j
        for cell in part.cells:
            u = cell.vertices[:, others]
            bounds = np.stack([u.min(axis=0), u.max(axis=0)], axis=1)
            patch = FacePatch(normal=nu, offset=face.offset, axis=axis, bounds=bounds)
            contrib += patch_integral_closed_form(patch, lam, m).value
        for piece in part.leftover.pieces:
            contrib += _polygon_integral(piece, nu, lam, mv)
        total += cm * contrib
    return complex(total / face.measure)


def boundary_average(poly: ConvexPolytope, g, lam: float) -> complex:
    """Measure-weighted average of g(lam y) over the whole boundary."""
    fs = faces(poly)
    num = 0.0 + 0.0j
    den = 0.0
    for f in fs:
        mu = f.measure
        num += mu * face_average(f, g, lam)
        den += mu
    return complex(num / den)
