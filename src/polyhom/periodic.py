"""Periodic boundary data on the unit torus as finite trigonometric polynomials.

A PeriodicFunction stores a finite map from integer frequency vectors m to
complex coefficients c_m and evaluates g(x) = sum c_m exp(2 pi i m . x).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError


@dataclass(frozen=True, eq=False)
class PeriodicFunction:
    """Finite Fourier sum on the d-torus; immutable after construction."""

    dim: int
    coefficients: dict  # tuple[int, ...] -> complex
    real_valued: bool

    def __call__(self, x):
        return evaluate(self, x)


def from_coefficients(dim: int, entries) -> PeriodicFunction:
    """Build a PeriodicFunction from (m, c_m) pairs or a {m: c_m} mapping.

    The real-valued flag is set iff the stored support is Hermitian,
    c_{-m} = conj(c_m) for every m (zero coefficients count as absent).
    """
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    items = entries.items() if hasattr(entries, "items") else entries
    coeffs: dict[tuple[int, ...], complex] = {}
    for m, cm in items:
        if np.isscalar(m):
            # scalar 0 is shorthand for the zero frequency in any dimension
            m = (int(m),) * dim if int(m) == 0 else (int(m),)
        m = tuple(int(v) for v in np.atleast_1d(m))
        if len(m) != dim:
            raise DimensionMismatch(f"frequency {m} has {len(m)} components, expected {dim}")
        cm = complex(cm)
        if not np.isfinite(cm):  # JSON accepts NaN and Infinity
            raise ValidationError(f"coefficient of frequency {m} must be finite, got {cm}")
        if cm != 0:
            coeffs[m] = coeffs.get(m, 0.0) + cm
    coeffs = {m: c for m, c in coeffs.items() if c != 0}
    hermitian = all(
        tuple(-v for v in m) in coeffs and np.isclose(coeffs[tuple(-v for v in m)],
                                                      np.conj(c), rtol=0, atol=1e-15)
        for m, c in coeffs.items()
    )
    return PeriodicFunction(dim=dim, coefficients=coeffs, real_valued=bool(hermitian))


def mean(g: PeriodicFunction) -> complex:
    """Torus mean, i.e. the zero-frequency coefficient."""
    return complex(g.coefficients.get((0,) * g.dim, 0.0))


def evaluate(g: PeriodicFunction, x):
    """sum_m c_m exp(2 pi i m . x); vectorized over leading axes of x."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != g.dim:
        raise DimensionMismatch(f"points have dimension {pts.shape[-1]}, expected {g.dim}")
    if not g.coefficients:
        out = np.zeros(len(pts), dtype=complex)
    else:
        M = np.array(list(g.coefficients), dtype=float)
        cs = np.array(list(g.coefficients.values()), dtype=complex)
        out = np.exp(2j * np.pi * (pts @ M.T)) @ cs
    return out[0] if single else out.reshape(x.shape[:-1])


def load_periodic(source) -> PeriodicFunction:
    """Read {"dim": d, "coeffs": [{"m": [..], "re": a, "im": b}, ...]}."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as f:
            doc = json.load(f)
    d = int(doc["dim"])
    entries = [(tuple(int(v) for v in e["m"]), complex(float(e.get("re", 0.0)), float(e.get("im", 0.0))))
               for e in doc["coeffs"]]
    return from_coefficients(d, entries)


def periodic_to_dict(g: PeriodicFunction) -> dict:
    coeffs = [{"m": list(m), "re": c.real, "im": c.imag}
              for m, c in sorted(g.coefficients.items())]
    return {"dim": g.dim, "coeffs": coeffs}
