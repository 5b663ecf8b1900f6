import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhom import periodic as P
from polyhom.errors import DimensionMismatch, ValidationError


def _cosine():
    return P.from_coefficients(2, {0: 3.0, (1, 0): 0.5, (-1, 0): 0.5})


def _diag_sine():
    return P.from_coefficients(2, {(1, 1): -0.5j, (-1, -1): 0.5j})


def test_from_coefficients_real_flag():
    assert _cosine().real_valued is True
    assert P.from_coefficients(2, {(1, 0): 1j}).real_valued is False
    assert _diag_sine().real_valued is True


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        P.from_coefficients(2, {(1, 0, 0): 1.0})


def test_mean_values():
    assert P.mean(_cosine()) == pytest.approx(3.0)
    assert P.mean(_diag_sine()) == pytest.approx(0.0)


def test_mean_matches_quadrature_oracle(rng):
    # oracle: the periodic trapezoid rule on a 64^2 tensor grid is exact for
    # trigonometric polynomials with max frequency below 64
    entries = {}
    for _ in range(6):
        m = tuple(int(v) for v in rng.integers(-5, 6, size=2))
        entries[m] = complex(rng.normal(), rng.normal())
    g = P.from_coefficients(2, entries)
    xs = np.arange(64) / 64
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    grid_mean = P.evaluate(g, np.stack([X, Y], axis=-1)).mean()
    assert abs(P.mean(g) - grid_mean) < 1e-10


def test_evaluate_known_values():
    g = P.from_coefficients(2, {(1, 0): 0.5, (-1, 0): 0.5})  # cos(2 pi y1)
    assert abs(P.evaluate(g, [0.25, 0.77])) < 1e-12
    assert P.evaluate(_cosine(), [0.0, 0.0]) == pytest.approx(4.0)


def test_periodicity(rng):
    g = P.from_coefficients(2, {(2, -1): 1.0 + 0.5j, (0, 3): -2.0})
    x = rng.uniform(-2, 2, size=(100, 2))
    h = rng.integers(-3, 4, size=(100, 2))
    assert np.max(np.abs(P.evaluate(g, x + h) - P.evaluate(g, x))) < 1e-12


def test_parseval_on_tensor_grid(rng):
    entries = {}
    for _ in range(5):
        m = tuple(int(v) for v in rng.integers(-31, 32, size=2))
        entries[m] = complex(rng.normal(), rng.normal())
    g = P.from_coefficients(2, entries)
    xs = np.arange(64) / 64
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = P.evaluate(g, np.stack([X, Y], axis=-1))
    power = float(np.mean(np.abs(vals) ** 2))
    coeff_power = sum(abs(c) ** 2 for c in g.coefficients.values())
    assert abs(power - coeff_power) < 1e-8


def test_json_roundtrip(tmp_path):
    g = P.from_coefficients(2, {(1, 0): 0.5 - 0.25j, (-1, 0): 0.5 + 0.25j, 0: 2.0})
    path = tmp_path / "g.json"
    path.write_text(json.dumps(P.periodic_to_dict(g)))
    back = P.load_periodic(path)
    assert back.coefficients == g.coefficients
    assert back.real_valued == g.real_valued
    # keys that are not read, such as an old "declared_smoothness", are ignored
    extra = P.load_periodic({**P.periodic_to_dict(g), "declared_smoothness": 1.0})
    assert extra.coefficients == g.coefficients


@pytest.mark.parametrize("re, im", [(float("nan"), 0.0), (0.5, float("inf"))])
def test_load_periodic_refuses_non_finite_coefficients(tmp_path, re, im):
    # JSON accepts NaN and Infinity, and either would reach the solver
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 2, "coeffs": [{"m": [1, 0], "re": re, "im": im}]}))
    with pytest.raises(ValidationError, match=r"frequency \(1, 0\) must be finite"):
        P.load_periodic(path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                          st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=5))
def test_hermitian_symmetrization_is_real(entries):
    coeffs = {}
    for m1, m2, re, im in entries:
        c = complex(re, im)
        coeffs[(m1, m2)] = coeffs.get((m1, m2), 0) + c
        coeffs[(-m1, -m2)] = coeffs.get((-m1, -m2), 0) + np.conj(c)
    g = P.from_coefficients(2, coeffs)
    assert g.real_valued is True
    pts = np.random.default_rng(1).uniform(0, 1, size=(32, 2))
    assert np.max(np.abs(P.evaluate(g, pts).imag)) < 1e-12
