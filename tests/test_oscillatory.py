import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhom import geometry as G
from polyhom import oscillatory as O
from polyhom import periodic as P
from polyhom.errors import BudgetExceeded, NotApplicable, ValidationError

from conftest import random_convex_polytope_3d

PHI = G.GOLDEN_RATIO
SQRT2 = np.sqrt(2.0)


def _diag_patch(axis=1):
    return O.FacePatch(normal=np.array([1.0, 1.0]) / SQRT2, offset=0.0, axis=axis,
                       bounds=np.array([[0.0, 1.0]]))


def _golden_patch():
    nu = np.array([1.0, PHI]) / np.sqrt(1 + PHI**2)
    return O.FacePatch(normal=nu, offset=0.0, axis=0, bounds=np.array([[0.0, 1.0]]))


def _random_patch(rng, d):
    while True:
        nu = rng.standard_normal(d)
        nu /= np.linalg.norm(nu)
        k = int(np.argmax(np.abs(nu)))
        if abs(nu[k]) >= 0.4:
            break
    a = rng.uniform(-1.0, 0.0, size=d - 1)
    b = a + rng.uniform(0.2, 1.0, size=d - 1)
    return O.FacePatch(normal=nu, offset=float(rng.uniform(-0.5, 0.5)), axis=k,
                       bounds=np.stack([a, b], axis=1))


# -- measures -------------------------------------------------------------------

def test_patch_measure_axis_aligned():
    p = O.FacePatch(normal=np.array([0.0, 1.0]), offset=0.0, axis=1,
                    bounds=np.array([[0.0, 1.0]]))
    assert O.patch_measure(p) == pytest.approx(1.0)


def test_patch_measure_diagonal():
    assert O.patch_measure(_diag_patch()) == pytest.approx(SQRT2)


def test_patch_measure_monte_carlo(rng):
    # oracle: rejection-free MC estimate of the surface measure by sampling
    # the box and weighting with the surface Jacobian
    patch = _random_patch(rng, 3)
    widths = patch.bounds[:, 1] - patch.bounds[:, 0]
    n = 1_000_000
    u = patch.bounds[:, 0] + rng.uniform(size=(n, 2)) * widths
    y = patch.lift(u)
    seg = np.linalg.norm(y[1:] - y[:-1], axis=1)  # noqa: F841 (sanity anchor)
    mc = np.prod(widths) / abs(patch.normal[patch.axis])
    assert O.patch_measure(patch) == pytest.approx(mc, rel=1e-12)
    # independent estimate: area of the lifted parallelogram spanned by the box
    e1 = patch.lift(patch.bounds[:, 0] + np.array([widths[0], 0.0]))[0] - patch.lift(patch.bounds[:, 0])[0]
    e2 = patch.lift(patch.bounds[:, 0] + np.array([0.0, widths[1]]))[0] - patch.lift(patch.bounds[:, 0])[0]
    assert O.patch_measure(patch) == pytest.approx(np.linalg.norm(np.cross(e1, e2)), rel=1e-10)


# -- closed form ------------------------------------------------------------------

def test_zero_frequency_gives_measure():
    patch = _diag_patch()
    for lam in (1.0, 17.0, 1234.5):
        v = O.patch_integral_closed_form(patch, lam, (0, 0))
        assert v.value == pytest.approx(O.patch_measure(patch), abs=1e-12)
        assert v.method == "closed_form"


def test_hand_evaluated_diagonal_case():
    # theta_1 = 1 - (-1) (1/sqrt2)/(1/sqrt2) = 2, so
    # I = sqrt(2) (exp(4 pi i lam) - 1) / (4 pi i lam)
    patch = _diag_patch()
    for lam in (1.0, 2.5, 7.3, 40.0):
        got = O.patch_integral_closed_form(patch, lam, (1, -1)).value
        exact = SQRT2 * (np.exp(4j * np.pi * lam) - 1.0) / (4j * np.pi * lam)
        assert got == pytest.approx(exact, abs=1e-13)


def test_closed_form_matches_quadrature_random(rng):
    for trial in range(60):
        d = 2 if trial % 2 == 0 else 3
        patch = _random_patch(rng, d)
        m = rng.integers(-2, 3, size=d)
        lam = float(10 ** rng.uniform(0.0, 2.0))
        cf = O.patch_integral_closed_form(patch, lam, m).value
        q = O.patch_integral_quadrature(patch, lam, m, tol=1e-12).value
        mea = O.patch_measure(patch)
        assert abs(cf - q) <= 1e-9 * max(abs(cf), abs(q), 1e-3 * mea)


def test_conjugation_symmetry(rng):
    for _ in range(20):
        patch = _random_patch(rng, 2)
        m = rng.integers(-3, 4, size=2)
        lam = float(10 ** rng.uniform(0, 3))
        a = O.patch_integral_closed_form(patch, lam, m).value
        b = O.patch_integral_closed_form(patch, lam, -m).value
        assert a == pytest.approx(np.conj(b), abs=0.0)


def test_additivity_under_box_split(rng):
    for _ in range(20):
        patch = _random_patch(rng, 2)
        (a, b), = patch.bounds
        cut = float(rng.uniform(a + 0.01, b - 0.01))
        left = O.FacePatch(patch.normal, patch.offset, patch.axis, np.array([[a, cut]]))
        right = O.FacePatch(patch.normal, patch.offset, patch.axis, np.array([[cut, b]]))
        m = rng.integers(-3, 4, size=2)
        lam = float(10 ** rng.uniform(0, 2))
        whole = O.patch_integral_closed_form(patch, lam, m).value
        split = (O.patch_integral_closed_form(left, lam, m).value
                 + O.patch_integral_closed_form(right, lam, m).value)
        assert abs(whole - split) < 1e-12 * max(1.0, abs(whole))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.floats(1.0, 1e4),
       st.integers(-5, 5), st.integers(-5, 5))
def test_modulus_never_exceeds_measure(seed, lam, m1, m2):
    patch = _random_patch(np.random.default_rng(seed), 2)
    v = O.patch_integral_closed_form(patch, lam, (m1, m2))
    assert abs(v.value) <= O.patch_measure(patch) * (1 + 1e-12) + 1e-12


# -- quadrature ------------------------------------------------------------------

def test_quadrature_zero_frequency():
    patch = _diag_patch()
    v = O.patch_integral_quadrature(patch, 3.0, (0, 0), tol=1e-12)
    assert v.value == pytest.approx(O.patch_measure(patch), abs=1e-11)
    assert v.method == "quadrature"


def test_quadrature_high_frequency_within_budget():
    patch = _random_patch(np.random.default_rng(5), 2)
    v = O.patch_integral_quadrature(patch, 1e4, (2, -1), tol=1e-11)
    cf = O.patch_integral_closed_form(patch, 1e4, (2, -1)).value
    assert abs(v.value - cf) < 1e-9 * max(abs(cf), 1e-3 * O.patch_measure(patch))


def test_quadrature_budget_cap():
    patch = _golden_patch()
    with pytest.raises(BudgetExceeded):
        O.patch_integral_quadrature(patch, 1e4, (1, -1), tol=1e-12, max_panels=100)


def test_quadrature_rejects_bad_tol():
    with pytest.raises(ValidationError):
        O.patch_integral_quadrature(_diag_patch(), 1.0, (1, 0), tol=0.0)


# -- decay envelopes ---------------------------------------------------------------

LAMBDA_GRID = (1.0, 10.0, 100.0, 1000.0, 10000.0)


def test_decay_envelope_golden_tail_bounded():
    env = O.decay_envelope(_golden_patch(), (1, -1), LAMBDA_GRID, tau=1.0)
    tail = [r[2] for r in env.rows if r[0] >= 10.0]
    assert max(tail) / min(tail) < 10.0
    assert env.sup_ratio < np.inf


def test_decay_envelope_rational_negative_control():
    # theta_1 = 0 for m = (1, 1) on the diagonal normal: no decay at all
    patch = O.FacePatch(normal=np.array([1.0, 1.0]) / SQRT2, offset=0.0, axis=0,
                        bounds=np.array([[0.0, 1.0]]))
    env = O.decay_envelope(patch, (1, 1), LAMBDA_GRID, tau=1.0)
    ratios = [r[2] for r in env.rows]
    assert ratios[-1] / ratios[0] >= 1e2
    # but m = (1, -1) still has a nonzero effective phase and decays
    # (at integer lambdas the factor even vanishes identically)
    env2 = O.decay_envelope(patch, (1, -1), LAMBDA_GRID, tau=1.0)
    assert env2.sup_ratio < 1.0


def test_decay_envelope_zero_axis_component():
    with pytest.raises(NotApplicable):
        O.decay_envelope(_golden_patch(), (0, 1), LAMBDA_GRID, tau=1.0)


def test_envelope_csv_round(tmp_path):
    env = O.decay_envelope(_golden_patch(), (1, -1), (1.0, 10.0), tau=1.0)
    path = tmp_path / "env.csv"
    O.write_envelope_csv(path, env)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,re,im,abs,ratio"
    assert len(lines) == 3
    O.write_envelope_csv(tmp_path / "env2.csv", env)
    assert (tmp_path / "env2.csv").read_bytes() == path.read_bytes()


# -- face and boundary averages ------------------------------------------------------

def _cos_g():
    return P.from_coefficients(2, {(1, 0): 0.5, (-1, 0): 0.5})


def _mix_g():
    return P.from_coefficients(2, {(1, 0): 0.5, (-1, 0): 0.5,
                                   (1, 1): -0.5j, (-1, -1): 0.5j})


def test_face_average_constant():
    g = P.from_coefficients(2, {0: 2.5})
    f = G.faces(G.golden_square())[0]
    for lam in (1.0, 10.0, 321.0):
        assert O.face_average(f, g, lam) == pytest.approx(2.5, abs=1e-12)


def test_face_average_golden_decays_like_one_over_lambda():
    f = G.faces(G.golden_square())[0]
    vals = {lam: abs(O.face_average(f, _cos_g(), lam)) for lam in (10.0, 100.0, 1000.0)}
    # normalized constants stay bounded (closed-form decay at work)
    assert all(lam * v < 1.0 for lam, v in vals.items())
    assert vals[1000.0] < vals[10.0]


def test_face_average_axis_square_negative_control():
    left = [f for f in G.faces(G.unit_square()) if f.index == 0][0]
    for lam in (10.0, 100.0, 1000.0):
        assert O.face_average(left, _cos_g(), lam) == pytest.approx(1.0, abs=1e-12)


def test_boundary_average_constant():
    g = P.from_coefficients(2, {0: -1.5})
    assert O.boundary_average(G.golden_square(), g, 7.0) == pytest.approx(-1.5, abs=1e-12)


def test_boundary_average_golden_converges_to_mean():
    ba = O.boundary_average(G.golden_square(), _mix_g(), 1000.0)
    assert abs(ba) < 5e-3


def test_boundary_average_axis_square_stalls():
    for lam in (10.0, 100.0, 1000.0):
        assert abs(O.boundary_average(G.unit_square(), _mix_g(), lam)) >= 0.2


def test_face_average_3d_matches_grid_oracle(rng):
    # oracle: midpoint rule on a dense parameter grid of the (square) face
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    hs = [G.HalfSpace(rot @ h.normal, h.offset) for h in G.unit_cube().halfspaces]
    poly = G.build_polytope(hs)
    f = G.faces(poly)[0]
    g = P.from_coefficients(3, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5,
                               (0, 1, 1): 0.25, (0, -1, -1): 0.25})
    lam = 5.0
    got = O.face_average(f, g, lam)
    v = f.vertices
    e1, e2 = v[1] - v[0], v[3] - v[0]
    n = 4000
    ss = (np.arange(n) + 0.5) / n
    S, T = np.meshgrid(ss, ss, indexing="ij")
    pts = v[0] + S.reshape(-1, 1) * e1 + T.reshape(-1, 1) * e2
    oracle = P.evaluate(g, lam * pts).mean()
    assert abs(got - oracle) < 2e-5


def _face_with_normal(poly, nu):
    return [f for f in G.faces(poly) if np.allclose(f.normal, nu, atol=1e-12)][0]


def _default_partition(f):
    axis = int(np.argmax(np.abs(f.normal)))
    return G.lattice_partition(f, axis, max(np.ptp(f.vertices, axis=0)) / 8.0)


def test_face_average_3d_leftover_matches_box_closed_form():
    # the tilted face projects onto an axis box along z, so its integral is one
    # closed-form patch: a route independent of the partition and the edge sums
    nu = np.array([0.3, -0.2, 1.0])
    nu /= np.linalg.norm(nu)
    e = np.eye(3)
    poly = G.build_polytope([G.HalfSpace(e[0], 0.0), G.HalfSpace(-e[0], -0.93),
                             G.HalfSpace(e[1], 0.1), G.HalfSpace(-e[1], -0.77),
                             G.HalfSpace(-e[2], -2.0), G.HalfSpace(nu, -0.5)])
    f = _face_with_normal(poly, nu)
    assert _default_partition(f).leftover.pieces
    box = O.FacePatch(normal=nu, offset=-0.5, axis=2, bounds=np.array([[0.0, 0.93], [0.1, 0.77]]))
    for m in [(1, 0, 0), (0, 1, 1), (2, -1, 3), (0, 0, 1), (1, 1, 1)]:
        g = P.from_coefficients(3, {m: 1.0})
        for lam in (1.0, 7.3, 100.0, 1000.0, 1e4):
            exact = O.patch_integral_closed_form(box, lam, m).value
            assert abs(O.face_average(f, g, lam) * f.measure - exact) < 1e-12


def test_partition_pieces_sum_to_whole_face_edge_sum(rng):
    for _ in range(10):
        for f in G.faces(random_convex_polytope_3d(rng)):
            part = _default_partition(f)
            others = [j for j in range(3) if j != part.axis]
            m = rng.integers(-2, 3, size=3)
            for lam in (1.0, 7.3, 50.0):
                pieces = sum(O._polygon_integral(q, f.normal, lam, m.astype(float))
                             for q in part.leftover.pieces)
                for cell in part.cells:
                    u = cell.vertices[:, others]
                    patch = O.FacePatch(f.normal, f.offset, part.axis,
                                        np.stack([u.min(axis=0), u.max(axis=0)], axis=1))
                    pieces += O.patch_integral_closed_form(patch, lam, m).value
                whole = O._polygon_integral(f.vertices, f.normal, lam, m.astype(float))
                assert abs(pieces - whole) < 1e-12


def test_face_average_3d_in_plane_frequency_zero():
    # k_t = 0 exactly (cube face x = 1, m = (1, 0, 0)) and up to roundoff
    # (face x + y = 0.0125 with leftover pieces, m = (1, 1, 0)): the integrand
    # is the constant phase, exp(2 pi i 1000) = 1 and exp(2 pi i 12.5) = -1
    lam = 1000.0
    e = np.eye(3)
    diag = np.array([1.0, 1.0, 0.0]) / SQRT2
    cut = G.build_polytope([G.HalfSpace(e[0], -0.4), G.HalfSpace(-e[0], -0.5),
                            G.HalfSpace(e[1], -0.45), G.HalfSpace(-e[1], -0.5),
                            G.HalfSpace(e[2], 0.0), G.HalfSpace(-e[2], -1.0),
                            G.HalfSpace(diag, 0.0125 / SQRT2)])
    assert _default_partition(_face_with_normal(cut, diag)).leftover.pieces
    for poly, nu, m, phase in [(G.unit_cube(), -e[0], (1, 0, 0), 1.0),
                               (cut, diag, (1, 1, 0), -1.0)]:
        f = _face_with_normal(poly, nu)
        got = O.face_average(f, P.from_coefficients(3, {m: 1.0}), lam)
        assert abs(got - phase) < 1e-12
        whole = O._polygon_integral(f.vertices, f.normal, lam, np.asarray(m, dtype=float))
        assert abs(whole / f.measure - phase) < 1e-12


@pytest.mark.parametrize("delta", [1e-7, 1e-9, 1e-11])
def test_polygon_integral_small_in_plane_frequency(delta):
    # a 0.7 x 0.6 rectangle in the plane with normal ~ (delta, 0, 1) and
    # m = (0, 0, 1): |k_t| ~ 2 pi delta, where the edge sum cancels
    nu = np.array([delta, 0.0, 1.0]) / np.hypot(delta, 1.0)
    patch = O.FacePatch(normal=nu, offset=0.3, axis=2, bounds=[[0.1, 0.8], [0.2, 0.8]])
    verts = patch.lift(np.array([[0.1, 0.2], [0.8, 0.2], [0.8, 0.8], [0.1, 0.8]]))
    m = np.array([0.0, 0.0, 1.0])
    want = O.patch_integral_closed_form(patch, 1.0, m).value
    for v in (verts, verts[::-1]):
        assert abs(O._polygon_integral(v, nu, 1.0, m) - want) <= 1e-12 * abs(want)
