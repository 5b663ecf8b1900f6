import numpy as np
import pytest

from polyhom import fem as F
from polyhom import geometry as G
from polyhom import harness as H
from polyhom import periodic as P
from polyhom.errors import DegenerateFit, NonDiophantineWarning, ValidationError

I2 = F.CoefficientField.identity()


def _mix_g():
    return P.from_coefficients(2, {(1, 0): 0.5, (-1, 0): 0.5,
                                   (1, 1): -0.5j, (-1, -1): 0.5j})


# -- theoretical exponents -------------------------------------------------------

def test_theoretical_rates_square_case():
    t = H.theoretical_rates(2, 1.0, 2.0, 1e-9)
    assert t["gamma"] == pytest.approx(0.5)
    assert t["lp_upper"] == pytest.approx(0.5, abs=1e-8)
    assert t["pointwise_exp"] == pytest.approx(0.5, abs=1e-8)


def test_theoretical_rates_hexagon_case():
    t = H.theoretical_rates(2, 0.5, 2.0, 0.01)
    assert t["gamma"] == pytest.approx(1.0 / 3.0)


def test_theoretical_rates_3d_case():
    t = H.theoretical_rates(3, 1.0, 10.0, 0.01)
    assert t["gamma"] == pytest.approx(2.0 / 3.0)
    assert t["lp_upper"] == pytest.approx(0.1 - 0.01)
    assert t["lp_lower"] == pytest.approx(0.1)


def test_theoretical_rates_monotone_and_continuous():
    # pointwise exponent increases in beta and moves continuously in delta
    alphas = np.linspace(0.2, 0.99, 12)
    exps = [H.theoretical_rates(2, a, 2.0, 1e-6)["pointwise_exp"] for a in alphas]
    assert all(b > a for a, b in zip(exps, exps[1:]))
    deltas = np.linspace(1e-6, 0.1, 30)
    vals = [H.theoretical_rates(2, 0.75, 2.0, d)["pointwise_exp"] for d in deltas]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() < 0.05


def test_theoretical_rates_validation():
    with pytest.raises(ValidationError):
        H.theoretical_rates(2, 0.5, 2.0, 0.9)  # delta >= alpha_star
    with pytest.raises(ValidationError):
        H.theoretical_rates(1, 1.0, 2.0, 0.01)


# -- fitting ---------------------------------------------------------------------

def test_fit_rate_exact_line():
    eps = [0.5, 0.25, 0.125, 0.0625]
    fit = H.fit_rate([(e, e) for e in eps])
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_scaled_half_power():
    eps = [0.4, 0.2, 0.1, 0.05]
    fit = H.fit_rate([(e, 3.0 * e ** 0.5) for e in eps])
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_with_noise(rng):
    # 5% multiplicative noise at exponent 0.5 across 6 points
    eps = np.array([1 / 8, 1 / 12, 1 / 16, 1 / 24, 1 / 32, 1 / 48])
    fits = []
    for _ in range(50):
        errs = eps ** 0.5 * np.exp(rng.normal(0, 0.05, size=len(eps)))
        fits.append(H.fit_rate(list(zip(eps, errs))).exponent)
    assert np.mean(np.abs(np.array(fits) - 0.5)) < 0.05


def test_fit_rate_degenerate():
    with pytest.raises(DegenerateFit):
        H.fit_rate([(0.5, 1.0), (0.25, 0.5)])
    with pytest.raises(DegenerateFit):
        H.fit_rate([(0.5, 1.0), (0.25, 0.0), (0.125, 0.2)])


def test_fit_rate_guard_drops_outlier():
    eps = [0.5, 0.25, 0.125, 0.0625, 0.03125]
    pairs = [(e, e ** 0.5) for e in eps]
    pairs[0] = (0.5, 40.0 * 0.5 ** 0.5)  # corrupted preasymptotic point
    fit = H.fit_rate_guarded(pairs)
    assert fit.dropped_largest is True
    assert fit.exponent == pytest.approx(0.5, abs=1e-9)
    clean = H.fit_rate_guarded([(e, e ** 0.5) for e in eps])
    assert clean.dropped_largest is False


# -- config validation --------------------------------------------------------------

def test_sweep_config_requires_decreasing_eps():
    with pytest.raises(ValidationError):
        H.SweepConfig(epsilons=(0.25, 0.25))
    with pytest.raises(ValidationError):
        H.SweepConfig(epsilons=(0.125, 0.25))
    with pytest.raises(ValidationError):
        H.SweepConfig(epsilons=(0.25, -0.1))


def test_probe_points_land_at_requested_distances():
    gs = G.golden_square()
    pts = H.probe_points_at_distances(gs, [0.15, 0.3])
    for pt, want in zip(pts, (0.15, 0.3)):
        assert G.distance_to_boundary(gs, np.asarray(pt)) == pytest.approx(want, abs=1e-9)


def test_run_sweep_rejects_shallow_probe():
    gs = G.golden_square()
    pts = H.probe_points_at_distances(gs, [0.02])
    cfg = H.SweepConfig(epsilons=(0.5, 0.25), probe_points=pts, eta=4.0)
    with pytest.raises(ValidationError):
        H.run_sweep(gs, I2, _mix_g(), cfg)


# -- sweeps ---------------------------------------------------------------------

def test_sweep_constant_data_zero_errors():
    g = P.from_coefficients(2, {0: 2.0})
    cfg = H.SweepConfig(epsilons=(0.5, 0.25, 0.125), p_values=(1.0, 2.0), eta=4.0)
    res = H.run_sweep(G.golden_square(), I2, g, cfg)
    for rec in res.records:
        assert not rec.failed
        for err in rec.lp_errors.values():
            assert err < 1e-8


def test_sweep_golden_errors_decrease():
    cfg = H.SweepConfig(epsilons=(1 / 4, 1 / 6, 1 / 8, 1 / 12), p_values=(2.0,), eta=5.0)
    res = H.run_sweep(G.golden_square(), I2, _mix_g(), cfg)
    assert res.warnings == []
    errs = [r.lp_errors[2.0] for r in res.records]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_sweep_axis_square_warns_and_stalls():
    cfg = H.SweepConfig(epsilons=(1 / 4, 1 / 6, 1 / 8, 1 / 12), p_values=(2.0,), eta=5.0)
    with pytest.warns(NonDiophantineWarning):
        res = H.run_sweep(G.unit_square(), I2, _mix_g(), cfg)
    assert len(res.warnings) == 4
    fit = H.fit_rate_guarded(res.lp_pairs(2.0))
    assert fit.exponent <= 0.1


def test_diophantine_warnings_one_per_axis_face():
    with pytest.warns(NonDiophantineWarning) as caught:
        msgs = H.diophantine_warnings(G.unit_square(), 1.0, 200)
    assert len(msgs) == 4
    assert [str(w.message) for w in caught] == msgs
    assert H.diophantine_warnings(G.golden_square(), 1.0, 200) == []


def test_sweep_failure_is_recorded_not_raised():
    cfg = H.SweepConfig(epsilons=(0.5, 0.25), eta=4.0,
                        solver=F.SolverConfig(linear_tol=1e-12, max_iter=2))
    res = H.run_sweep(G.golden_square(), I2, _mix_g(), cfg)
    assert all(r.failed for r in res.records)
    assert all("NoConvergence" in r.error for r in res.records)


def test_sweep_result_roundtrip():
    cfg = H.SweepConfig(epsilons=(0.5, 0.25, 0.125), p_values=(2.0,), eta=4.0)
    res = H.run_sweep(G.golden_square(), I2, _mix_g(), cfg)
    back = H.SweepResult.from_dict(res.to_dict())
    assert back.lp_pairs(2.0) == res.lp_pairs(2.0)
    assert back.config.epsilons == res.config.epsilons


# -- envelopes and optimality ----------------------------------------------------------

def _small_result():
    gs = G.golden_square()
    pts = H.probe_points_at_distances(gs, [0.3])
    cfg = H.SweepConfig(epsilons=(1 / 4, 1 / 6, 1 / 8, 1 / 12), p_values=(2.0, 5.0),
                        probe_points=pts, eta=5.0)
    return H.run_sweep(gs, I2, _mix_g(), cfg)


def test_pointwise_envelope_constant_data_is_zero():
    g = P.from_coefficients(2, {0: 1.0})
    gs = G.golden_square()
    pts = H.probe_points_at_distances(gs, [0.3])
    cfg = H.SweepConfig(epsilons=(0.5, 0.25, 0.125), probe_points=pts, eta=4.0)
    res = H.run_sweep(gs, I2, g, cfg)
    env = H.pointwise_envelope(res, 0, beta=0.99, delta=0.01)
    assert env["constant"] < 1e-6


def test_envelope_nondivergence_flag(sweep_result=None):
    res = _small_result()
    env = H.pointwise_envelope(res, 0, beta=0.99, delta=0.01)
    assert env["nondiverging"] in (True, False)
    assert len(env["per_eps"]) == 4


def test_rate_report_sandwich_flags():
    # gamma = 1/2 at alpha* = 1: the 1/p floor binds for p = 5 (1/5 < 1/2) only
    flags = H.build_rate_report(_small_result(), alpha_star=1.0).pass_flags
    assert isinstance(flags["sandwich_p=5"], bool)
    assert "sandwich_p=2" not in flags


# -- report files ------------------------------------------------------------------

def test_report_row_counts(tmp_path):
    res = _small_result()
    rep = H.build_rate_report(res, alpha_star=1.0)
    files = H.report(res, rep, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    # 4 eps x (2 p-values + 1 probe) data rows + header
    assert len(lines) == 1 + 4 * 3
    assert lines[0] == "epsilon,p_or_probe_id,value,h_used,solver_iters,residual"
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "loglog.dat").exists()
    assert len(files) == 3


def test_report_empty_sweep(tmp_path):
    cfg = H.SweepConfig(epsilons=(0.5, 0.25, 0.125))
    res = H.SweepResult(config=cfg, gbar=0.0, probe_distances=(), records=[], warnings=[])
    H.report(res, None, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1


def test_report_determinism(tmp_path):
    res = _small_result()
    rep = H.build_rate_report(res, alpha_star=1.0)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    H.report(res, rep, d1)
    H.report(res, rep, d2)
    for name in ("sweep.csv", "summary.json", "loglog.dat"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
