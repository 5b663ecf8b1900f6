"""Epsilon sweeps, rate fits, and comparison against the theoretical exponents.

The harness meshes each boundary-oscillation scale eps at h = eps / eta,
solves the Dirichlet problem with trace g(x / eps), and records pointwise
errors |u_eps(x) - gbar| at interior probe points together with
||u_eps - gbar||_{L^p}. Fitted log-log slopes are compared against the
pointwise exponent beta (d-1)/(d-1+beta), the L^p ceiling
min{gamma, 1/p} - delta with gamma = (d-1) min{1, a*} / (d-1 + min{1, a*}),
and the 1/p optimality floor.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fem, periodic
from .errors import DegenerateFit, NonDiophantineWarning, ValidationError
from .geometry import (
    ConvexPolytope,
    diophantine_check,
    distance_to_boundary,
    faces,
    polygon_vertices,
)


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    epsilons: tuple
    p_values: tuple = (2.0,)
    probe_points: tuple = ()
    eta: float = 10.0
    delta: float = 0.01
    solver: fem.SolverConfig = field(default_factory=fem.SolverConfig)
    dioph_tau: float = 1.0
    dioph_bound: int = 200

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if any(e <= 0 for e in eps):
            raise ValidationError("epsilons must be positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValidationError("epsilons must be strictly decreasing")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        object.__setattr__(self, "probe_points",
                           tuple(tuple(float(c) for c in pt) for pt in self.probe_points))
        if self.eta <= 0 or self.delta <= 0:
            raise ValidationError("eta and delta must be positive")


@dataclass(eq=False)
class EpsilonRecord:
    epsilon: float
    h_used: float
    iterations: int = 0
    residual: float = 0.0
    lp_errors: dict = field(default_factory=dict)        # p -> error
    pointwise_errors: tuple = ()                         # per probe point
    failed: bool = False
    error: str | None = None


@dataclass(eq=False)
class SweepResult:
    config: SweepConfig
    gbar: float
    probe_distances: tuple
    records: list
    warnings: list

    def lp_pairs(self, p: float) -> list:
        return [(r.epsilon, r.lp_errors[p]) for r in self.records
                if not r.failed and p in r.lp_errors]

    def pointwise_pairs(self, probe_idx: int) -> list:
        return [(r.epsilon, r.pointwise_errors[probe_idx]) for r in self.records
                if not r.failed]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "gbar": self.gbar,
            "config": {
                "epsilons": list(self.config.epsilons),
                "p_values": list(self.config.p_values),
                "probe_points": [list(pt) for pt in self.config.probe_points],
                "eta": self.config.eta,
                "delta": self.config.delta,
                "linear_tol": self.config.solver.linear_tol,
                "max_iter": self.config.solver.max_iter,
                "dioph_tau": self.config.dioph_tau,
                "dioph_bound": self.config.dioph_bound,
            },
            "probe_distances": list(self.probe_distances),
            "warnings": list(self.warnings),
            "records": [
                {
                    "epsilon": r.epsilon, "h_used": r.h_used,
                    "iterations": r.iterations, "residual": r.residual,
                    "lp_errors": {repr(p): e for p, e in r.lp_errors.items()},
                    "pointwise_errors": list(r.pointwise_errors),
                    "failed": r.failed, "error": r.error,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepResult":
        cfgd = doc["config"]
        config = SweepConfig(
            epsilons=tuple(cfgd["epsilons"]), p_values=tuple(cfgd["p_values"]),
            probe_points=tuple(tuple(pt) for pt in cfgd["probe_points"]),
            eta=cfgd["eta"], delta=cfgd["delta"],
            solver=fem.SolverConfig(linear_tol=cfgd["linear_tol"],
                                    max_iter=cfgd["max_iter"]),
            dioph_tau=cfgd["dioph_tau"], dioph_bound=cfgd["dioph_bound"])
        records = [
            EpsilonRecord(epsilon=rd["epsilon"], h_used=rd["h_used"],
                          iterations=rd["iterations"], residual=rd["residual"],
                          lp_errors={float(p): e for p, e in rd["lp_errors"].items()},
                          pointwise_errors=tuple(rd["pointwise_errors"]),
                          failed=rd["failed"], error=rd["error"])
            for rd in doc["records"]
        ]
        return cls(config=config, gbar=doc["gbar"],
                   probe_distances=tuple(doc["probe_distances"]),
                   records=records, warnings=list(doc["warnings"]))


# ---------------------------------------------------------------------------
# theoretical exponents
# ---------------------------------------------------------------------------

# largest |fitted L^p exponent - 1/p| that still counts as meeting the 1/p floor
_SANDWICH_TOL = 0.08


def theoretical_rates(d: int, alpha_star: float, p: float, delta: float) -> dict:
    """Exponents of the pointwise and L^p convergence statements.

    beta is 1 above the corner-regularity threshold and alpha_star - delta
    below it; kappa = (d-1)/(d-1+beta); the pointwise rate is beta * kappa;
    the L^p rate is squeezed between min{gamma, 1/p} - delta (upper) and
    1/p (lower, from the boundary-layer optimality bound).
    """
    if d < 2 or alpha_star <= 0 or p < 1 or delta <= 0:
        raise ValidationError("need d >= 2, alpha_star > 0, p >= 1, delta > 0")
    if alpha_star <= 1 and delta >= alpha_star:
        raise ValidationError("delta must be below alpha_star when alpha_star <= 1")
    beta = 1.0 if alpha_star > 1.0 else alpha_star - delta
    kappa = (d - 1.0) / (d - 1.0 + beta)
    mina = min(1.0, alpha_star)
    gamma = (d - 1.0) * mina / (d - 1.0 + mina)  # the corner cap on the L^p rate
    return {
        "beta": beta,
        "kappa": kappa,
        "pointwise_exp": beta * kappa,
        "gamma": gamma,
        "lp_upper": min(gamma, 1.0 / p) - delta,
        "lp_lower": 1.0 / p,
    }


# ---------------------------------------------------------------------------
# probes and the sweep
# ---------------------------------------------------------------------------

def probe_points_at_distances(polygon: ConvexPolytope, distances, face_index: int = 0):
    """Points on the centroid-to-face-midpoint segment with given d(x).

    Bisects along the segment; the achieved distance is recorded exactly via
    distance_to_boundary at the returned points.
    """
    verts = polygon_vertices(polygon)
    centroid = verts.mean(axis=0)
    face = [f for f in faces(polygon) if f.index == face_index][0]
    mid = face.vertices.mean(axis=0)
    d0 = distance_to_boundary(polygon, centroid)
    out = []
    for target in distances:
        if not 0 < target < d0:
            raise ValidationError(f"target distance {target} is not reachable from the centroid")
        lo, hi = 0.0, 1.0
        for _ in range(80):
            t = 0.5 * (lo + hi)
            x = centroid + t * (mid - centroid)
            if distance_to_boundary(polygon, x) > target:
                lo = t
            else:
                hi = t
        x = centroid + 0.5 * (lo + hi) * (mid - centroid)
        out.append(tuple(float(c) for c in x))
    return tuple(out)


def diophantine_warnings(polytope: ConvexPolytope, tau: float, bound: int) -> list:
    """Warn NonDiophantineWarning for each face normal that fails certification.

    Returns the warning messages in face order; a normal fails when some
    nonzero m with |m|_1 <= bound is orthogonal to it.
    """
    messages = []
    for f in faces(polytope):
        cert = diophantine_check(f.normal, tau, bound)
        if cert.c_lower == 0.0:
            msg = (f"face {f.index} normal is non-Diophantine "
                   f"(annihilated by m = {cert.worst_m})")
            warnings.warn(msg, NonDiophantineWarning, stacklevel=3)
            messages.append(msg)
    return messages


def run_sweep(polygon: ConvexPolytope, A: fem.CoefficientField, g, config: SweepConfig,
              progress=None) -> SweepResult:
    """Mesh, solve, and record errors for every epsilon in the configured order.

    Faces whose normals fail Diophantine certification produce a warning but
    the sweep proceeds (rational controls are a supported experiment). A
    failed epsilon aborts only itself and is recorded as failed.
    """
    if polygon.dim != 2:
        raise ValidationError("sweeps run on 2-D polygons")
    gbar = periodic.mean(g)
    if abs(gbar.imag) > 1e-12:
        raise ValidationError("boundary data must have a real mean for the error pipeline")
    gbar = float(gbar.real)

    collected = diophantine_warnings(polygon, config.dioph_tau, config.dioph_bound)

    max_h = max(config.epsilons) / config.eta
    probe_d = []
    for pt in config.probe_points:
        d = distance_to_boundary(polygon, np.asarray(pt))
        if d < 2.0 * max_h:
            raise ValidationError(
                f"probe point {pt} has d(x) = {d:.4g} below twice the coarsest spacing")
        probe_d.append(d)

    records = []
    for eps in config.epsilons:
        h = eps / config.eta
        rec = EpsilonRecord(epsilon=eps, h_used=h)
        try:
            mesh = fem.triangulate(polygon, h)
            problem = fem.DirichletProblem(polygon=polygon, coefficients=A,
                                           periodic_data=g, epsilon=eps)
            sol = fem.solve_dirichlet(problem, mesh, config.solver)
            rec.iterations = sol.iterations
            rec.residual = sol.residual
            rec.lp_errors = {p: float(fem.lp_error(sol, gbar, p)) for p in config.p_values}
            rec.pointwise_errors = tuple(
                float(abs(fem.evaluate_solution(sol, np.asarray(pt)) - gbar))
                for pt in config.probe_points)
        except Exception as exc:  # noqa: BLE001 - only this epsilon aborts
            rec.failed = True
            rec.error = f"{type(exc).__name__}: {exc}"
        records.append(rec)
        if progress is not None:
            progress(rec)
    return SweepResult(config=config, gbar=gbar, probe_distances=tuple(probe_d),
                       records=records, warnings=collected)


# ---------------------------------------------------------------------------
# fits and checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    exponent: float
    stderr: float
    n_points: int
    dropped_largest: bool = False


def fit_rate(pairs) -> RateFit:
    """Least-squares slope of log err against log eps with its standard error."""
    pairs = [(float(e), float(v)) for e, v in pairs]
    if len(pairs) < 3:
        raise DegenerateFit("need at least three (eps, err) pairs")
    if any(v <= 0 for _, v in pairs):
        raise DegenerateFit("errors must be strictly positive for a log-log fit")
    lx = np.log([e for e, _ in pairs])
    ly = np.log([v for _, v in pairs])
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    if sxx == 0:
        raise DegenerateFit("all epsilons identical")
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    resid = ly - (ly.mean() + slope * (lx - lx.mean()))
    s2 = float(np.sum(resid ** 2) / max(len(pairs) - 2, 1))
    return RateFit(exponent=slope, stderr=float(np.sqrt(s2 / sxx)), n_points=len(pairs))


def fit_rate_guarded(pairs) -> RateFit:
    """fit_rate with a preasymptotic guard on the largest epsilon.

    The largest-eps point is dropped when its residual against the fit of
    the remaining points exceeds three times that fit's residual standard
    error (leave-one-out, so a bad point cannot mask itself); at least three
    points must survive, and the drop is recorded on the returned fit.
    """
    pairs = sorted(((float(e), float(v)) for e, v in pairs), key=lambda t: -t[0])
    base = fit_rate(pairs)
    if len(pairs) < 4:
        return base
    rest = fit_rate(pairs[1:])
    lx = np.log([e for e, _ in pairs[1:]])
    ly = np.log([v for _, v in pairs[1:]])
    intercept = float(ly.mean() - rest.exponent * lx.mean())
    pred = intercept + rest.exponent * np.log(pairs[0][0])
    resid0 = abs(float(np.log(pairs[0][1])) - pred)
    s = float(np.sqrt(np.sum((ly - (intercept + rest.exponent * lx)) ** 2)
                      / max(len(pairs) - 3, 1)))
    if resid0 > 3.0 * s + 1e-9:
        return RateFit(exponent=rest.exponent, stderr=rest.stderr,
                       n_points=rest.n_points, dropped_largest=True)
    return base


def pointwise_envelope(result: SweepResult, probe_idx: int, beta: float, delta: float) -> dict:
    """Measured constant of the pointwise bound at one probe point.

    Returns the per-eps ratios |u_eps(x) - gbar| / (eps^beta / d(x)^(beta+delta))^kappa
    with kappa = (d-1)/(d-1+beta), their max (the measured constant), and a
    non-divergence flag (last ratio at most twice the median).
    """
    d = 2
    kappa = (d - 1.0) / (d - 1.0 + beta)
    dx = result.probe_distances[probe_idx]
    per_eps = []
    for eps, err in result.pointwise_pairs(probe_idx):
        bound = (eps ** beta / dx ** (beta + delta)) ** kappa
        per_eps.append((eps, err / bound))
    ratios = [r for _, r in per_eps]
    if not ratios:
        return {"constant": 0.0, "per_eps": (), "nondiverging": True}
    nondiv = ratios[-1] <= 2.0 * float(np.median(ratios)) + 1e-300
    return {"constant": float(np.max(ratios)), "per_eps": tuple(per_eps),
            "nondiverging": bool(nondiv)}


@dataclass(eq=False)
class RateReport:
    alpha_star: float
    delta: float
    lp_fits: dict          # p -> RateFit
    theoretical: dict      # p -> theoretical_rates dict
    envelopes: list        # per probe: pointwise_envelope dict
    pass_flags: dict

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "alpha_star": self.alpha_star,
            "delta": self.delta,
            "lp_fits": {repr(p): {"exponent": f.exponent, "stderr": f.stderr,
                                  "n_points": f.n_points,
                                  "dropped_largest": f.dropped_largest}
                        for p, f in self.lp_fits.items()},
            "theoretical": {repr(p): t for p, t in self.theoretical.items()},
            "envelopes": [
                {"constant": e["constant"], "nondiverging": e["nondiverging"],
                 "per_eps": [list(t) for t in e["per_eps"]]}
                for e in self.envelopes
            ],
            "pass_flags": self.pass_flags,
        }


def build_rate_report(result: SweepResult, alpha_star: float,
                      delta: float | None = None) -> RateReport:
    """Fit every configured p and probe and compare with the theory."""
    delta = result.config.delta if delta is None else delta
    lp_fits = {}
    theo = {}
    flags = {}
    for p in result.config.p_values:
        theo[p] = theoretical_rates(2, alpha_star, p, delta)
        try:
            lp_fits[p] = fit_rate_guarded(result.lp_pairs(p))
        except DegenerateFit:
            continue
    envelopes = []
    beta = theo[result.config.p_values[0]]["beta"] if theo else 1.0 - delta
    for i in range(len(result.config.probe_points)):
        envelopes.append(pointwise_envelope(result, i, beta, delta))
    for p, f in lp_fits.items():
        t = theo[p]
        binding = t["lp_lower"] < t["gamma"]
        if binding:
            flags[f"sandwich_p={p:g}"] = bool(abs(f.exponent - t["lp_lower"]) <= _SANDWICH_TOL)
    flags["envelopes_nondiverging"] = all(e["nondiverging"] for e in envelopes)
    return RateReport(alpha_star=alpha_star, delta=delta, lp_fits=lp_fits,
                      theoretical=theo, envelopes=envelopes, pass_flags=flags)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def report(result: SweepResult, rate_report: RateReport | None, out_dir) -> list:
    """Write sweep.csv, summary.json, and gnuplot-ready loglog.dat.

    One CSV row per (eps, p) and per (eps, probe); outputs are
    byte-deterministic for identical inputs.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = []

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["epsilon", "p_or_probe_id", "value", "h_used",
                    "solver_iters", "residual"])
        for rec in result.records:
            if rec.failed:
                w.writerow([_fmt(rec.epsilon), "failed", rec.error,
                            _fmt(rec.h_used), rec.iterations, _fmt(rec.residual)])
                continue
            for p in result.config.p_values:
                w.writerow([_fmt(rec.epsilon), f"p={p:g}", _fmt(rec.lp_errors[p]),
                            _fmt(rec.h_used), rec.iterations, _fmt(rec.residual)])
            for i, err in enumerate(rec.pointwise_errors):
                w.writerow([_fmt(rec.epsilon), f"probe={i}", _fmt(err),
                            _fmt(rec.h_used), rec.iterations, _fmt(rec.residual)])
    files.append(csv_path)

    summary = {"schema": 1, "sweep": result.to_dict()}
    if rate_report is not None:
        summary["rates"] = rate_report.to_dict()
    json_path = os.path.join(out_dir, "summary.json")
    with open(json_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    files.append(json_path)

    dat_path = os.path.join(out_dir, "loglog.dat")
    with open(dat_path, "w") as f:
        cols = ["epsilon"] + [f"err_p{p:g}" for p in result.config.p_values] \
            + [f"err_probe{i}" for i in range(len(result.config.probe_points))]
        f.write("# " + " ".join(cols) + "\n")
        for rec in result.records:
            if rec.failed:
                continue
            row = [_fmt(rec.epsilon)]
            row += [_fmt(rec.lp_errors[p]) for p in result.config.p_values]
            row += [_fmt(e) for e in rec.pointwise_errors]
            f.write(" ".join(row) + "\n")
    files.append(dat_path)
    return files


def config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
