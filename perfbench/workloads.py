"""The three benchmark workloads: inputs from a seed, one pass, and its gates.

Each workload builds its inputs from the seed in its constructor (that is
set-up) and runs one pass in ``run_pass``. A pass calls polyhom only through
module attributes, so the traced pass can wrap them, and records every
operation with its correctness gate in an ``Ops``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from polyhom import cli, fem, geometry, oscillatory, periodic
from polyhom.errors import BudgetExceeded


class Ops:
    """Outcomes of the operations of a run: attempted, failed, known red."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.expected_failures = 0
        self.known_red: list[str] = []
        self.lines: list[str] = []

    def new_pass(self) -> None:
        """Printable lines are kept for the latest pass only."""
        self.known_red.clear()
        self.lines.clear()

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}")
        return ok

    def raised(self, name: str, exc: Exception) -> None:
        self.check(name, False, f"raised {type(exc).__name__}: {exc}")

    def expected_failure(self, name: str, detail: str) -> None:
        """A documented defect: attempted, not ok, and not a gate failure."""
        self.attempted += 1
        self.expected_failures += 1
        self.known_red.append(f"{name}: {detail}")

    @property
    def ok_frac(self) -> float:
        return (self.attempted - len(self.failed) - self.expected_failures) / self.attempted


def acceptance_mix() -> periodic.PeriodicFunction:
    """The acceptance suite's 2-D mix g = cos(2 pi y1) + sin(2 pi (y1 + y2))."""
    return periodic.from_coefficients(2, {(1, 0): 0.5, (-1, 0): 0.5,
                                          (1, 1): -0.5j, (-1, -1): 0.5j})


def _write_json(path: str, doc) -> str:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    return path


class Workload:
    name = ""

    def run_pass(self, ops: Ops) -> None:
        raise NotImplementedError

    def check_trace(self, tracer, ops: Ops) -> None:
        """Gates that need the traced pass's counters; none by default."""


# ---------------------------------------------------------------------------
# headline_sweep
# ---------------------------------------------------------------------------

class HeadlineSweep(Workload):
    """CLI sweeps of the golden square (seeded translation) and the axis control."""

    name = "headline_sweep"
    EPSILONS = (1 / 8, 1 / 12, 1 / 16)
    # Seed 0 is the untranslated golden square; these are its values at the
    # parent commit of the benchmark, exponents to 1e-3 and counts exactly.
    # CG iterations are a cost, not a result: only traced passes print and
    # check them.
    SEED0_EXPONENTS = {("golden", "2.0"): 0.5031008902756816,
                       ("golden", "5.0"): 0.18765557332629437,
                       ("axis", "2.0"): 0.025500627368280585}
    SEED0_ITERATIONS = {"golden": (310, 441, 583), "axis": (200, 297, 393)}
    VERTICES = (12961, 29041, 51521)   # per eps, for every translation
    COMPARED = ("sweep.csv", "summary.json", "sweep_result.json", "manifest.json")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        shift = np.zeros(2) if seed == 0 else np.random.default_rng(seed).uniform(-0.5, 0.5, 2)
        golden = geometry.build_polytope([
            geometry.HalfSpace(h.normal, h.offset + float(h.normal @ shift))
            for h in geometry.golden_square().halfspaces])
        polys = {"golden": golden, "axis": geometry.unit_square()}
        gpath = _write_json(os.path.join(workdir, "g.json"),
                            periodic.periodic_to_dict(acceptance_mix()))
        self.configs, self.outs = {}, {}
        for tag, poly in polys.items():
            ppath = _write_json(os.path.join(workdir, f"{tag}.json"),
                                geometry.polytope_to_dict(poly))
            doc = {"schema": 1, "polytope": ppath, "periodic": gpath,
                   "epsilons": list(self.EPSILONS), "p_values": [2.0, 5.0], "eta": 10.0,
                   "delta": 0.01, "linear_tol": 1e-8}
            if tag == "golden":
                doc["probe_distances"] = [0.15, 0.3]
            self.configs[tag] = _write_json(os.path.join(workdir, f"sweep_{tag}.json"), doc)
            self.outs[tag] = os.path.join(workdir, f"out_{tag}")
        self.first_bytes = None

    def run_pass(self, ops: Ops) -> None:
        produced = {}
        for tag in ("golden", "axis"):
            argv = ["sweep", "--config", self.configs[tag], "--out", self.outs[tag],
                    "--seed", str(self.seed)]
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                if not ops.check(f"{tag} sweep", rc == 0, f"cli exit {rc}"):
                    continue
                with open(os.path.join(self.outs[tag], "summary.json")) as f:
                    summary = json.load(f)
                self._gate_records(tag, summary["sweep"]["records"], ops)
                self._gate_fits(tag, summary["rates"], ops)
                for name in self.COMPARED:
                    with open(os.path.join(self.outs[tag], name), "rb") as f:
                        produced[(tag, name)] = f.read()
            except Exception as exc:  # noqa: BLE001 - a raising call or missing output fails
                ops.raised(f"{tag} sweep", exc)
        if self.first_bytes is None:
            self.first_bytes = produced
        else:
            differ = sorted(f"{t}/{n}" for t, n in self.first_bytes
                            if produced.get((t, n)) != self.first_bytes[(t, n)])
            ops.check("artifacts byte-identical to the first pass", not differ,
                      f"differ: {differ}")

    def _gate_records(self, tag, records, ops):
        for r in records:
            ops.check(f"{tag} eps={r['epsilon']:.6g} solve", not r["failed"], str(r["error"]))

    def _gate_fits(self, tag, rates, ops):
        fits = {p: rates["lp_fits"].get(p, {}).get("exponent", math.nan) for p in ("2.0", "5.0")}
        ratios = [[r for _, r in e["per_eps"]] for e in rates["envelopes"]]
        # The pointwise bound holds with a constant: every ratio stays below 1
        # (at most 0.10 over seeds 0-119). The acceptance suite's rule, last ratio
        # at most twice the median, is checked on the untranslated square
        # only: under a translation a probe's error can sit near a sign change
        # at the coarsest eps, and with three eps the rule then reads phase.
        bounded = all(rs and max(rs) <= 1.0 for rs in ratios)
        nondiverging = all(rs and rs[-1] <= 2.0 * float(np.median(rs)) for rs in ratios)
        if tag == "golden":
            ok = 0.35 <= fits["2.0"] <= 0.65 and 0.12 <= fits["5.0"] <= 0.28 and bounded
        else:
            ok = fits["2.0"] <= 0.1
        if self.seed == 0:
            ok = ok and nondiverging and all(
                abs(fits[p] - v) <= 1e-3 for (t, p), v in self.SEED0_EXPONENTS.items() if t == tag)
        ops.check(f"{tag} rate fit", ok, f"exponents {fits}, envelope ratios {ratios}")
        ops.lines.append(f"{tag}: fitted exponents "
                         + ", ".join(f"L{float(p):g} {v:.4f}" for p, v in fits.items()))

    def check_trace(self, tracer, ops: Ops) -> None:
        """Exact vertices and CG iterations per eps from the traced solves."""
        solves = [e for name, e in tracer.events if name == "fem.solve_dirichlet"]
        n = len(self.EPSILONS)
        for k, tag in enumerate(("golden", "axis")):
            got = solves[k * n:(k + 1) * n]
            for i, e in enumerate(got):
                want_it = self.SEED0_ITERATIONS[tag][i] if self.seed == 0 else None
                ops.lines.append(
                    f"exact counts {tag} eps=1/{round(1 / e['epsilon'])}: "
                    f"vertices {e['vertices']} (table {self.VERTICES[i]}), "
                    f"cg iterations {e['iterations']}"
                    + (f" (table {want_it})" if want_it is not None else ""))
            ok = (len(got) == n
                  and all(e["vertices"] == v for e, v in zip(got, self.VERTICES))
                  and (self.seed != 0 or all(e["iterations"] == it for e, it in
                                             zip(got, self.SEED0_ITERATIONS[tag]))))
            ops.check(f"{tag} exact counts", ok, str(got))


# ---------------------------------------------------------------------------
# fem_probes
# ---------------------------------------------------------------------------

class FemProbes(Workload):
    """Corner and gradient probes, kernel bound probe, strip harmonic measure."""

    name = "fem_probes"
    OMEGA = 2.0 * math.pi / 3.0
    PROBE_H = 0.15
    ARCS = 32
    STRIP_H = 0.16
    STRIP_RHOS = (0.04, 0.02, 0.01)

    def __init__(self, seed: int, workdir: str):
        self.square = geometry.golden_square()
        self.centroid = geometry.polygon_vertices(self.square).mean(axis=0)
        offset = np.zeros(2) if seed == 0 else np.random.default_rng(seed).uniform(-0.2, 0.2, 2)
        self.kernel_point = self.centroid + offset
        self.sector = fem.sector_polygon(self.OMEGA)
        self.face0 = geometry.faces(self.square)[0]
        self.identity = fem.CoefficientField.identity()

    def _wedge_data(self, pts):
        q = math.pi / self.OMEGA
        r = np.linalg.norm(pts, axis=1)
        return r ** q * np.sin(q * np.arctan2(pts[:, 1], pts[:, 0]))

    def run_pass(self, ops: Ops) -> None:
        theory = math.pi / self.OMEGA
        try:
            probe = fem.corner_probe(self.OMEGA, h=self.PROBE_H, grading=1.0)
        except Exception as exc:  # noqa: BLE001
            ops.raised("corner_probe", exc)
        else:
            fit = probe["fitted_exponent"]
            ops.check("corner_probe", abs(fit - theory) <= 0.07 * theory,
                      f"exponent {fit} vs {theory}")
            ops.lines.append(f"corner exponent {fit:.4f} (theory {theory:.4f}), "
                             f"{probe['mesh_vertices']} vertices")
        try:
            samples = fem.gradient_probe(
                self.sector, self.identity, self._wedge_data, corner=(0.0, 0.0),
                direction=(math.cos(self.OMEGA / 2), math.sin(self.OMEGA / 2)),
                h=self.PROBE_H, grading=1.0)
        except Exception as exc:  # noqa: BLE001
            ops.raised("gradient_probe", exc)
        else:
            ds, gs = np.array(samples).T
            slope = float(np.polyfit(np.log(ds), np.log(gs), 1)[0])
            ops.check("gradient_probe", abs(slope - (theory - 1.0)) <= 0.1,
                      f"slope {slope} vs {theory - 1.0}")
            ops.lines.append(f"gradient exponent {slope:.4f} (theory {theory - 1.0:.4f})")
        self._kernel(ops)
        self._strip(ops)

    def _kernel(self, ops: Ops) -> None:
        """The arcs partition the boundary nodes, so their measures sum to 1."""
        arcs = self.ARCS
        x = self.kernel_point
        # one mesh edge per arc on each face (the default is four), so arc
        # ends still fall on mesh nodes
        h = min(f.measure for f in geometry.faces(self.square)) / arcs
        try:
            kb = fem.kernel_bound_probe(self.square, self.identity, x, arcs_per_face=arcs, h=h)
        except Exception as exc:  # noqa: BLE001
            ops.raised("kernel_bound_probe", exc)
            return
        dx = geometry.distance_to_boundary(self.square, x)
        measures = []
        for f in geometry.faces(self.square):
            va, vb = f.vertices
            for i in range(arcs):
                p0, p1 = va + i / arcs * (vb - va), va + (i + 1) / arcs * (vb - va)
                seg = p1 - p0
                t = float(np.clip((x - p0) @ seg / (seg @ seg), 0.0, 1.0))
                dist = float(np.linalg.norm(x - (p0 + t * seg)))
                measures.append(kb["ratios"][len(measures)] * np.linalg.norm(seg) * dx / dist ** 2)
        total = float(np.sum(measures))
        ops.check("kernel_bound_probe",
                  abs(total - 1.0) <= 1e-8 and min(measures) >= 0.0
                  and math.isfinite(kb["max_ratio"]),
                  f"arc measures sum to {total!r}, min {min(measures)!r}")
        ops.lines.append(f"kernel bound max ratio {kb['max_ratio']:.4f}, "
                         f"arc measures sum - 1 = {total - 1.0:.1e}")

    def _strip(self, ops: Ops) -> None:
        """One-sided strip bound: ratios below 1 and not increasing as rho shrinks."""
        f0 = self.face0
        dx = geometry.distance_to_boundary(self.square, self.centroid)
        try:
            mesh = fem.triangulate(self.square, self.STRIP_H, grading=1.0,
                                   grading_centers=f0.vertices, min_edge=2e-4)
        except Exception as exc:  # noqa: BLE001
            ops.raised("strip mesh", exc)
            return
        ratios = []
        for rho in self.STRIP_RHOS:
            def on_strip(y, rho=rho):
                return (abs(float(f0.normal @ y) - f0.offset) <= 1e-10
                        and geometry.face_strip_membership(f0, rho, y))
            try:
                w = fem.harmonic_measure(self.square, self.identity, on_strip, self.centroid,
                                         mesh=mesh)
            except Exception as exc:  # noqa: BLE001
                ops.raised(f"strip rho={rho}", exc)
                return
            r = w * dx / rho
            ops.check(f"strip rho={rho}", 0.0 < r < 1.0 and (not ratios or r <= ratios[-1]),
                      f"ratio {r!r} after {ratios}")
            ratios.append(r)
        variation = max(ratios) / min(ratios)
        verdict = "still red" if variation >= 2.0 else "now within the factor 2"
        ops.known_red.append(
            f"strip ratio (two-sided factor-2 criterion, {verdict}): "
            f"ratios {[round(r, 6) for r in ratios]}, variation {variation:.2f}")


# ---------------------------------------------------------------------------
# equi_3d
# ---------------------------------------------------------------------------

def _rotation(seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _polygon_integral(verts: np.ndarray, nu: np.ndarray, k: np.ndarray) -> complex:
    """Exact integral of exp(i k . y) over a planar convex polygon in R^3.

    With k_t the in-plane part of k, exp(i k.y) = div(k_t exp(i k.y)) / (i |k_t|^2)
    in the plane, so the integral is a sum of closed-form edge integrals.
    """
    area_vec = 0.5 * sum(np.cross(verts[i], verts[(i + 1) % len(verts)])
                         for i in range(len(verts)))
    if area_vec @ nu < 0:
        verts = verts[::-1]
    kt = k - (k @ nu) * nu
    q2 = float(kt @ kt)
    if q2 <= 1e-24:
        return abs(float(area_vec @ nu)) * np.exp(1j * float(k @ verts[0]))
    total = 0.0 + 0.0j
    for i in range(len(verts)):
        p, r = verts[i], verts[(i + 1) % len(verts)]
        e = r - p
        total += (float(kt @ np.cross(e, nu)) * np.exp(0.5j * float(k @ (p + r)))
                  * np.sinc(0.5 * float(k @ e) / np.pi))
    return total / (1j * q2)


def cube_boundary_average(R: np.ndarray, g, lam: float) -> complex:
    """Average of g(lam y) over the boundary of R [0, 1]^3, by exact face integrals."""
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    total = 0.0 + 0.0j
    for k in range(3):
        others = [j for j in range(3) if j != k]
        for side in (0.0, 1.0):
            verts = np.zeros((4, 3))
            verts[:, k] = side
            verts[:, others] = square
            nu = np.zeros(3)
            nu[k] = 1.0
            for m, c in g.coefficients.items():
                kvec = 2.0 * np.pi * lam * np.asarray(m, dtype=float)
                total += c * _polygon_integral(verts @ R.T, R @ nu, kvec)
    return total / 6.0


class Equi3D(Workload):
    """3-D boundary averages on a rotated cube, 2-D controls, the patch oracle."""

    name = "equi_3d"
    ROTATION_SEED = 2013
    LAMBDAS_3D = (2.0,)
    LAMBDAS_BUDGET = (100.0, 1000.0)   # raise BudgetExceeded at the parent commit
    LAMBDAS_2D = (10.0, 100.0, 1000.0, 10000.0)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.R = _rotation(self.ROTATION_SEED)
        self.cube = geometry.build_polytope([
            geometry.HalfSpace(self.R @ h.normal, h.offset)
            for h in geometry.unit_cube().halfspaces])
        a, b = rng.uniform(0.25, 0.5, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        self.g3 = periodic.from_coefficients(3, {(1, 0, 0): a, (-1, 0, 0): np.conj(a),
                                                 (0, 1, 1): b, (0, -1, -1): np.conj(b)})
        self.reference = {lam: cube_boundary_average(self.R, self.g3, lam)
                          for lam in self.LAMBDAS_3D + self.LAMBDAS_BUDGET}
        self.g2 = acceptance_mix()
        self.squares = {"golden": geometry.golden_square(), "axis": geometry.unit_square()}
        self.oracle = [self._oracle_instance(rng, trial) for trial in range(200)]

    @staticmethod
    def _oracle_instance(rng, trial):
        d = 2 if trial % 2 == 0 else 3
        while True:
            nu = rng.standard_normal(d)
            nu /= np.linalg.norm(nu)
            k = int(np.argmax(np.abs(nu)))
            if abs(nu[k]) >= 0.4:
                break
        a = rng.uniform(-1.0, 0.0, size=d - 1)
        b = a + rng.uniform(0.2, 1.0, size=d - 1)
        patch = oscillatory.FacePatch(normal=nu, offset=float(rng.uniform(-0.5, 0.5)), axis=k,
                                      bounds=np.stack([a, b], axis=1))
        return patch, float(10 ** rng.uniform(0.0, 2.0)), rng.integers(-2, 3, size=d)

    def run_pass(self, ops: Ops) -> None:
        self._dioph(ops)
        self._cube(ops)
        self._planar(ops)
        self._oracle(ops)

    def _dioph(self, ops: Ops) -> None:
        for f in geometry.faces(self.cube):
            try:
                cert = geometry.diophantine_check(f.normal, 2.0, 60)
            except Exception as exc:  # noqa: BLE001
                ops.raised(f"diophantine face {f.index}", exc)
                continue
            ops.check(f"diophantine face {f.index}", cert.c_lower > 0.0,
                      f"annihilated by {cert.worst_m}")

    def _cube(self, ops: Ops) -> None:
        for lam in self.LAMBDAS_3D + self.LAMBDAS_BUDGET:
            name = f"cube boundary_average lambda={lam:g}"
            try:
                v = oscillatory.boundary_average(self.cube, self.g3, lam)
            except BudgetExceeded as exc:
                if lam in self.LAMBDAS_BUDGET:
                    ops.expected_failure(name, f"BudgetExceeded ({exc})")
                else:
                    ops.raised(name, exc)
                continue
            except Exception as exc:  # noqa: BLE001
                ops.raised(name, exc)
                continue
            err = abs(v - self.reference[lam])
            ops.check(name, err <= 1e-8, f"{v!r} vs exact {self.reference[lam]!r}")
            ops.lines.append(f"{name}: |avg| {abs(v):.6e}, error vs exact {err:.1e}")

    def _planar(self, ops: Ops) -> None:
        """Golden square: acceptance envelope; axis square: stall at |avg| >= 0.2."""
        for tag, poly in self.squares.items():
            vals = {}
            for lam in self.LAMBDAS_2D:
                try:
                    vals[lam] = abs(oscillatory.boundary_average(poly, self.g2, lam))
                except Exception as exc:  # noqa: BLE001
                    ops.raised(f"{tag} boundary_average lambda={lam:g}", exc)
            C = 10.0 * vals.get(10.0, math.nan)
            for lam, v in vals.items():
                if tag == "axis":
                    ok = v >= 0.2
                else:
                    ok = 0.0 < v <= 2.0 * C / lam if lam > 10.0 else v > 0.0
                ops.check(f"{tag} boundary_average lambda={lam:g}", ok, f"|avg| {v!r}, C {C!r}")
            ops.lines.append(f"{tag} |avg|: " + ", ".join(f"{lam:g}:{v:.3e}"
                                                           for lam, v in vals.items()))

    def _oracle(self, ops: Ops) -> None:
        worst = 0.0
        try:
            for patch, lam, m in self.oracle:
                cf = oscillatory.patch_integral_closed_form(patch, lam, m).value
                q = oscillatory.patch_integral_quadrature(patch, lam, m, tol=1e-12).value
                mea = oscillatory.patch_measure(patch)
                worst = max(worst, abs(cf - q) / max(abs(cf), abs(q), 1e-3 * mea))
        except Exception as exc:  # noqa: BLE001
            ops.raised("oracle batch", exc)
            return
        ops.check("oracle batch", worst <= 1e-9, f"worst relative deviation {worst:.2e}")
        ops.lines.append(f"oracle: worst relative deviation {worst:.2e} over {len(self.oracle)}")


WORKLOADS = {w.name: w for w in (HeadlineSweep, FemProbes, Equi3D)}
