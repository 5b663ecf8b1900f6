"""Batch command line: one subcommand per experiment, JSON config in, data out.

Every run writes its artifacts under --out plus a manifest.json listing each
produced file with its sha256 and the config hash, so identical configs are
byte-reproducible. Numeric parameters live in the config file; flags only
select the mode, config, output directory, and seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import warnings

import numpy as np

from . import fem, geometry, harness, oscillatory, periodic
from .errors import NumericalError, PolyhomError, ValidationError

SCHEMA = 1


def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ValidationError(f"config file does not exist: {path}")
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise ValidationError(f"unsupported config schema {doc.get('schema')}")
    return doc


def _resolve(base_dir: str, path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(base_dir, path)


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise ValidationError(f"{what} file does not exist: {path}")
    return path


def _coefficients_from(doc) -> fem.CoefficientField:
    if doc is None:
        return fem.CoefficientField.identity()
    kind = doc.get("type", "identity")
    if kind == "identity":
        return fem.CoefficientField.identity()
    if kind == "diag":
        return fem.CoefficientField.constant(np.diag([float(v) for v in doc["entries"]]))
    if kind == "constant":
        return fem.CoefficientField.constant(np.asarray(doc["matrix"], dtype=float))
    raise ValidationError(f"unknown coefficient type {kind!r}")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_gnuplot_script(path: str, dat_name: str, labels) -> None:
    with open(path, "w") as f:
        f.write("set logscale xy\nset key left top\n")
        f.write('set xlabel "epsilon"\nset ylabel "error"\n')
        plots = [f'"{dat_name}" using 1:{i + 2} with linespoints title "{lab}"'
                 for i, lab in enumerate(labels)]
        f.write("plot " + ", \\\n     ".join(plots) + "\n")
        f.write("pause -1\n")


# ---------------------------------------------------------------------------
# mode handlers: each returns (files, stdout_lines)
# ---------------------------------------------------------------------------

def _mode_dioph(cfg, out, base):
    nu = np.asarray(cfg["nu"], dtype=float)
    nu = nu / np.linalg.norm(nu)
    cert = geometry.diophantine_check(nu, float(cfg["tau"]), cfg["bound"])
    path = os.path.join(out, "dioph.json")
    _write_json(path, {"schema": SCHEMA, "nu": [float(v) for v in nu],
                       "tau": cert.tau, "bound": cert.searched_bound,
                       "c_lower": cert.c_lower, "worst_m": list(cert.worst_m)})
    lines = [f"c_lower = {cert.c_lower!r}", f"worst_m = {tuple(cert.worst_m)}"]
    return [path], lines


def _mode_partition(cfg, out, base):
    poly = geometry.load_polytope(_require_file(_resolve(base, cfg["polytope"]), "polytope"))
    face = [f for f in geometry.faces(poly) if f.index == int(cfg["face_index"])]
    if not face:
        raise ValidationError(f"face index {cfg['face_index']} has no positive-measure face")
    part = geometry.lattice_partition(face[0], int(cfg["axis"]), float(cfg["rho"]))
    cells_path = os.path.join(out, "cells.csv")
    with open(cells_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["lattice_index", "measure", "vertices"])
        for c in part.cells:
            w.writerow([";".join(str(i) for i in c.lattice_index), repr(c.measure),
                        ";".join(repr(float(v)) for v in c.vertices.ravel())])
    json_path = os.path.join(out, "partition.json")
    _write_json(json_path, {
        "schema": SCHEMA, "face_index": int(cfg["face_index"]), "axis": int(cfg["axis"]),
        "rho": float(cfg["rho"]), "cell_count": part.cell_count,
        "cell_measure": part.cells[0].measure if part.cells else 0.0,
        "leftover_measure": part.leftover.measure, "c0": part.c0,
        "face_measure": face[0].measure,
    })
    lines = [f"cells = {part.cell_count}", f"leftover measure = {part.leftover.measure!r}"]
    return [cells_path, json_path], lines


def _mode_osc(cfg, out, base):
    pd = cfg["patch"]
    patch = oscillatory.FacePatch(normal=np.asarray(pd["normal"], dtype=float),
                                  offset=float(pd["offset"]), axis=int(pd["axis"]),
                                  bounds=np.asarray(pd["bounds"], dtype=float))
    m = tuple(int(v) for v in cfg["m"])
    lambdas = [float(v) for v in cfg["lambdas"]]
    env = oscillatory.decay_envelope(patch, m, lambdas, float(cfg["tau"]))
    csv_path = os.path.join(out, "envelope.csv")
    oscillatory.write_envelope_csv(csv_path, env)
    json_path = os.path.join(out, "osc.json")
    _write_json(json_path, {"schema": SCHEMA, "m": list(m), "tau": env.tau,
                            "sup_ratio": env.sup_ratio,
                            "patch_measure": oscillatory.patch_measure(patch)})
    return [csv_path, json_path], [f"sup_ratio = {env.sup_ratio!r}"]


def _mode_equi(cfg, out, base):
    poly = geometry.load_polytope(_require_file(_resolve(base, cfg["polytope"]), "polytope"))
    g = periodic.load_periodic(_require_file(_resolve(base, cfg["periodic"]), "periodic data"))
    lambdas = [float(v) for v in cfg["lambdas"]]
    harness.diophantine_warnings(poly, float(cfg.get("dioph_tau", 1.0)),
                                 cfg.get("dioph_bound", 200))
    rows = []
    for lam in lambdas:
        ba = oscillatory.boundary_average(poly, g, lam)
        rows.append((lam, ba))
    csv_path = os.path.join(out, "equi.csv")
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["lambda", "re", "im", "abs"])
        for lam, ba in rows:
            w.writerow([repr(lam), repr(ba.real), repr(ba.imag), repr(abs(ba))])
    json_path = os.path.join(out, "equi.json")
    _write_json(json_path, {
        "schema": SCHEMA, "mean_re": periodic.mean(g).real, "mean_im": periodic.mean(g).imag,
        "rows": [{"lambda": lam, "re": ba.real, "im": ba.imag, "abs": abs(ba)}
                 for lam, ba in rows],
    })
    return [csv_path, json_path], [f"|avg|({rows[-1][0]:g}) = {abs(rows[-1][1])!r}"]


def _mode_solve(cfg, out, base):
    poly = geometry.load_polytope(_require_file(_resolve(base, cfg["polytope"]), "polytope"))
    A = _coefficients_from(cfg.get("coefficients"))
    bdoc = cfg["boundary"]
    if bdoc["type"] == "periodic":
        g = periodic.load_periodic(_require_file(_resolve(base, bdoc["path"]), "periodic data"))
        problem = fem.DirichletProblem(polygon=poly, coefficients=A,
                                       periodic_data=g, epsilon=float(bdoc["epsilon"]))
    elif bdoc["type"] == "constant":
        value = float(bdoc["value"])
        problem = fem.DirichletProblem(polygon=poly, coefficients=A,
                                       explicit_data=lambda pts: np.full(len(pts), value))
    else:
        raise ValidationError(f"unknown boundary type {bdoc['type']!r}")
    config = fem.SolverConfig(linear_tol=float(cfg.get("linear_tol", 1e-10)),
                              max_iter=int(cfg.get("max_iter", 200_000)))
    mesh = fem.triangulate(poly, float(cfg["h"]), grading=float(cfg.get("grading", 0.0)))
    sol = fem.solve_dirichlet(problem, mesh, config)
    mesh_path = os.path.join(out, "mesh.txt")
    fem.write_mesh(mesh_path, mesh)
    sol_path = os.path.join(out, "solution.csv")
    fem.write_solution_csv(sol_path, sol)
    json_path = os.path.join(out, "solve.json")
    _write_json(json_path, {"schema": SCHEMA, "vertices": len(mesh.vertices),
                            "triangles": len(mesh.triangles),
                            "iterations": sol.iterations, "residual": sol.residual})
    lines = [f"vertices = {len(mesh.vertices)}",
             f"iterations = {sol.iterations}", f"residual = {sol.residual!r}"]
    return [mesh_path, sol_path, json_path], lines


def _sweep_outputs(result, rate_report, out):
    files = harness.report(result, rate_report, out)
    labels = [f"p={p:g}" for p in result.config.p_values] \
        + [f"probe{i}" for i in range(len(result.config.probe_points))]
    gp_path = os.path.join(out, "loglog.gp")
    _write_gnuplot_script(gp_path, "loglog.dat", labels)
    files.append(gp_path)
    return files


def _progress_line(rec, vertices: int, seconds: float) -> None:
    """One stderr line per finished epsilon of a sweep."""
    status = f" failed: {rec.error}" if rec.failed else ""
    print(f"eps={rec.epsilon:.6g} nv={vertices} iterations={rec.iterations} "
          f"residual={rec.residual:.3e} seconds={seconds:.3f}{status}", file=sys.stderr)


def _mode_sweep(cfg, out, base):
    poly = geometry.load_polytope(_require_file(_resolve(base, cfg["polytope"]), "polytope"))
    g = periodic.load_periodic(_require_file(_resolve(base, cfg["periodic"]), "periodic data"))
    A = _coefficients_from(cfg.get("coefficients"))
    if "probe_points" in cfg:
        probes = tuple(tuple(float(c) for c in pt) for pt in cfg["probe_points"])
    elif "probe_distances" in cfg:
        probes = harness.probe_points_at_distances(poly, [float(d) for d in cfg["probe_distances"]])
    else:
        probes = ()
    config = harness.SweepConfig(
        epsilons=tuple(float(e) for e in cfg["epsilons"]),
        p_values=tuple(float(p) for p in cfg.get("p_values", [2.0])),
        probe_points=probes,
        eta=float(cfg.get("eta", 10.0)),
        delta=float(cfg.get("delta", 0.01)),
        solver=fem.SolverConfig(linear_tol=float(cfg.get("linear_tol", 1e-8)),
                                max_iter=int(cfg.get("max_iter", 200_000))),
        dioph_tau=float(cfg.get("dioph_tau", 1.0)),
        dioph_bound=cfg.get("dioph_bound", 200))
    result = harness.run_sweep(poly, A, g, config, progress=_progress_line)
    alpha_star = float(cfg.get("alpha_star", geometry.max_adjacent_angle(poly)["alpha_star"]))
    rate_report = harness.build_rate_report(result, alpha_star)
    raw_path = os.path.join(out, "sweep_result.json")
    _write_json(raw_path, result.to_dict())
    files = [raw_path] + _sweep_outputs(result, rate_report, out)
    lines = []
    for p, f in rate_report.lp_fits.items():
        lines.append(f"fitted exponent p={p:g}: {f.exponent:.4f} +- {f.stderr:.4f}"
                     + (" (largest eps dropped)" if f.dropped_largest else ""))
    return files, lines


def _mode_corner(cfg, out, base):
    rows = []
    for omega in cfg["omegas"]:
        r = fem.corner_probe(float(omega), h=float(cfg.get("h", 0.05)),
                             grading=float(cfg.get("grading", 1.0)),
                             arc_segments=int(cfg.get("arc_segments", 64)))
        rows.append(r)
    csv_path = os.path.join(out, "corner.csv")
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["omega", "fitted_exponent", "stderr", "theory_pi_over_omega"])
        for r in rows:
            w.writerow([repr(r["omega"]), repr(r["fitted_exponent"]),
                        repr(r["stderr"]), repr(float(np.pi / r["omega"]))])
    json_path = os.path.join(out, "corner.json")
    _write_json(json_path, {"schema": SCHEMA, "results": [
        {"omega": r["omega"], "fitted_exponent": r["fitted_exponent"],
         "stderr": r["stderr"], "mesh_vertices": r["mesh_vertices"]} for r in rows]})
    lines = [f"omega={r['omega']:.6f}: fitted {r['fitted_exponent']:.4f} "
             f"(theory {np.pi / r['omega']:.4f})" for r in rows]
    return [csv_path, json_path], lines


def _mode_report(cfg, out, base):
    raw = _require_file(_resolve(base, cfg["sweep_result"]), "sweep result")
    with open(raw) as f:
        result = harness.SweepResult.from_dict(json.load(f))
    rate_report = None
    if "alpha_star" in cfg:
        rate_report = harness.build_rate_report(result, float(cfg["alpha_star"]),
                                                cfg.get("delta"))
    files = _sweep_outputs(result, rate_report, out)
    return files, [f"rows = {len(result.records)}"]


_MODES = {
    "dioph": _mode_dioph,
    "partition": _mode_partition,
    "osc": _mode_osc,
    "equi": _mode_equi,
    "solve": _mode_solve,
    "sweep": _mode_sweep,
    "corner": _mode_corner,
    "report": _mode_report,
}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polyhom",
        description="Experiments on homogenization of oscillating Dirichlet data "
                    "over convex polytopes")
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, help_text in (
        ("dioph", "certify a direction by exhaustive lattice search"),
        ("partition", "lattice partition of a polytope face"),
        ("osc", "decay envelope of oscillatory patch integrals"),
        ("equi", "boundary averages of dilated periodic data"),
        ("solve", "solve one Dirichlet problem and dump mesh/solution"),
        ("sweep", "epsilon sweep with rate fits"),
        ("corner", "corner-exponent probes on circular sectors"),
        ("report", "re-emit report files from a saved sweep result"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="recorded in every output")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        base = os.path.dirname(os.path.abspath(args.config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            files, lines = _MODES[args.mode](cfg, args.out, base)
        warn_strings = sorted({str(w.message) for w in caught})
        manifest = {
            "schema": SCHEMA,
            "mode": args.mode,
            "seed": args.seed,
            "config_sha256": harness.config_hash(cfg),
            "files": [{"path": os.path.basename(p), "sha256": _sha256(p)}
                      for p in sorted(files)],
            "warnings": warn_strings,
        }
        manifest_path = os.path.join(args.out, "manifest.json")
        _write_json(manifest_path, manifest)
        for line in lines:
            print(line)
        for w in warn_strings:
            print(f"warning: {w}", file=sys.stderr)
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, PolyhomError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
