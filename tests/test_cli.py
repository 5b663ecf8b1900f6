import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polyhom import fem as F
from polyhom import geometry as G
from polyhom import harness as H
from polyhom import periodic as P
from polyhom.cli import main
from polyhom.errors import NonDiophantineWarning


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


@pytest.fixture
def golden_files(tmp_path):
    poly = tmp_path / "golden.json"
    poly.write_text(json.dumps(G.polytope_to_dict(G.golden_square())))
    g = P.from_coefficients(2, {(1, 0): 0.5, (-1, 0): 0.5, (1, 1): -0.5j, (-1, -1): 0.5j})
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(P.periodic_to_dict(g)))
    return str(poly), str(gpath)


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_dioph_mode(tmp_path, capsys):
    phi = G.GOLDEN_RATIO
    nu = [1.0, phi]
    cfg = _write(tmp_path / "c.json", {"schema": 1, "nu": nu, "tau": 1.0, "bound": 500})
    out = tmp_path / "out"
    assert main(["dioph", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    printed = capsys.readouterr().out
    assert "c_lower" in printed and "worst_m" in printed
    doc = json.loads((out / "dioph.json").read_text())
    assert doc["c_lower"] > 0.2
    man = _manifest(out)
    assert man["seed"] == 7 and man["mode"] == "dioph"
    assert {f["path"] for f in man["files"]} == {"dioph.json"}


def test_dioph_mode_zero_normal_is_validation_failure(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"schema": 1, "nu": [0, 0], "tau": 1.0, "bound": 10})
    assert main(["dioph", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unit vector" in err


@pytest.mark.parametrize("mode, key", [("dioph", "bound"), ("equi", "dioph_bound"),
                                       ("sweep", "dioph_bound")])
def test_non_integer_bound_is_validation_failure(tmp_path, capsys, golden_files, mode, key):
    poly, gpath = golden_files
    doc = {"dioph": {"nu": [1.0, G.GOLDEN_RATIO], "tau": 1.0},
           "equi": {"polytope": poly, "periodic": gpath, "lambdas": [10.0]},
           "sweep": {"polytope": poly, "periodic": gpath, "epsilons": [0.5], "eta": 2.0}}[mode]
    cfg = _write(tmp_path / "c.json", {"schema": 1, key: 2.5, **doc})
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "bound must be an integer" in capsys.readouterr().err


def _tangent_first_square(tmp_path):
    # half-space 0 touches the unit square at the corner (1, 1) only
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    hs = [G.HalfSpace(-nu, float(-nu @ [1.0, 1.0])), *G.unit_square().halfspaces]
    return _write(tmp_path / "tangent.json", G.polytope_to_dict(G.build_polytope(hs)))


@pytest.mark.parametrize("mode, doc, message", [
    ("sweep", {"epsilons": [], "eta": 2.0}, "epsilons must not be empty"),
    ("sweep", {"polytope": "tangent", "epsilons": [0.5], "eta": 2.0, "probe_distances": [0.1]},
     "face index 0 has no positive-measure face"),
    ("equi", {"lambdas": []}, "lambdas must not be empty"),
    ("osc", {"patch": {"normal": [0.6, 0.8], "offset": 0.0, "axis": 0, "bounds": [[0.0, 1.0]]},
             "m": [1, -1], "lambdas": [], "tau": 1.0}, "lambdas must not be empty"),
    ("corner", {"omegas": []}, "omegas must not be empty"),
    # sweep settings refused before any mesh is built
    ("sweep", {"epsilons": [0.5], "eta": 2.0, "p_values": []}, "p_values must not be empty"),
    ("sweep", {"epsilons": [0.5], "eta": 2.0, "p_values": [math.inf]},
     "p_values must be finite and >= 1"),
    ("sweep", {"epsilons": [0.5], "eta": 2.0, "p_values": [math.nan]},
     "p_values must be finite and >= 1"),
    ("sweep", {"epsilons": [0.5], "eta": 2.0, "p_values": [2.0, 0.5]},
     "p_values must be finite and >= 1"),
    ("sweep", {"epsilons": [0.5], "eta": math.nan}, "eta and delta must be finite and positive"),
    ("sweep", {"epsilons": [0.5], "eta": math.inf}, "eta and delta must be finite and positive"),
    ("sweep", {"epsilons": [0.5], "eta": 2.0, "delta": math.nan},
     "eta and delta must be finite and positive"),
])
def test_config_edge_cases_are_validation_failures(tmp_path, capsys, monkeypatch, golden_files,
                                                   mode, doc, message):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the config was refused")

    monkeypatch.setattr(F, "triangulate", no_mesh)
    poly, gpath = golden_files
    if doc.get("polytope") == "tangent":
        poly = _tangent_first_square(tmp_path)
    cfg = _write(tmp_path / "c.json", {"schema": 1, "periodic": gpath, **doc, "polytope": poly})
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_missing_config_is_validation_failure(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_missing_polytope_file_names_path(tmp_path, capsys, golden_files):
    _, gpath = golden_files
    cfg = _write(tmp_path / "c.json", {
        "schema": 1, "polytope": "missing_poly.json", "periodic": gpath,
        "epsilons": [0.5, 0.25], "eta": 4.0})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "missing_poly.json" in capsys.readouterr().err


def test_partition_mode(tmp_path, golden_files):
    poly, _ = golden_files
    cfg = _write(tmp_path / "c.json", {"schema": 1, "polytope": poly,
                                       "face_index": 0, "axis": 0, "rho": 0.1})
    out = tmp_path / "out"
    assert main(["partition", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "partition.json").read_text())
    assert doc["cell_count"] >= 1
    total = doc["cell_count"] * doc["cell_measure"] + doc["leftover_measure"]
    assert total == pytest.approx(doc["face_measure"], rel=1e-9)


def test_osc_mode(tmp_path):
    phi = G.GOLDEN_RATIO
    nu = np.array([1.0, phi]) / np.sqrt(1 + phi * phi)
    cfg = _write(tmp_path / "c.json", {
        "schema": 1,
        "patch": {"normal": list(nu), "offset": 0.0, "axis": 0, "bounds": [[0.0, 1.0]]},
        "m": [1, -1], "lambdas": [1.0, 10.0, 100.0], "tau": 1.0})
    out = tmp_path / "out"
    assert main(["osc", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "envelope.csv").read_text().splitlines()
    assert lines[0] == "lambda,re,im,abs,ratio"
    assert len(lines) == 4


def test_equi_mode_warns_on_axis_square(tmp_path, golden_files):
    _, gpath = golden_files
    poly = tmp_path / "axis.json"
    poly.write_text(json.dumps(G.polytope_to_dict(G.unit_square())))
    cfg = _write(tmp_path / "c.json", {"schema": 1, "polytope": str(poly),
                                       "periodic": gpath, "lambdas": [10.0, 100.0]})
    out = tmp_path / "out"
    assert main(["equi", "--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    assert any("non-Diophantine" in w for w in man["warnings"])
    # the same messages as an eps sweep over the same polygon
    with pytest.warns(NonDiophantineWarning):
        res = H.run_sweep(G.unit_square(), F.CoefficientField.identity(),
                          P.load_periodic(gpath), H.SweepConfig(epsilons=(0.5,), eta=2.0))
    assert man["warnings"] == sorted(res.warnings)


def test_solve_mode(tmp_path, golden_files):
    poly, gpath = golden_files
    cfg = _write(tmp_path / "c.json", {
        "schema": 1, "polytope": poly,
        "boundary": {"type": "periodic", "path": gpath, "epsilon": 0.25},
        "h": 0.05, "linear_tol": 1e-8})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    assert {f["path"] for f in man["files"]} == {"mesh.txt", "solution.csv", "solve.json"}


def test_corner_mode(tmp_path):
    cfg = _write(tmp_path / "c.json", {"schema": 1, "omegas": [np.pi / 2],
                                       "h": 0.1, "grading": 1.0})
    out = tmp_path / "out"
    assert main(["corner", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "corner.json").read_text())
    assert doc["results"][0]["fitted_exponent"] == pytest.approx(2.0, rel=0.07)


def test_sweep_report_and_idempotence(tmp_path, golden_files):
    poly, gpath = golden_files
    cfg = _write(tmp_path / "c.json", {
        "schema": 1, "polytope": poly, "periodic": gpath,
        "epsilons": [0.25, 1 / 6, 0.125], "p_values": [2.0],
        "probe_distances": [0.3], "eta": 5.0, "linear_tol": 1e-8})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--seed", "3"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
    for name in ("sweep.csv", "summary.json", "loglog.dat", "loglog.gp",
                 "sweep_result.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # report mode reproduces the derived artifacts from the saved raw result
    rcfg = _write(tmp_path / "r.json", {
        "schema": 1, "sweep_result": str(out1 / "sweep_result.json"), "alpha_star": 1.0})
    out3 = tmp_path / "o3"
    assert main(["report", "--config", rcfg, "--out", str(out3)]) == 0
    assert (out3 / "sweep.csv").read_bytes() == (out1 / "sweep.csv").read_bytes()
    assert (out3 / "loglog.dat").read_bytes() == (out1 / "loglog.dat").read_bytes()


def test_manifest_lists_every_artifact_no_orphans(tmp_path, golden_files):
    poly, gpath = golden_files
    cfg = _write(tmp_path / "c.json", {
        "schema": 1, "polytope": poly, "periodic": gpath,
        "epsilons": [0.5, 1 / 3, 0.25], "eta": 4.0})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    listed = {f["path"] for f in _manifest(out)["files"]}
    on_disk = {p.name for p in out.iterdir()}
    assert on_disk == listed | {"manifest.json"}


def test_unknown_coefficient_type(tmp_path, golden_files):
    poly, gpath = golden_files
    cfg = _write(tmp_path / "c.json", {
        "schema": 1, "polytope": poly, "coefficients": {"type": "mystery"},
        "boundary": {"type": "constant", "value": 1.0}, "h": 0.2})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_solver_config_without_iterations_is_validation_failure(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {
        "schema": 1, "polytope": _write(tmp_path / "sq.json",
                                        G.polytope_to_dict(G.unit_square())),
        "boundary": {"type": "constant", "value": 1.0}, "h": 0.2, "max_iter": 0})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error: max_iter must be at least 1" in capsys.readouterr().err


def test_solve_mode_nan_grading_is_validation_failure(tmp_path, capsys):
    # JSON accepts NaN; a nan grading used to give the uniform mesh silently
    cfg = _write(tmp_path / "c.json", {
        "schema": 1, "polytope": _write(tmp_path / "sq.json",
                                        G.polytope_to_dict(G.unit_square())),
        "boundary": {"type": "constant", "value": 1.0}, "h": 0.2, "grading": float("nan")})
    assert "NaN" in (tmp_path / "c.json").read_text()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error: grading must be finite and non-negative" in capsys.readouterr().err


def _golden_sweep_config(tmp_path, golden_files):
    poly, gpath = golden_files
    return _write(tmp_path / "c.json", {
        "schema": 1, "polytope": poly, "periodic": gpath,
        "epsilons": [0.25, 1 / 6, 0.125], "p_values": [2.0, 5.0],
        "probe_distances": [0.3], "eta": 5.0, "linear_tol": 1e-8})


def test_sweep_progress_one_stderr_line_per_eps(tmp_path, golden_files, capsys):
    cfg = _golden_sweep_config(tmp_path, golden_files)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[0] for line in lines] == ["eps=0.25", "eps=0.166667", "eps=0.125"]
    peaks = []
    for line in lines:
        fields = dict(f.split("=") for f in line.split())
        assert int(fields["nv"]) > 0 and int(fields["iterations"]) > 0
        assert float(fields["residual"]) <= 1e-8 and float(fields["seconds"]) >= 0.0
        peaks.append(float(fields["peak_rss_mb"]))
    # the process's high-water mark so far: positive and never falling
    assert peaks[0] > 0 and peaks == sorted(peaks)


def test_sweep_progress_leaves_artifacts_unchanged(tmp_path, golden_files, monkeypatch):
    cfg = _golden_sweep_config(tmp_path, golden_files)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    run_sweep = H.run_sweep
    monkeypatch.setattr(H, "run_sweep",
                        lambda poly, A, g, config, progress=None: run_sweep(poly, A, g, config))
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("sweep.csv", "summary.json", "sweep_result.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, golden_files):
    # 12,961 vertices: OpenBLAS sums a ddot this long in threads, so CG must
    # take no dot product from BLAS for the bytes to match
    poly, gpath = golden_files
    cfg = _write(tmp_path / "c.json", {
        "schema": 1, "polytope": poly, "periodic": gpath, "epsilons": [0.125],
        "p_values": [2.0], "probe_distances": [0.3], "eta": 10.0, "linear_tol": 1e-8})
    src = str(Path(__file__).resolve().parent.parent / "src")
    produced = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-m", "polyhom.cli", "sweep", "--config", cfg,
                              "--out", str(out)], env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        produced.append({name: (out / name).read_bytes()
                         for name in ("sweep.csv", "summary.json", "sweep_result.json")})
    assert produced[0] == produced[1]
