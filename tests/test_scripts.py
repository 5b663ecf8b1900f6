"""Smoke runs of the experiment scripts: each exits 0 on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("headline_sweep.py", ["--quick", "--out", "{out}"]),
    ("corner_exponents.py", ["--omegas", "1.5707963", "--h", "0.2"]),
    ("equidistribution_scan.py", ["--decades", "1", "--out", "{out}"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [a.format(out=tmp_path / "out") for a in args]
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
