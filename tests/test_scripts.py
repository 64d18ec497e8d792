"""Smoke runs of the scripts in scripts/ at tiny sizes: each must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["run_rate_benchmark.py", "--instances", "2", "--n", "6", "--m", "2", "--iters", "300",
     "--out", "{tmp}/rate.json"],
    ["run_descent_monitor.py", "--instances", "1", "--n", "5", "--m", "2", "--neg-eigs", "1",
     "--iters", "40", "--check-every", "10"],
    ["verify_error_bounds.py", "--instances", "1", "--samples", "5", "--systems", "2"],
], ids=lambda argv: argv[0])
def test_script_runs(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    args = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
