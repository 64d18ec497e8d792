"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "solve_box": dict(n=6, m=2, neg_eigs=1, size=2, tol=1e-6),
    "eb_halfspace": dict(replicas=1, cases=workloads.EB_CASES[:2]),
    "monitor_box": dict(n=5, m=2, neg_eigs=1, size=2, iters=30),
}
BOX_WORKLOADS = ("solve_box", "monitor_box")


@pytest.fixture(params=sorted(TINY))
def workload(request, tmp_path):
    w = measure.make_workload(request.param, 0, str(tmp_path), **TINY[request.param])
    w.prepare()
    return w


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_printed(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        measure.run_and_report(workload, 0.0, trace, setup_reps=1)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    declared = _declared("per_layer" if trace else "end_to_end")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == declared
    for name, unit in declared:
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_traced_outputs_equal_untraced(workload):
    tracer = layers.Tracer()
    plain, _ = workload.run(0)
    with tracer.installed():
        traced, _ = workload.run(0)
    assert workloads.fingerprint(traced) == workloads.fingerprint(plain)
    assert sum(s.calls for s in tracer.stats.values()) > 0
    assert not tracer.missing


def test_tracer_restores_the_library():
    import sproxalm.diagnostics
    import sproxalm.solvers

    before = (sproxalm.solvers.project, sproxalm.diagnostics.inner_minimize_K,
              sproxalm.diagnostics.MonitorContext.__dict__["check_step"])
    tracer = layers.Tracer()
    with tracer.installed():
        assert sproxalm.solvers.project is not before[0]
    after = (sproxalm.solvers.project, sproxalm.diagnostics.inner_minimize_K,
             sproxalm.diagnostics.MonitorContext.__dict__["check_step"])
    assert after == before


def test_projection_calls_only_on_halfspaces(workload):
    run = measure.measure(workload, 0.0, trace=True)
    calls = measure.traced_metrics(run)["projection.project.calls"][0]
    if workload.name in BOX_WORKLOADS:
        assert calls == 0
    else:
        assert calls > 0


def test_fingerprint_sees_one_bit():
    import numpy as np

    x = np.linspace(0.0, 1.0, 5)
    y = x.copy()
    y[2] = np.nextafter(y[2], 2.0)
    assert workloads.fingerprint({"x": x}) != workloads.fingerprint({"x": y})


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve_box",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name,units",
                         [("solve_box", 1), ("eb_halfspace", 6), ("monitor_box", 1)])
def test_seed_zero_matches_the_recorded_reference(name, units, tmp_path):
    w = measure.make_workload(name, 0, str(tmp_path))
    w.prepare()
    assert any(c.endswith("_reference") for c in w.checks())
    for j in range(units):
        assert w.check(j, w.run(j)[0]) == []
