"""Measurement loop, metrics, output checks and provenance of the benchmark.

Imported by run.py after it has pinned BLAS to one thread and put the
checkout's sources first on sys.path.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPS = 7


def make_workload(name: str, seed: int, workdir: str, **sizes):
    """The named workload, with its recorded reference if it has one."""
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh).get(name)
    if reference is not None:
        sizes["reference"] = reference
    return workloads.WORKLOADS[name](seed, workdir, **sizes)


def time_setup(workload, reps: int = SETUP_REPS) -> float:
    """Median over ``reps`` set-ups of a fresh interpreter importing the
    package plus the workload's instance generation and problem files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    times = []
    for _ in range(reps):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import sproxalm.cli"], env=env, cwd=ROOT,
                       check=True)
        workload.prepare()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _timed(workload, j, tracer=None):
    start = perf_counter()
    if tracer is None:
        outputs, work = workload.run(j)
    else:
        with tracer.installed():
            outputs, work = workload.run(j)
    return outputs, work, perf_counter() - start


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run whole passes over the workload's fixed set of units: at least
    one, and another while the time left to ``seconds`` holds a pass as
    long as the last one.  The measured units do not depend on the
    program's speed; only the number of passes does.

    Untraced, each unit runs once.  Traced, each unit runs once without and
    once with the tracer, in alternating order, and the two runs' outputs
    must be identical bit for bit.
    """
    tracer = layers.Tracer() if trace else None
    unit_s, unit_work, traced_s = [], [], []
    failed_units = 0
    failures = Counter()
    start = perf_counter()
    deadline = start + seconds
    j = 0
    pass_start = start
    while True:
        if j and j % workload.size == 0:
            now = perf_counter()
            if deadline - now < now - pass_start:
                break
            pass_start = now
        unit_start = perf_counter()
        try:
            if tracer is None:
                outputs, w, dt = _timed(workload, j)
                failed = workload.check(j, outputs)
            else:
                if j % 2 == 0:
                    outputs, w, dt = _timed(workload, j)
                    outputs_t, _, dt_t = _timed(workload, j, tracer)
                else:
                    outputs_t, _, dt_t = _timed(workload, j, tracer)
                    outputs, w, dt = _timed(workload, j)
                traced_s.append(dt_t)
                failed = workload.check(j, outputs)
                if workloads.fingerprint(outputs) != workloads.fingerprint(outputs_t):
                    failed.append("traced_equals_untraced")
        except Exception:   # a unit that raises is a failed unit; the run goes on
            traceback.print_exc()
            failed, w, dt = ["raised"], 0, perf_counter() - unit_start
        unit_s.append(dt)
        unit_work.append(w)
        failed_units += bool(failed)
        failures.update(failed)
        j += 1
    wall_s = perf_counter() - start
    return {"units": j, "unit_s": unit_s, "unit_work": unit_work, "traced_s": traced_s,
            "failed_units": failed_units, "failures": failures, "wall_s": wall_s,
            "tracer": tracer}


def end_to_end_metrics(setup_s: float, run: dict) -> dict:
    rates = [w / dt for w, dt in zip(run["unit_work"], run["unit_s"]) if dt > 0]
    return {
        "setup_s": (setup_s, "s"),
        "unit_s_p50": (statistics.median(run["unit_s"]), "s"),
        "iters_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_metrics(run: dict) -> dict:
    return layers.per_layer_metrics(run["tracer"], run["units"], sum(run["traced_s"]),
                                    sum(run["unit_s"]))


def _git_rev() -> str:
    # the ceiling keeps git from reporting a repository that merely encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _openblas() -> dict:
    info = {"version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance(args) -> dict:
    return {
        "git_rev": _git_rev(),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_and_report(workload, seconds: float, trace: bool, setup_reps: int = SETUP_REPS) -> dict:
    """Set up, measure and check one workload; print the report and return
    the result object, which is also the last line printed."""
    setup_s = time_setup(workload, setup_reps)
    run = measure(workload, seconds, trace)
    checks = workload.checks() + (("traced_equals_untraced",) if trace else ()) + ("raised",)
    for name in checks:
        bad = run["failures"].get(name, 0)
        print(f"check {name}: {'FAIL' if bad else 'pass'} ({bad} of {run['units']} units failed)")
    print(f"wall_s = {run['wall_s']:.3f} s; units = {run['units']} "
          f"({run['units'] // workload.size} passes of {workload.size}); "
          f"fail_ratio = {run['failed_units'] / run['units']:.4f}; "
          f"unit_s min/p50/max = {min(run['unit_s']):.4g}/{statistics.median(run['unit_s']):.4g}/"
          f"{max(run['unit_s']):.4g}")

    metrics = traced_metrics(run) if trace else end_to_end_metrics(setup_s, run)
    if trace and run["tracer"].missing:
        print(f"warning: layers not found, reported as 0: {run['tracer'].missing}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": run["failed_units"] == 0,
        "attempted": run["units"],
        "failed": run["failed_units"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(args) -> int:
    print(json.dumps({"provenance": provenance(args)}))
    print(f"import_s = {args.import_s:.3f} s")
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        run_and_report(make_workload(args.workload, args.seed, workdir), args.seconds,
                       bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0
