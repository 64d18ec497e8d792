"""Per-layer tracing of sproxalm from outside the library.

Each traced layer is a public function (or method) of one sproxalm
module.  The tracer wraps it and installs the wrapper at every module
attribute a caller looks the function up through, for example both
``sproxalm.projection.project`` and ``sproxalm.solvers.project``.  While
installed, every call records a span: its duration, the time covered by
the spans it caused (so self time can be derived), and layer-specific
counts taken from the arguments or the result.  Nothing is recorded in
an untraced run, because nothing is installed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    count: float = 0.0   # the layer's own work count (iterations, bytes, ...)


def _outer_iters(args, kwargs, result):
    return result.outer_iters


def _run_iters(args, kwargs, result):
    return result.state.t


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _sampled(args, kwargs, result):
    _theta, exact = result
    return 0 if exact else 1


def _faces(args, kwargs, result):
    # the enumerator visits every one of the 3^n faces of the box
    inst = args[0] if args else kwargs["inst"]
    return 3 ** inst.n


def _samples(args, kwargs, result):
    return result.samples


# (span name, module defining it, class or None, attribute,
#  other modules that call it through their own attribute, count hook)
LAYERS = (
    ("projection.project", "projection", None, "project", ("solvers",), None),
    ("solvers.solve_constrained_strongly_convex", "solvers", None,
     "solve_constrained_strongly_convex", ("diagnostics",), _outer_iters),
    ("solvers.inner_minimize_K", "solvers", None, "inner_minimize_K", ("diagnostics",), None),
    ("solvers.sprox_alm_run", "solvers", None, "sprox_alm_run", ("bench",), _run_iters),
    ("solvers.Trace.to_csv", "solvers", "Trace", "to_csv", (), _csv_bytes),
    ("bench.fit_rate", "bench", None, "fit_rate", (), None),
    ("constants.plan_stepsizes", "constants", None, "plan_stepsizes", ("bench", "cli"), None),
    ("constants.hoffman_constant", "constants", None, "hoffman_constant", (), _sampled),
    ("oracles.exact_lower_bound_box_qp", "oracles", None, "exact_lower_bound_box_qp", (),
     _faces),
    ("diagnostics.MonitorContext.check_step", "diagnostics", "MonitorContext", "check_step",
     (), None),
    ("diagnostics.potential_value", "diagnostics", None, "potential_value", (), None),
    ("diagnostics.verify_dual_error_bound", "diagnostics", None, "verify_dual_error_bound",
     ("cli",), _samples),
    ("problem.load_instance", "problem", None, "load_instance", ("cli", "bench"), None),
    ("cli.main", "cli", None, "main", (), None),
)


class Tracer:
    """Span recorder for the layers in LAYERS.

    Use ``with tracer.installed(): ...`` around the traced work; the
    original functions are restored on exit, also when the work raises.
    """

    def __init__(self):
        self.stats = {name: LayerStats() for name, *_ in LAYERS}
        self.missing: list[str] = []
        self._stack: list[float] = []   # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stats.calls += 1
                stats.s += dur
                stats.self_s += dur - child
            if hook is not None:
                stats.count += hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for name, module, cls, attr, callers, hook in LAYERS:
            mod = sys.modules[f"sproxalm.{module}"]
            owner = getattr(mod, cls) if cls else mod
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, hook)
            for site in [owner] + [sys.modules[f"sproxalm.{c}"] for c in callers]:
                if site.__dict__.get(attr) is original:
                    self._patches.append((site, attr, original))
                    setattr(site, attr, wrapper)

    def uninstall(self):
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# metric name = layer name + "." + field; "calls", "s" and "self_s" are the
# span's own fields, any other field is the layer's count hook.  The names
# and units are those of BENCHMARK.json's per_layer list.
with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as _fh:
    PER_LAYER = tuple((m["name"], m["unit"]) for m in json.load(_fh)["per_layer"])


def per_layer_metrics(tracer: Tracer, units: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced run: means per workload unit, and three ratios.

    ``traced_s`` and ``untraced_s`` are the summed wall times of the same
    units run with and without the tracer installed.
    """
    st = tracer.stats
    run = st["solvers.sprox_alm_run"]
    ratios = {
        "projection.project.share": st["projection.project"].s / traced_s if traced_s else 0.0,
        "solvers.sprox_alm_run.us_per_iter": 1e6 * run.s / run.count if run.count else 0.0,
        "trace.overhead": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in ratios:
            out[metric] = (ratios[metric], unit)
            continue
        layer, field = metric.rsplit(".", 1)
        stats = st[layer]
        total = getattr(stats, field) if field in ("calls", "s", "self_s") else stats.count
        out[metric] = (total / max(units, 1), unit)
    return out
