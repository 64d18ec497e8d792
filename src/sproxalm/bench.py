"""Experiment orchestration: configs, runs, trace output, and rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import MODES, MONITOR_LEVELS, plan_stepsizes
from .problem import ProblemInstance
from .solvers import MONITOR_COUNTERS, Trace, alm_run, sprox_alm_run

ALGORITHMS = ("alm", "sprox")
BURN_IN = 100   # rate fits use the trace rows from iteration BURN_IN on


@dataclass
class ExperimentConfig:
    """One benchmark run on a loaded instance."""

    algorithm: str = "sprox"
    mode: str = "practical"
    max_iters: int = 10_000
    target_eps: float = 1e-8
    trace_path: str | None = None
    monitor_level: str = "none"
    exact_limit: int = 20

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.monitor_level not in MONITOR_LEVELS:
            raise ValueError(f"monitor_level must be one of {MONITOR_LEVELS}")
        if not self.target_eps > 0:   # NaN included
            raise ValueError("target_eps must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class RateFit:
    slope: float | None
    intercept: float | None
    r_squared: float | None
    predicted_B: float
    max_tB: float = 0.0   # max over t >= BURN_IN of t * eps(t)^2

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "predicted_B": self.predicted_B,
            "burn_in": BURN_IN,
            "max_tB": self.max_tB,
        }


def fit_rate(trace: Trace) -> RateFit:
    """Least-squares fit of log best-so-far epsilon against log t >= BURN_IN.

    predicted_B is the median over the fit region of t * eps(t)^2 (the
    pointwise estimate of the envelope constant).  A trace that is
    already at zero residual everywhere reports slope None and B = 0.
    """
    if len(trace) < 200:
        raise ValueError("rate fitting needs at least 200 trace rows")
    eps = np.minimum.accumulate(trace.eps())
    t = trace.column("t") + 1.0  # iteration indices are 0-based
    mask = t >= BURN_IN
    t, eps = t[mask], eps[mask]
    tB_all = t * eps ** 2
    if np.all(eps == 0.0):
        return RateFit(slope=None, intercept=None, r_squared=None, predicted_B=0.0)
    pos = eps > 0.0
    lt, le = np.log(t[pos]), np.log(eps[pos])
    slope, intercept = np.polyfit(lt, le, 1)
    pred = intercept + slope * lt
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - np.mean(le)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2,
                   predicted_B=float(np.median(tB_all)), max_tB=float(np.max(tB_all)))


def run_experiment(inst: ProblemInstance, cfg: ExperimentConfig) -> dict:
    """Plan step sizes, run the chosen solver on inst, write the trace,
    summarize.  The summary is JSON-ready and deterministic for a fixed
    instance and config.
    """
    cfg.validate()
    params, report = plan_stepsizes(inst, cfg.mode, exact_limit=cfg.exact_limit)
    params.max_iters = cfg.max_iters
    params.target_eps = cfg.target_eps
    params.monitor_level = cfg.monitor_level
    if cfg.algorithm == "sprox":
        out = sprox_alm_run(inst, params)
        heuristic, monitors = False, out.monitor
    else:
        out = alm_run(inst, params)
        heuristic, monitors = out.heuristic, dict.fromkeys(MONITOR_COUNTERS)
    trace = out.trace
    # trace_every keeps its default of 1 here, so every iteration is a row and
    # the first smallest row is the solver's best certificate, bit for bit
    eps = trace.eps()   # max_iters >= 1, so the trace has a row
    final_eps, best_eps = eps[-1], eps.min()

    if cfg.trace_path:
        trace.to_csv(cfg.trace_path)

    rate = None
    if len(trace) >= 200:
        rate = fit_rate(trace).to_dict()

    return {
        "algorithm": cfg.algorithm,
        "mode": cfg.mode,
        "iters": int(out.state.t),
        "final_eps": float(final_eps),
        "best_eps": float(best_eps),
        "heuristic": bool(heuristic),
        "constants": report.to_dict(),
        "rate_fit": rate,
        "monitors": {k: monitors[k] for k in MONITOR_COUNTERS},
    }
