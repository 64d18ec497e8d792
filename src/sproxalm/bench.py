"""Experiment orchestration: configs, runs, trace output, and rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import MONITOR_LEVELS, plan_stepsizes
from .problem import ProblemInstance, generate_nonconvex_qp, load_instance
from .solvers import MONITOR_COUNTERS, Trace, alm_run, sprox_alm_run

ALGORITHMS = ("alm", "sprox")
MODES = ("theoretical", "practical")
BURN_IN = 100   # rate fits use the trace rows from iteration BURN_IN on


@dataclass
class ExperimentConfig:
    """One benchmark run.  Exactly one of problem_file / generator is set."""

    problem_file: str | None = None
    generator: dict | None = None     # keys: n, m, neg_eigs, seed, optional box
    algorithm: str = "sprox"
    mode: str = "practical"
    max_iters: int = 10_000
    target_eps: float = 1e-8
    trace_path: str | None = None
    monitor_level: str = "none"
    seed: int = 0
    exact_limit: int = 20
    overrides: dict | None = None

    def validate(self):
        if (self.problem_file is None) == (self.generator is None):
            raise ValueError("exactly one problem source (file or generator) is required")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.monitor_level not in MONITOR_LEVELS:
            raise ValueError(f"monitor_level must be one of {MONITOR_LEVELS}")
        if self.target_eps <= 0:
            raise ValueError("target_eps must be positive")


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
    eps = trace.best_so_far_eps()
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


def load_problem(cfg: ExperimentConfig) -> ProblemInstance:
    if cfg.problem_file is not None:
        return load_instance(cfg.problem_file)
    g = dict(cfg.generator)
    return generate_nonconvex_qp(
        n=int(g["n"]), m=int(g["m"]), neg_eigs=int(g.get("neg_eigs", 0)),
        rng_seed=int(g.get("seed", cfg.seed)), box=tuple(g.get("box", (0.0, 1.0))),
    )


def run_experiment(cfg: ExperimentConfig, inst: ProblemInstance | None = None) -> dict:
    """Plan step sizes, run the chosen solver, write the trace, summarize.

    ``inst`` is cfg's problem when the caller has loaded it already;
    otherwise it is loaded here.  The summary is JSON-ready and
    deterministic for a fixed config.
    """
    cfg.validate()
    if inst is None:
        inst = load_problem(cfg)
    params, report = plan_stepsizes(inst, cfg.mode, overrides=cfg.overrides,
                                    exact_limit=cfg.exact_limit, rng_seed=cfg.seed)
    params.max_iters = cfg.max_iters
    params.target_eps = cfg.target_eps
    params.monitor_level = cfg.monitor_level
    if cfg.algorithm == "sprox":
        res = sprox_alm_run(inst, params)
        trace = res.trace
        best_eps = res.best.eps if res.best is not None else np.nan
        monitors = res.monitor
        heuristic = False
        iters = res.state.t
    else:
        out = alm_run(inst, params, tol=max(cfg.target_eps, 1e-10),
                      max_outer=cfg.max_iters)
        trace = out.trace
        best_eps = float(np.min(np.maximum(trace.column("eq_res"),
                                           trace.column("cert_norm")))) if len(trace) else np.nan
        monitors = dict.fromkeys(MONITOR_COUNTERS)
        heuristic = out.heuristic
        iters = out.state.t
    final_eps = trace.row(-1).eps if len(trace) else np.nan

    if cfg.trace_path:
        trace.to_csv(cfg.trace_path)

    rate = None
    if len(trace) >= 200:
        rate = fit_rate(trace).to_dict()

    return {
        "algorithm": cfg.algorithm,
        "mode": cfg.mode,
        "iters": int(iters),
        "final_eps": float(final_eps),
        "best_eps": float(best_eps),
        "heuristic": bool(heuristic),
        "constants": report.to_dict(),
        "rate_fit": rate,
        "monitors": {k: monitors[k] for k in MONITOR_COUNTERS},
    }
