"""Solver library and verification bench for linearly constrained
nonconvex smooth minimization via the smoothed proximal augmented
Lagrangian method, with fully computable theoretical step sizes."""

from .bench import ExperimentConfig, RateFit, fit_rate, run_experiment
from .constants import (ConstantsReport, SolverParams, hoffman_constant,
                        plan_stepsizes, sigma5_from_theta)
from .diagnostics import (StationarityReport, certificate_from_step,
                          certificate_minnorm, potential_value,
                          trace_segment_decomposition, verify_dual_error_bound,
                          verify_hoffman)
from .problem import (Box, Halfspaces, ProblemInstance, QuadraticObjective,
                      fixed_instance_1d, generate_nonconvex_qp, load_instance,
                      save_instance)
from .projection import ProjectionResult, project
from .solvers import (IterateState, SproxResult, Trace, alm_run, inner_minimize_K,
                      solve_constrained_strongly_convex, sprox_alm_run, sprox_alm_step)

__all__ = [
    "Box", "Halfspaces", "ProblemInstance", "QuadraticObjective",
    "fixed_instance_1d", "generate_nonconvex_qp", "load_instance", "save_instance",
    "ProjectionResult", "project",
    "ConstantsReport", "SolverParams", "hoffman_constant", "plan_stepsizes",
    "sigma5_from_theta",
    "IterateState", "SproxResult", "Trace", "alm_run", "inner_minimize_K",
    "solve_constrained_strongly_convex", "sprox_alm_run", "sprox_alm_step",
    "StationarityReport", "certificate_from_step", "certificate_minnorm",
    "potential_value", "trace_segment_decomposition", "verify_dual_error_bound",
    "verify_hoffman",
    "ExperimentConfig", "RateFit", "fit_rate", "run_experiment",
]

__version__ = "0.1.0"
