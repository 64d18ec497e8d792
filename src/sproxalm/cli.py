"""Command-line bench harness.

Subcommands: solve, constants, verify-eb, verify-hoffman, trace-segment,
gen-qp.  Exit codes: 0 ok, 1 verification failure, 2 solver error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import ExperimentConfig, run_experiment
from .constants import dual_error_bound_constant, hoffman_theta_exact, plan_stepsizes
from .diagnostics import trace_segment_decomposition, verify_dual_error_bound, verify_hoffman
from .exceptions import ConvergenceError, DivergenceError
from .problem import generate_nonconvex_qp, load_instance, load_system, save_instance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _load_problem_or_exit(path):
    try:
        return load_instance(path)
    except (OSError, ValueError, RecursionError) as exc:   # RecursionError: deep nesting
        print(f"error: cannot load problem file {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def cmd_solve(args) -> int:
    cfg = ExperimentConfig(
        problem_file=args.problem,
        algorithm=args.algo,
        mode=args.mode,
        max_iters=args.max_iters,
        target_eps=args.tol,
        trace_path=args.trace,
        monitor_level=args.monitor,
        seed=args.seed,
        exact_limit=args.exact_limit,
    )
    inst = _load_problem_or_exit(args.problem)  # I/O problems exit 3 before any trace output
    try:
        summary = run_experiment(cfg, inst)
    except (DivergenceError, ConvergenceError, FloatingPointError, OverflowError,
            ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    _emit(summary)
    return EXIT_OK


def cmd_constants(args) -> int:
    inst = _load_problem_or_exit(args.problem)
    try:
        _params, report = plan_stepsizes(inst, args.mode, exact_limit=args.exact_limit,
                                         rng_seed=args.seed)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _emit(report.to_dict())
    return EXIT_OK


def cmd_verify_eb(args) -> int:
    inst = _load_problem_or_exit(args.problem)
    try:
        params, report = plan_stepsizes(inst, args.mode, exact_limit=args.exact_limit,
                                        rng_seed=args.seed)
        sigma5_bar = report.sigma5_bar
        if sigma5_bar is None:  # a practical plan leaves out the sampled theta
            _theta, _exact, sigma5_bar = dual_error_bound_constant(
                inst, report.L, report.gamma_K, exact_limit=args.exact_limit,
                rng_seed=args.seed)
        out = verify_dual_error_bound(inst, params, n_samples=args.samples,
                                      rng_seed=args.seed, sigma5_bar=sigma5_bar)
    except (DivergenceError, ConvergenceError, RuntimeError, ValueError, OverflowError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _emit(out.to_dict())
    return EXIT_OK if out.passed else EXIT_CHECK_FAILED


def cmd_verify_hoffman(args) -> int:
    try:
        C1, b1, C2, b2, theta = load_system(args.system)
    except (OSError, ValueError, RecursionError) as exc:   # RecursionError: deep nesting
        print(f"error: cannot load system file {args.system!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        if theta is None:
            M = np.vstack([C2, C1]) if C1.size and C2.size else (C2 if C2.size else C1)
            theta = hoffman_theta_exact(M)
        out = verify_hoffman(C1, b1, C2, b2, theta, n_points=args.points,
                             rng_seed=args.seed)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _emit(out.to_dict())
    return EXIT_OK if out.passed else EXIT_CHECK_FAILED


def cmd_trace_segment(args) -> int:
    inst = _load_problem_or_exit(args.problem)
    try:
        params, _report = plan_stepsizes(inst, "practical", exact_limit=args.exact_limit,
                                         rng_seed=args.seed)
        from .diagnostics import regularized_quadratic_instance

        anchor = inst.meta.get("x_feas")
        z = np.zeros(inst.n) if anchor is None else np.asarray(anchor, dtype=float)
        g_inst = regularized_quadratic_instance(inst, params, z)
        rng = np.random.default_rng(args.seed)
        y_tilde = args.y_scale * rng.standard_normal(inst.m)
        seg = trace_segment_decomposition(g_inst, y_tilde, grid_size=args.grid)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    result = {
        "samples": len(seg.grid),
        "max_ratio": seg.max_segment_ratio,
        "bound": seg.sigma5,
        "pass": bool(seg.lipschitz_ok),
        "skipped": 0,
        "seed": args.seed,
        "residual_norm": float(np.linalg.norm(seg.r_tilde)),
        "telescoped_sum": seg.telescoped_sum,
        "breakpoints": [float(s) for s in seg.breakpoints],
        "active_sets_observed": len(seg.active_sets_observed),
    }
    _emit(result)
    return EXIT_OK if seg.lipschitz_ok else EXIT_CHECK_FAILED


def cmd_gen_qp(args) -> int:
    try:
        inst = generate_nonconvex_qp(n=args.n, m=args.m, neg_eigs=args.neg_eigs,
                                     rng_seed=args.seed, box=(args.box_lo, args.box_hi))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        save_instance(inst, args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sproxalm",
                                 description="smoothed proximal augmented Lagrangian bench")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run a solver on a problem file")
    s.add_argument("--problem", required=True)
    s.add_argument("--algo", choices=("alm", "sprox"), default="sprox")
    s.add_argument("--mode", choices=("theoretical", "practical"), default="practical")
    s.add_argument("--max-iters", type=int, default=10_000)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--trace", default=None)
    s.add_argument("--monitor", choices=("none", "full"), default="none")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--exact-limit", type=int, default=20)
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("constants", help="print the constants report for a problem")
    s.add_argument("--problem", required=True)
    s.add_argument("--mode", choices=("theoretical", "practical"), default="theoretical")
    s.add_argument("--exact-limit", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_constants)

    s = sub.add_parser("verify-eb", help="sampled check of the global dual error bound")
    s.add_argument("--problem", required=True)
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mode", choices=("theoretical", "practical"), default="theoretical")
    s.add_argument("--exact-limit", type=int, default=20)
    s.set_defaults(func=cmd_verify_eb)

    s = sub.add_parser("verify-hoffman", help="check the polyhedral distance bound")
    s.add_argument("--system", required=True,
                   help="JSON file {n, C1, b1, C2, b2, theta?} with flat row-major matrices")
    s.add_argument("--points", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_verify_hoffman)

    s = sub.add_parser("trace-segment", help="trace the residual segment decomposition")
    s.add_argument("--problem", required=True)
    s.add_argument("--grid", type=int, default=1001)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--y-scale", type=float, default=1.0)
    s.add_argument("--exact-limit", type=int, default=20)
    s.set_defaults(func=cmd_trace_segment)

    s = sub.add_parser("gen-qp", help="generate a nonconvex QP benchmark instance")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--neg-eigs", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--box-lo", type=float, default=0.0)
    s.add_argument("--box-hi", type=float, default=1.0)
    s.set_defaults(func=cmd_gen_qp)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # loader helpers signal I/O failures this way
        return int(exc.code)


if __name__ == "__main__":
    raise SystemExit(main())
