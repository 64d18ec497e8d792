"""Command-line bench harness.

Subcommands: solve, constants, verify-eb, verify-hoffman, trace-segment,
gen-qp.  Exit codes: 0 ok, 1 verification failure, 2 solver error,
3 I/O error.  The commands raise; main alone maps each failure to its
exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import ALGORITHMS, ExperimentConfig, run_experiment
from .constants import MODES, MONITOR_LEVELS, hoffman_theta_exact, plan_stepsizes
from .diagnostics import (regularized_quadratic_instance, trace_segment_decomposition,
                          verify_dual_error_bound, verify_hoffman)
from .problem import generate_nonconvex_qp, load_instance, load_system, save_instance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _emit(obj) -> None:
    """Write obj as strict JSON; a non-finite float raises ValueError before
    anything is written."""
    sys.stdout.write(json.dumps(obj, indent=1, allow_nan=False) + "\n")


class _LoadError(Exception):
    """A problem or system file that cannot be read or parsed (exit 3)."""


def _load(loader, kind, path):
    try:
        return loader(path)
    except (OSError, ValueError, RecursionError) as exc:   # RecursionError: deep nesting
        raise _LoadError(f"cannot load {kind} file {path!r}: {exc}") from exc


def cmd_solve(args) -> int:
    inst = _load(load_instance, "problem", args.problem)  # before any trace output
    cfg = ExperimentConfig(
        algorithm=args.algo,
        mode=args.mode,
        max_iters=args.max_iters,
        target_eps=args.tol,
        trace_path=args.trace,
        monitor_level=args.monitor,
        exact_limit=args.exact_limit,
    )
    _emit(run_experiment(inst, cfg))
    return EXIT_OK


def cmd_constants(args) -> int:
    inst = _load(load_instance, "problem", args.problem)
    _params, report = plan_stepsizes(inst, args.mode, exact_limit=args.exact_limit)
    _emit(report.to_dict())
    return EXIT_OK


def cmd_verify_eb(args) -> int:
    inst = _load(load_instance, "problem", args.problem)
    params, report = plan_stepsizes(inst, args.mode, exact_limit=args.exact_limit)
    if report.sigma5_bar is None:   # a practical plan above exact_limit: the planner says why
        why = next(w for w in report.warnings if w.startswith("theta_bar not computed"))
        raise ValueError(f"verify-eb needs an exact sigma5_bar; {why}")
    out = verify_dual_error_bound(inst, params, n_samples=args.samples,
                                  rng_seed=args.seed, sigma5_bar=report.sigma5_bar)
    _emit(out.to_dict())
    return EXIT_OK if out.passed else EXIT_CHECK_FAILED


def cmd_verify_hoffman(args) -> int:
    C1, b1, C2, b2, theta = _load(load_system, "system", args.system)
    if theta is None:
        theta = hoffman_theta_exact(np.vstack([C2, C1]))
    out = verify_hoffman(C1, b1, C2, b2, theta, n_points=args.points, rng_seed=args.seed)
    _emit(out.to_dict())
    return EXIT_OK if out.passed else EXIT_CHECK_FAILED


def cmd_trace_segment(args) -> int:
    inst = _load(load_instance, "problem", args.problem)
    params, _report = plan_stepsizes(inst, "practical", exact_limit=0)   # no theta_bar
    anchor = inst.meta.get("x_feas")
    z = np.zeros(inst.n) if anchor is None else np.asarray(anchor, dtype=float)
    g_inst = regularized_quadratic_instance(inst, params, z)
    rng = np.random.default_rng(args.seed)
    y_tilde = args.y_scale * rng.standard_normal(inst.m)
    seg = trace_segment_decomposition(g_inst, y_tilde, grid_size=args.grid)
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
    inst = generate_nonconvex_qp(n=args.n, m=args.m, neg_eigs=args.neg_eigs,
                                 rng_seed=args.seed, box=(args.box_lo, args.box_hi))
    save_instance(inst, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sproxalm",
                                 description="smoothed proximal augmented Lagrangian bench")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run a solver on a problem file")
    s.add_argument("--problem", required=True)
    s.add_argument("--algo", choices=ALGORITHMS, default="sprox")
    s.add_argument("--mode", choices=MODES, default="practical")
    s.add_argument("--max-iters", type=int, default=10_000)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--trace", default=None)
    s.add_argument("--monitor", choices=MONITOR_LEVELS, default="none")
    s.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    s.add_argument("--exact-limit", type=int, default=20)
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("constants", help="print the constants report for a problem")
    s.add_argument("--problem", required=True)
    s.add_argument("--mode", choices=MODES, default="theoretical")
    s.add_argument("--exact-limit", type=int, default=20)
    s.set_defaults(func=cmd_constants)

    s = sub.add_parser("verify-eb", help="sampled check of the global dual error bound")
    s.add_argument("--problem", required=True)
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mode", choices=MODES, default="theoretical")
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
    except _LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, FloatingPointError, OverflowError, MemoryError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
