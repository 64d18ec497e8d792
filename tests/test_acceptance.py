"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 share the same twenty monitored runs (module fixture).
Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import dataclasses

import numpy as np
import pytest

from sproxalm.bench import fit_rate
from sproxalm.constants import hoffman_theta_exact, plan_stepsizes
from sproxalm.diagnostics import (potential_value, regularized_quadratic_instance,
                                  trace_segment_decomposition,
                                  verify_dual_error_bound, verify_hoffman)
from sproxalm.oracles import exact_lower_bound_box_qp, solve_constrained_qp_oracle
from sproxalm.problem import fixed_instance_1d, generate_nonconvex_qp
from sproxalm.solvers import (IterateState, solve_constrained_strongly_convex,
                              sprox_alm_run, sprox_alm_step)
from tests.conftest import make_box_instance, make_general_instance


def _report(num, name, ok, detail):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return ok


# -------------------------------------------------------------------------
# shared runs for criteria 1 and 2: twenty monitored theoretical runs
# -------------------------------------------------------------------------

N_DESCENT_RUNS = 20


@pytest.fixture(scope="module")
def descent_runs():
    out = []
    for i in range(N_DESCENT_RUNS):
        inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=1000 + i)
        f_exact, _ = exact_lower_bound_box_qp(inst)
        inst = dataclasses.replace(inst, lower_bound=f_exact,
                                   lower_bound_kind="exact")
        params, report = plan_stepsizes(inst, "theoretical", exact_limit=30)
        assert report.theta_exact, "criterion requires the exact constant"
        params.max_iters = 2000
        params.target_eps = 0.0
        params.trace_every = 20
        params.monitor_level = "full"
        res = sprox_alm_run(inst, params)
        out.append((inst, params, report, res))
    return out


def test_criterion_1_descent_inequality(descent_runs):
    violations = sum(r.monitor["phi_monotone_violations"] for _, _, _, r in descent_runs)
    checks = sum(r.monitor["checks"] for _, _, _, r in descent_runs)
    ok = violations == 0
    assert _report(1, "descent inequality", ok,
                   f"{violations} violations over {checks} monitored steps "
                   f"on {N_DESCENT_RUNS} runs")


def test_criterion_2_lower_bound(descent_runs):
    violations = sum(r.monitor["lemma34_violations"] for _, _, _, r in descent_runs)
    checks = sum(r.monitor["checks"] for _, _, _, r in descent_runs)
    ok = violations == 0
    assert _report(2, "potential lower bound", ok,
                   f"{violations} violations over {checks} monitored steps "
                   f"(exact enumerated lower bounds)")


# -------------------------------------------------------------------------

def _error_bound_instances():
    cases_box = [(5, 2, 2, 50), (6, 2, 2, 51), (6, 3, 3, 52), (5, 1, 2, 53)]
    cases_gen = [(8, 3, 2, 60), (8, 2, 3, 61), (7, 2, 4, 62),
                 (6, 2, 5, 63), (8, 3, 3, 64), (7, 3, 2, 65)]
    insts = [make_box_instance(n, m, k, seed) for n, m, k, seed in cases_box]
    insts += [make_general_instance(n, m, l, neg_eigs=2, seed=seed)
              for n, m, l, seed in cases_gen]
    return insts


def test_criterion_3_global_dual_error_bound():
    worst = 0.0
    total_violations = 0
    for idx, inst in enumerate(_error_bound_instances()):
        G, _ = inst.polyhedron.as_halfspaces()
        assert inst.n + G.shape[0] <= 20
        params, report = plan_stepsizes(inst, "theoretical", exact_limit=20)
        assert report.theta_exact
        out = verify_dual_error_bound(inst, params, n_samples=200,
                                      rng_seed=900 + idx,
                                      sigma5_bar=report.sigma5_bar)
        total_violations += out.violations
        worst = max(worst, out.max_ratio / report.sigma5_bar)
    ok = total_violations == 0
    assert _report(3, "global dual error bound", ok,
                   f"{total_violations} violations over 10 instances x 200 samples; "
                   f"worst ratio/bound = {worst:.3g}")


def _random_system(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    if seed % 5 == 0:
        n_ineq, n_eq = 1, 0   # single-row systems witness near-tightness
    else:
        n_ineq = int(rng.integers(0, 4))
        n_eq = int(rng.integers(0 if n_ineq else 1, 3))
    n_ineq = min(n_ineq, 6)
    n_eq = min(n_eq, 6 - n_ineq)
    x0 = rng.standard_normal(n)
    C1 = rng.standard_normal((n_ineq, n)) if n_ineq else np.zeros((0, n))
    b1 = C1 @ x0 + rng.uniform(0.0, 1.0, n_ineq) if n_ineq else np.zeros(0)
    C2 = rng.standard_normal((n_eq, n)) if n_eq else np.zeros((0, n))
    b2 = C2 @ x0 if n_eq else np.zeros(0)
    return C1, b1, C2, b2


def test_criterion_4_hoffman_bound():
    n_systems = 50
    all_pass = True
    best_tightness = 0.0
    for i in range(n_systems):
        C1, b1, C2, b2 = _random_system(i)
        M = np.vstack([C2, C1])
        theta = hoffman_theta_exact(M)
        out = verify_hoffman(C1, b1, C2, b2, theta, n_points=40, rng_seed=400 + i)
        all_pass &= out.passed
        best_tightness = max(best_tightness, out.near_tightness)
    ok = all_pass and best_tightness >= 0.9
    assert _report(4, "polyhedral distance bound", ok,
                   f"zero violations={all_pass}, best tightness ratio "
                   f"{best_tightness:.3f} (need >= 0.9)")


def test_criterion_5_rate_envelope():
    n_inst = 20
    slopes = []
    max_tBs = []
    per_instance_ratio = []
    for i in range(n_inst):
        inst = generate_nonconvex_qp(n=20, m=5, neg_eigs=5, rng_seed=5000 + i)
        params, _ = plan_stepsizes(inst, "practical", exact_limit=20)
        params.max_iters = 100_000
        params.target_eps = 0.0
        params.trace_every = 1
        res = sprox_alm_run(inst, params)
        fit = fit_rate(res.trace)
        slopes.append(fit.slope if fit.slope is not None else 0.0)
        max_tBs.append(fit.max_tB)
        per_instance_ratio.append(fit.max_tB / fit.predicted_B
                                  if fit.predicted_B > 0 else np.inf)
    slopes = np.asarray(slopes)
    max_tBs = np.asarray(max_tBs)
    n_slope_ok = int(np.sum(slopes <= -0.4))
    family_ratio = float(np.max(max_tBs) / np.median(max_tBs))
    ok = n_slope_ok >= 18 and family_ratio <= 3.0
    assert _report(5, "rate envelope", ok,
                   f"slope <= -0.4 on {n_slope_ok}/20 (worst {slopes.max():.2f}); "
                   f"family max/median of sup_t t*eps^2 = {family_ratio:.2f} "
                   f"(per-instance max/median over t spans "
                   f"{min(per_instance_ratio):.2g}..{max(per_instance_ratio):.2g})")


def test_criterion_6_certificate_soundness():
    cases = [("box", 10, 3, 3, 70, "practical"), ("box", 10, 3, 5, 71, "practical"),
             ("box", 8, 2, 2, 72, "theoretical"), ("gen", 6, 2, 3, 73, "practical"),
             ("gen", 5, 1, 2, 74, "practical")]
    worst_excess = 0.0
    rows_checked = 0
    for kind, n, m, k, seed, mode in cases:
        if kind == "box":
            inst = make_box_instance(n, m, k, seed)
        else:
            inst = make_general_instance(n, m, k, neg_eigs=1, seed=seed)
        params, rep = plan_stepsizes(inst, mode, exact_limit=30)
        params.max_iters = 2000
        params.target_eps = 0.0
        params.trace_every = 1
        res = sprox_alm_run(inst, params)
        tr = res.trace
        cert = tr.column("cert_norm")
        dx = tr.column("dx")
        dz = tr.column("dz")
        eq = tr.column("eq_res")
        x1_minus_z = dz / params.beta
        bound = ((rep.L_f + rep.p + rep.rho * rep.sigma_max_A ** 2 + 1.0 / params.c) * dx
                 + rep.rho * rep.sigma_max_A * eq + rep.p * x1_minus_z)
        excess = np.max((cert - bound) / np.maximum(bound, 1e-300))
        worst_excess = max(worst_excess, float(excess))
        rows_checked += len(tr)
    ok = worst_excess <= 1e-9
    assert _report(6, "certificate soundness", ok,
                   f"{rows_checked} trace rows, worst relative excess "
                   f"{worst_excess:.2e} (tolerance 1e-9)")


def test_criterion_7_segment_decomposition():
    cases = [("box", 2, 1, 0, 80), ("box", 3, 1, 1, 81), ("box", 3, 2, 1, 82),
             ("box", 4, 2, 1, 83), ("box", 4, 1, 2, 84),
             ("gen", 3, 1, 2, 85), ("gen", 4, 2, 3, 86), ("gen", 5, 2, 4, 87),
             ("gen", 4, 1, 5, 88), ("gen", 6, 3, 3, 89)]
    all_ok = True
    max_break = 0
    tele_err = 0.0
    for kind, n, m, extra, seed in cases:
        if kind == "box":
            inst = make_box_instance(n, m, extra if extra < n else n - 1, seed)
        else:
            inst = make_general_instance(n, m, extra, neg_eigs=1, seed=seed)
        params, _ = plan_stepsizes(inst, "practical", exact_limit=30)
        g = regularized_quadratic_instance(inst, params, inst.meta["x_feas"])
        rng = np.random.default_rng(seed)
        y_tilde = 2.0 * rng.standard_normal(inst.m)
        seg = trace_segment_decomposition(g, y_tilde, grid_size=1001)
        G, _h = g.polyhedron.as_halfspaces()
        l = G.shape[0]
        all_ok &= seg.lipschitz_ok
        all_ok &= len(seg.active_sets_observed) <= 2 ** l
        all_ok &= len(seg.breakpoints) <= 2 ** l
        tele_err = max(tele_err, abs(seg.telescoped_sum - np.linalg.norm(seg.r_tilde)))
        # triangle composition along the traced path
        total = sum(np.linalg.norm(b.x - a.x)
                    for a, b in zip(seg.grid[:-1], seg.grid[1:]))
        all_ok &= (np.linalg.norm(seg.grid[-1].x - seg.grid[0].x) <= total + 1e-12)
        max_break = max(max_break, len(seg.breakpoints))
    ok = all_ok and tele_err <= 1e-10
    assert _report(7, "segment decomposition", ok,
                   f"10 instances, telescoping error {tele_err:.2e} (<= 1e-10), "
                   f"max breakpoints {max_break}")


def test_criterion_8_oracle_equivalence():
    n_cases = 100
    worst = 0.0
    for i in range(n_cases):
        rng = np.random.default_rng(8000 + i)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, n))
        if i % 2 == 0:
            l = int(rng.integers(1, 5))
            inst = make_general_instance(n, m, l, neg_eigs=1, seed=8000 + i)
        else:
            inst = make_box_instance(n, m, 1, 8000 + i)
            G, _ = inst.polyhedron.as_halfspaces()
            if G.shape[0] > 4:   # keep within the l <= 4 brute-force regime
                inst = make_box_instance(2, 1, 1, 8000 + i)
        params, _ = plan_stepsizes(inst, "practical")
        z = rng.standard_normal(inst.n)
        x_iter, _ = solve_constrained_strongly_convex(inst, z, params, tol=1e-11)
        oracle = solve_constrained_qp_oracle(inst, z, params.p)
        worst = max(worst, float(np.linalg.norm(x_iter - oracle.x)))
    ok = worst <= 1e-6
    assert _report(8, "oracle equivalence", ok,
                   f"{n_cases} instances, worst deviation {worst:.2e} (<= 1e-6)")


def test_criterion_9_golden_regressions():
    inst = fixed_instance_1d()
    from sproxalm.constants import SolverParams

    params = SolverParams(rho=1.0, p=3.0, c=0.1, alpha=0.05, beta=0.03)
    st0 = IterateState(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    st1 = sprox_alm_step(inst, st0, params)
    phi, _parts = potential_value(inst, st0, params, tol=1e-13)
    _, report = plan_stepsizes(inst, "theoretical")
    checks = {
        "x1": abs(st1.x[0] - 0.795),
        "z1": abs(st1.z[0] - 0.99385),
        "phi0": abs(phi - 2.8),
        "sigma5": abs(report.sigma5_bar - 13.0 * np.sqrt(2.0)),
    }
    ok = all(err <= 1e-12 for err in checks.values())
    assert _report(9, "golden regressions", ok,
                   "; ".join(f"{k} err {v:.1e}" for k, v in checks.items()))
