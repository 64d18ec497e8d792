import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from sproxalm.constants import SolverParams, plan_stepsizes
from sproxalm.diagnostics import (MonitorContext, certificate_from_step,
                                  certificate_minnorm, check_step_inequalities,
                                  multiplier_set_distance, potential_value,
                                  regularized_quadratic_instance,
                                  trace_segment_decomposition,
                                  verify_dual_error_bound, verify_hoffman)
from sproxalm import diagnostics
from sproxalm.cli import main
from sproxalm.exceptions import ConvergenceError, StepMismatchError
from sproxalm.oracles import (enumerate_kkt_points, project_polyhedron_exact,
                              solve_qp_active_set)
from sproxalm.problem import (Box, ProblemInstance, QuadraticObjective,
                              fixed_instance_1d, generate_nonconvex_qp)
from sproxalm.projection import StronglyConvexQP, project
from sproxalm.solvers import IterateState, sprox_alm_run, sprox_alm_step
from tests.conftest import make_box_instance, make_general_instance

PARAMS_1D = SolverParams(rho=1.0, p=3.0, c=0.1, alpha=0.05, beta=0.03)


# ------------------------------------------------------------ certificates

def test_certificate_vanishes_at_fixed_point():
    inst = fixed_instance_1d()
    st0 = IterateState(np.zeros(1), np.zeros(1), np.zeros(1))
    st1 = sprox_alm_step(inst, st0, PARAMS_1D)
    rep = certificate_from_step(inst, st0.x, st1, st0.z, PARAMS_1D)
    assert rep.cert_norm == 0.0 and rep.eq_residual == 0.0 and rep.epsilon == 0.0


def test_certificate_matches_hand_value_on_worked_example():
    inst = fixed_instance_1d()
    st0 = IterateState(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    st1 = sprox_alm_step(inst, st0, PARAMS_1D)
    rep = certificate_from_step(inst, st0.x, st1, st0.z, PARAMS_1D)
    dx = 0.795 - 1.0
    v_hand = dx + (1.0 + 3.0) * dx - (1.0 / 0.1) * dx - 0.795 - 3.0 * (0.795 - 1.0)
    assert rep.cert_vector[0] == pytest.approx(v_hand, abs=1e-14)
    assert rep.eq_residual == pytest.approx(0.795, abs=1e-15)


def test_certificate_rejects_wrong_step():
    inst = fixed_instance_1d()
    st0 = IterateState(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    st1 = sprox_alm_step(inst, st0, PARAMS_1D)
    tampered = IterateState(st1.x + 0.1, st1.y, st1.z, st1.t)
    with pytest.raises(StepMismatchError):
        certificate_from_step(inst, st0.x, tampered, st0.z, PARAMS_1D)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_certificate_norm_bound_chain(seed):
    # ||v|| <= (L_f + p + rho smax^2 + 1/c)||dx|| + rho smax ||Ax+ - b|| + p||x+ - z||
    inst = make_box_instance(5, 2, 2, seed)
    params, rep = plan_stepsizes(inst, "practical")
    rng = np.random.default_rng(seed)
    st0 = IterateState(inst.polyhedron.clip(rng.standard_normal(5)),
                       rng.standard_normal(2), inst.polyhedron.clip(rng.standard_normal(5)))
    st1 = sprox_alm_step(inst, st0, params)
    out = certificate_from_step(inst, st0.x, st1, st0.z, params)
    dx = np.linalg.norm(st1.x - st0.x)
    bound = ((rep.L_f + rep.p + rep.rho * rep.sigma_max_A ** 2 + 1.0 / params.c) * dx
             + rep.rho * rep.sigma_max_A * out.eq_residual
             + rep.p * np.linalg.norm(st1.x - st0.z))
    assert out.cert_norm <= bound * (1 + 1e-9) + 1e-12


def test_run_trace_certificates_equal_step_replays():
    # the run, one step and the certificate replay share one step kernel
    inst = make_general_instance(4, 2, 3, neg_eigs=1, seed=7)
    params, _ = plan_stepsizes(inst, "practical")
    params.max_iters = 30
    x0 = inst.meta["x_feas"] + 2.0   # 18 of the 30 step projections have active rows
    res = sprox_alm_run(inst, params, x0=x0)
    x_start = project(inst.polyhedron, x0)
    st = IterateState(x_start, np.zeros(inst.m), x_start.copy())
    certs = []
    for _ in range(len(res.trace)):
        st1 = sprox_alm_step(inst, st, params)
        certs.append(certificate_from_step(inst, st.x, st1, st.z, params).cert_norm)
        st = st1
    assert np.array_equal(certs, res.trace.column("cert_norm"))
    assert np.array_equal(st.x, res.state.x)


def test_minnorm_on_free_space_is_plain_gradient():
    inst = fixed_instance_1d()
    rep = certificate_minnorm(inst, np.array([0.7]), np.array([0.2]))
    assert rep.cert_vector[0] == pytest.approx(0.7 + 0.2, abs=1e-15)
    assert rep.method == "minnorm-nnls"


def test_minnorm_at_enumerated_kkt_point():
    # Q = diag(1, -1), A = [1 1], b = 1, box [0,1]^2: oracle finds x* = (0, 1)
    inst = ProblemInstance(
        objective=QuadraticObjective(np.diag([1.0, -1.0]), np.zeros(2)),
        lipschitz_grad=1.0,
        eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([1.0]),
        polyhedron=Box(np.zeros(2), np.ones(2)),
    )
    pts = enumerate_kkt_points(inst)
    target = [p for p in pts if np.allclose(p[0], [0.0, 1.0], atol=1e-10)]
    assert target
    x, y, _ = target[0]
    rep = certificate_minnorm(inst, x, y)
    assert rep.cert_norm <= 1e-8
    assert rep.eq_residual <= 1e-12


def test_minnorm_interior_point_has_no_active_rows():
    inst = make_general_instance(3, 1, 2, neg_eigs=1, seed=3)
    x0 = inst.meta["x_feas"]
    y = np.array([0.1])
    rep = certificate_minnorm(inst, x0, y)
    expected = inst.grad_f(x0) + inst.eq_matrix.T @ y
    assert np.allclose(rep.cert_vector, expected, atol=1e-12)


def test_minnorm_rejects_infeasible_point():
    inst = make_general_instance(3, 1, 2, neg_eigs=1, seed=3)
    far = inst.meta["x_feas"] + 100.0
    with pytest.raises(ValueError):
        certificate_minnorm(inst, far, np.zeros(1))


def _box_minnorm_reference(inst, x, y):
    """Reference cert_norm of certificate_minnorm on a box: the candidate
    normals are collected coordinate by coordinate from the near-active
    finite bounds, at the same tolerance, 1e-7 (1 + max|finite bound|)."""
    P, n = inst.polyhedron, inst.n
    finite = np.concatenate([P.hi[np.isfinite(P.hi)], P.lo[np.isfinite(P.lo)]])
    tol = 1e-7 * (1.0 + float(np.max(np.abs(finite), initial=0.0)))
    cols = []
    for i in range(n):
        if np.isfinite(P.hi[i]) and x[i] >= P.hi[i] - tol:
            cols.append(np.eye(n)[i])
        if np.isfinite(P.lo[i]) and x[i] <= P.lo[i] + tol:
            cols.append(-np.eye(n)[i])
    g0 = inst.grad_f(x) + inst.eq_matrix.T @ y
    if not cols:
        return float(np.linalg.norm(g0))
    N = np.array(cols).T
    mu, _ = nnls(N, -g0)
    return float(np.linalg.norm(g0 + N @ mu))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000),
       coords=st.lists(st.tuples(st.sampled_from(["two-sided", "lo", "hi", "free", "pinned"]),
                                 st.sampled_from(["at lo", "at hi", "near lo", "near hi",
                                                  "off lo", "off hi", "inside"])),
                       min_size=1, max_size=6))
def test_minnorm_on_boxes_matches_per_coordinate_reference(seed, coords):
    rng = np.random.default_rng(seed)
    n = len(coords)
    lo = rng.uniform(-3.0, 3.0, n)
    hi = lo + rng.uniform(0.1, 3.0, n)
    for i, (bounds, _) in enumerate(coords):
        hi[i] = lo[i] if bounds == "pinned" else hi[i]
        lo[i] = -np.inf if bounds in ("hi", "free") else lo[i]
        hi[i] = np.inf if bounds in ("lo", "free") else hi[i]
    finite = np.concatenate([lo[np.isfinite(lo)], hi[np.isfinite(hi)]])
    # inside the active tolerance 1e-7 s of a bound (near), or outside it but
    # inside 1e-7 s^2 once s = 1 + max|bound| > 2 (off)
    scale = 1.0 + float(np.max(np.abs(finite), initial=0.0))
    offset = {"near": 0.5e-7 * scale, "off": 2e-7 * scale, "at": 0.0}
    x = np.zeros(n)
    for i, (_, where) in enumerate(coords):
        kind, _, side = where.partition(" ")
        move = offset.get(kind, 0.0) if lo[i] < hi[i] else 0.0
        if np.isfinite(lo[i]) and side == "lo":
            x[i] = lo[i] + move
        elif np.isfinite(hi[i]) and side == "hi":
            x[i] = hi[i] - move
        elif np.isfinite(lo[i]) and np.isfinite(hi[i]):
            x[i] = 0.5 * (lo[i] + hi[i])
        elif np.isfinite(lo[i]) or np.isfinite(hi[i]):   # one-sided, inside
            x[i] = lo[i] + 1.0 if np.isfinite(lo[i]) else hi[i] - 1.0
    Q = rng.standard_normal((n, n))
    inst = ProblemInstance(objective=QuadraticObjective(Q + Q.T, rng.standard_normal(n)),
                           lipschitz_grad=1.0, eq_matrix=rng.standard_normal((1, n)),
                           eq_rhs=np.zeros(1), polyhedron=Box(lo, hi))
    y = rng.standard_normal(1)
    rep = certificate_minnorm(inst, x, y)
    assert rep.cert_norm == pytest.approx(_box_minnorm_reference(inst, x, y),
                                          rel=1e-12, abs=1e-12)


def test_minnorm_scales_the_active_tolerance_once():
    # f(x) = -x on [0, 1000]: s = 1001, so a bound is near-active within 1e-7 s
    inst = ProblemInstance(objective=QuadraticObjective(np.zeros((1, 1)), np.array([-1.0])),
                           lipschitz_grad=0.0, eq_matrix=np.zeros((1, 1)), eq_rhs=np.zeros(1),
                           polyhedron=Box(np.zeros(1), np.array([1000.0])))
    y = np.zeros(1)
    assert certificate_minnorm(inst, np.array([999.95]), y).cert_norm == 1.0
    assert certificate_minnorm(inst, np.array([1000.0 - 0.5e-4]), y).cert_norm == 0.0
    assert certificate_minnorm(inst, np.array([1000.0]), y).cert_norm == 0.0
    with pytest.raises(ValueError):
        certificate_minnorm(inst, np.array([1000.0 + 2e-4]), y)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_minnorm_never_exceeds_step_certificate(seed):
    inst = make_box_instance(4, 2, 1, seed)
    params, _ = plan_stepsizes(inst, "practical")
    rng = np.random.default_rng(seed)
    st0 = IterateState(inst.polyhedron.clip(rng.standard_normal(4)),
                       rng.standard_normal(2),
                       inst.polyhedron.clip(rng.standard_normal(4)))
    st1 = sprox_alm_step(inst, st0, params)
    step_rep = certificate_from_step(inst, st0.x, st1, st0.z, params)
    mn_rep = certificate_minnorm(inst, st1.x, st1.y)
    assert mn_rep.cert_norm <= step_rep.cert_norm + 1e-8


# ---------------------------------------------------------------- potential

def test_potential_golden_parts():
    inst = fixed_instance_1d()
    st0 = IterateState(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    phi, (K, d, P) = potential_value(inst, st0, PARAMS_1D, tol=1e-12)
    assert K == pytest.approx(1.0, abs=1e-14)
    assert d == pytest.approx(0.6, abs=1e-11)
    assert P == pytest.approx(1.5, abs=1e-11)
    assert phi == pytest.approx(2.8, abs=1e-12)


def test_potential_equals_objective_at_primal_dual_fixed_point():
    inst = fixed_instance_1d()
    st0 = IterateState(np.zeros(1), np.zeros(1), np.zeros(1))
    phi, (K, d, P) = potential_value(inst, st0, PARAMS_1D, tol=1e-12)
    assert phi == pytest.approx(inst.f(np.zeros(1)), abs=1e-11)
    assert K == pytest.approx(d, abs=1e-11) and P == pytest.approx(d, abs=1e-11)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_potential_part_inequalities(seed):
    # K >= d by definition of the min; P >= d by weak duality; phi >= P >= flow
    inst = make_box_instance(4, 2, 1, seed)
    params, _ = plan_stepsizes(inst, "practical")
    rng = np.random.default_rng(seed)
    st0 = IterateState(inst.polyhedron.clip(rng.standard_normal(4)),
                       rng.standard_normal(2),
                       inst.polyhedron.clip(rng.standard_normal(4)))
    phi, (K, d, P) = potential_value(inst, st0, params, tol=1e-11)
    assert K >= d - 1e-9
    assert P >= d - 1e-9
    assert phi >= P - 1e-9


# ---------------------------------------------------- descent inequalities

def test_descent_lemmas_hold_on_theoretical_run():
    inst = make_box_instance(4, 2, 1, seed=12)
    params, _ = plan_stepsizes(inst, "theoretical", exact_limit=12)
    st0 = IterateState(inst.polyhedron.clip(np.zeros(4)), np.zeros(2),
                       inst.polyhedron.clip(np.zeros(4)))
    for _ in range(5):
        st1 = sprox_alm_step(inst, st0, params)
        out = check_step_inequalities(inst, st0, st1, params, tol=1e-11)
        for name, (lhs, rhs, ok) in out.items():
            assert ok, f"{name}: lhs={lhs} rhs={rhs}"
        st0 = st1


def test_monitor_computes_one_potential_per_state(monkeypatch):
    calls = []
    potential = diagnostics.potential_value

    def counted(*args, **kwargs):
        calls.append(1)
        return potential(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "potential_value", counted)
    inst = fixed_instance_1d()
    params, _ = plan_stepsizes(inst, "theoretical")
    ctx = MonitorContext(inst, params)
    st0 = st = IterateState(np.array([0.8]), np.zeros(1), np.array([0.8]))
    n = 5
    for _ in range(n):
        st1 = sprox_alm_step(inst, st, params)
        assert ctx.check_step(st, st1)["descent_ok"]
        st = st1
    assert len(calls) == n + 1
    # a check whose state t is not the last state t+1 computes both potentials
    ctx.check_step(st0, sprox_alm_step(inst, st0, params))
    assert len(calls) == n + 3


def test_monitor_context_checks_descent_and_bounds():
    inst = fixed_instance_1d()
    params, _ = plan_stepsizes(inst, "theoretical")
    ctx = MonitorContext(inst, params)
    st0 = IterateState(np.array([0.8]), np.zeros(1), np.array([0.8]))
    st1 = sprox_alm_step(inst, st0, params)
    out = ctx.check_step(st0, st1)
    assert out["descent_ok"]
    assert out["lower_bound_ok"]
    assert out["step_error_bound_ok"]
    assert out["decrease"] >= 0


# ------------------------------------------------------- dual error bound

def test_error_bound_golden_instance_ratio_one():
    inst = fixed_instance_1d()
    params, rep = plan_stepsizes(inst, "theoretical")
    out = verify_dual_error_bound(inst, params, n_samples=50, rng_seed=3,
                                  sigma5_bar=rep.sigma5_bar)
    # closed form: x(y,z) = (pz - y)/5, xbar*(z) = 0, residual = x(y,z)
    assert out.passed and out.violations == 0
    assert out.max_ratio == pytest.approx(1.0, rel=1e-6)
    assert out.bound == pytest.approx(13 * np.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("error, raised", [
    (TypeError("bug in the inner solve"), TypeError),           # a bug propagates
    (ConvergenceError("inner check failed"), RuntimeError),     # every sample skipped
])
def test_error_bound_skips_only_solver_failures(monkeypatch, error, raised):
    def failing_inner_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(diagnostics, "inner_minimize_K", failing_inner_solve)
    inst = fixed_instance_1d()
    params, rep = plan_stepsizes(inst, "theoretical")
    with pytest.raises(raised):
        verify_dual_error_bound(inst, params, n_samples=5, rng_seed=0,
                                sigma5_bar=rep.sigma5_bar)


def test_error_bound_zero_residual_consistency():
    inst = fixed_instance_1d()
    params, rep = plan_stepsizes(inst, "theoretical")
    # y chosen optimal for the prox problem at z: x(y, z) = xbar*(z) exactly
    z = np.array([0.4])
    from sproxalm.solvers import solve_constrained_strongly_convex

    prox = solve_constrained_strongly_convex(inst, z, params, tol=1e-12)
    from sproxalm.solvers import inner_minimize_K

    xi = inner_minimize_K(inst, prox.y, z, params, tol=1e-12)
    assert np.linalg.norm(xi - prox.x) < 1e-9
    assert np.linalg.norm(inst.eq_matrix @ xi - inst.eq_rhs) < 1e-9


def test_error_bound_random_instance_within_sigma5():
    inst = make_box_instance(5, 2, 2, seed=21)
    params, rep = plan_stepsizes(inst, "theoretical", exact_limit=15)
    assert rep.theta_exact
    out = verify_dual_error_bound(inst, params, n_samples=100, rng_seed=1,
                                  sigma5_bar=rep.sigma5_bar)
    assert out.passed and out.violations == 0
    assert out.max_ratio <= rep.sigma5_bar


def test_instance_owns_one_proximal_factorisation(monkeypatch):
    # criterion 3's (6, 2, 5) halfspace shape
    inst = make_general_instance(6, 2, 5, neg_eigs=2, seed=63)
    params, rep = plan_stepsizes(inst, "theoretical", exact_limit=20)
    built = []
    init = StronglyConvexQP.__init__

    def counted(self, H, *args):
        built.append(np.array(H))
        init(self, H, *args)

    monkeypatch.setattr(StronglyConvexQP, "__init__", counted)
    run = dataclasses.replace(params, max_iters=20, target_eps=0.0, monitor_level="full")
    assert sprox_alm_run(inst, run).monitor["checks"] == 20
    first = verify_dual_error_bound(inst, params, n_samples=5, rng_seed=2,
                                    sigma5_bar=rep.sigma5_bar)
    # the nearest-point QP of the polyhedron, one proximal QP and one K QP, nothing else
    n, A = inst.n, inst.eq_matrix
    assert len(built) == 3
    assert sum(np.array_equal(H, np.eye(n)) for H in built) == 1
    assert sum(np.array_equal(H, inst.objective.Q + params.p * np.eye(n)) for H in built) == 1
    H_K = inst.objective.Q + params.rho * (A.T @ A) + params.p * np.eye(n)
    assert sum(np.array_equal(H, H_K) for H in built) == 1
    qp, inner = inst.prox_qp(params.p), inst.inner_qp(params.rho, params.p)
    assert qp._passive is not None   # the next solve hot-starts
    second = verify_dual_error_bound(inst, params, n_samples=5, rng_seed=2,
                                     sigma5_bar=rep.sigma5_bar)
    assert len(built) == 3 and inst.prox_qp(params.p) is qp
    assert inst.inner_qp(params.rho, params.p) is inner
    assert second.to_dict() == first.to_dict()
    assert np.array_equal(second.worst.y, first.worst.y)
    assert np.array_equal(second.worst.z, first.worst.z)
    assert second.worst.ratio == first.worst.ratio
    # a replaced instance is a new instance, with a cache of its own
    other = dataclasses.replace(inst, lower_bound=-1e3, lower_bound_kind="estimate")
    assert other.prox_qp(params.p) is not qp and len(built) == 4
    assert other.inner_qp(params.rho, params.p) is not inner and len(built) == 5


def test_monitor_solves_each_repeated_subproblem_once(monkeypatch):
    # criteria 1-2's seed-1000 box: beta = 9.8e-38 moves z by about 1e-35 from
    # 0, below the rounding of the linear terms, so every solve sees the same z.
    # Then x(y+, z_t) repeats x(y+, z_{t+1}) and P(z_{t+1}) repeats P(z_t), and
    # only the first of each reaches the factorisation.  Once beta moves z
    # (ROADMAP item 13) this premise fails, and so does the count.
    inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=1000)
    params, _ = plan_stepsizes(inst, "theoretical", exact_limit=30)
    run = dataclasses.replace(params, max_iters=300, target_eps=0.0, trace_every=1,
                              monitor_level="full")
    calls, solved = [], []
    solve, real = StronglyConvexQP.solve, StronglyConvexQP._solve

    def counted(self, c, b=None):
        calls.append((self, np.array(c)))
        return solve(self, c, b)

    def counted_real(self, c, b):
        solved.append(1)
        return real(self, c, b)

    monkeypatch.setattr(StronglyConvexQP, "solve", counted)
    monkeypatch.setattr(StronglyConvexQP, "_solve", counted_real)
    res = sprox_alm_run(inst, run)
    checks = res.monitor["checks"]
    assert checks == 300 and res.monitor["phi_monotone_violations"] == 0
    prox = [c for qp, c in calls if qp is inst.prox_qp(params.p)]
    assert len(prox) == checks + 1
    assert all(np.array_equal(c, prox[0]) for c in prox)   # the premise
    assert len(calls) == 3 * checks + 2
    assert len(solved) == checks + 2


# ----------------------------------------------------------- hoffman check

def test_hoffman_check_1d_inequality_equality_case():
    out = verify_hoffman(np.array([[1.0]]), np.array([1.0]), None, None,
                         theta=1.0, n_points=50, rng_seed=0)
    assert out.passed
    assert out.near_tightness == pytest.approx(1.0, rel=1e-9)


def test_hoffman_check_scaled_equality_row():
    # S = {2x = 0}: dist^2 = x^2, residual^2 = 4x^2, theta = 0.25 is tight
    out = verify_hoffman(None, None, np.array([[2.0]]), np.array([0.0]),
                         theta=0.25, n_points=50, rng_seed=1)
    assert out.passed
    assert out.near_tightness == pytest.approx(1.0, rel=1e-9)


def test_hoffman_check_interior_points_contribute_nothing():
    out = verify_hoffman(np.array([[1.0]]), np.array([100.0]), None, None,
                         theta=1.0, n_points=20, rng_seed=2)
    assert out.passed and out.max_ratio == 0.0


def test_hoffman_check_checks_points_in_the_set(tmp_path, capsys, monkeypatch):
    # S = R^2, and a set that holds every sampled point: each point has zero
    # residual, so its nearest point must be itself, and is checked
    system = tmp_path / "sys.json"
    system.write_text('{"n": 2}')
    assert main(["verify-hoffman", "--system", str(system), "--points", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["samples"] == 3 and out["pass"] and out["max_ratio"] == 0.0
    inside = (np.array([[1.0, 0.0]]), np.array([100.0]), None, None)
    assert verify_hoffman(*inside, theta=1.0, n_points=20, rng_seed=2).passed
    # a wrong nearest point fails, though the residual is zero
    solve = StronglyConvexQP.solve
    monkeypatch.setattr(StronglyConvexQP, "solve",
                        lambda self, c, b=None: tuple(a + 1.0 for a in solve(self, c, b)))
    assert main(["verify-hoffman", "--system", str(system), "--points", "3"]) == 1
    assert not json.loads(capsys.readouterr().out)["pass"]
    out = verify_hoffman(*inside, theta=1.0, n_points=20, rng_seed=2)
    assert not out.passed and out.max_ratio == 0.0


def test_hoffman_check_infeasible_system_raises():
    from sproxalm.exceptions import InfeasibleError

    C1 = np.vstack([np.eye(1), -np.eye(1)])
    b1 = np.array([1.0, -2.0])
    with pytest.raises(InfeasibleError):
        verify_hoffman(C1, b1, None, None, theta=1.0, n_points=5, rng_seed=0)


def test_hoffman_check_matches_enumeration_reference():
    # criterion 4's systems, every distance recomputed by active-set
    # enumeration at the same sampled points
    from sproxalm.constants import hoffman_theta_exact
    from tests.test_acceptance import _random_system

    for i in range(50):
        C1, b1, C2, b2 = _random_system(i)
        theta = hoffman_theta_exact(np.vstack([C2, C1]))
        out = verify_hoffman(C1, b1, C2, b2, theta, n_points=40, rng_seed=400 + i)
        rng = np.random.default_rng(400 + i)
        ratios = [0.0]
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-0.5, 1.0)
            xbar = scale * rng.standard_normal(C1.shape[1])
            dist = project_polyhedron_exact(C1, b1, C2, b2, xbar)[1]
            res2 = np.sum(np.maximum(C1 @ xbar - b1, 0.0) ** 2) + np.sum((C2 @ xbar - b2) ** 2)
            if res2 > 1e-300:
                ratios.append(dist ** 2 / res2)
        assert out.max_ratio == pytest.approx(max(ratios), rel=1e-9, abs=1e-12)
        assert out.near_tightness == pytest.approx(max(ratios) / theta, rel=1e-9, abs=1e-12)
        assert out.passed


# ----------------------------------------------------- segment decomposition

def test_segment_zero_residual_single_segment():
    inst = make_general_instance(3, 1, 2, neg_eigs=0, seed=6)
    params, _ = plan_stepsizes(inst, "practical")
    g = regularized_quadratic_instance(inst, params, inst.meta["x_feas"])
    # y_tilde = prox multiplier makes x(y) feasible: residual segment is a point
    from sproxalm.solvers import solve_constrained_strongly_convex

    prox = solve_constrained_strongly_convex(inst, inst.meta["x_feas"], params, tol=1e-12)
    seg = trace_segment_decomposition(g, prox.y, grid_size=31)
    assert np.linalg.norm(seg.r_tilde) < 1e-8
    assert len(seg.breakpoints) == 0
    assert len(seg.active_sets_observed) == 1


def test_segment_unconstrained_path_is_linear():
    # strongly convex 1-D with no inequality rows: x*(r) = r exactly
    obj = QuadraticObjective(np.array([[4.0]]), np.array([-3.0]), offset=1.5)
    g = ProblemInstance(objective=obj, lipschitz_grad=4.0,
                        eq_matrix=np.array([[1.0]]), eq_rhs=np.array([0.0]),
                        polyhedron=Box(np.array([-np.inf]), np.array([np.inf])))
    seg = trace_segment_decomposition(g, np.array([2.0]), grid_size=41)
    assert len(seg.breakpoints) == 0
    xs = np.array([pt.x[0] for pt in seg.grid])
    ss = np.array([pt.s for pt in seg.grid])
    r = seg.r_tilde[0]
    assert np.allclose(xs, ss * r, atol=1e-9)
    assert seg.lipschitz_ok


def test_segment_box_instance_with_breakpoint():
    # min (x1-2)^2 + (x2-2)^2 over [0,1]^2 relaxed along A x = b + s r
    obj = QuadraticObjective(2 * np.eye(2), np.array([-4.0, -4.0]), offset=4.0)
    g = ProblemInstance(objective=obj, lipschitz_grad=2.0,
                        eq_matrix=np.array([[1.0, -1.0]]), eq_rhs=np.array([0.0]),
                        polyhedron=Box(np.zeros(2), np.ones(2)))
    seg = trace_segment_decomposition(g, np.array([-3.0]), grid_size=201)
    assert seg.telescoped_sum == pytest.approx(np.linalg.norm(seg.r_tilde), abs=1e-10)
    assert seg.lipschitz_ok
    assert len(seg.active_sets_observed) <= 2 ** 4
    # triangle composition across the whole path
    total = sum(np.linalg.norm(b.x - a.x) for a, b in zip(seg.grid[:-1], seg.grid[1:]))
    assert np.linalg.norm(seg.grid[-1].x - seg.grid[0].x) <= total + 1e-12


def _segment_case(seed):
    """A small box or halfspace instance, regularized at its feasible point,
    and a multiplier y_tilde."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, n))
    if seed % 2:
        inst = make_box_instance(n, m, 1, seed)
    else:
        inst = make_general_instance(n, m, int(rng.integers(1, 5)), neg_eigs=1, seed=seed)
    L_f = inst.lipschitz_grad
    params = SolverParams(rho=L_f, p=3.0 * L_f, c=0.1 / L_f, alpha=0.1, beta=0.01)
    g = regularized_quadratic_instance(inst, params, inst.meta["x_feas"])
    return g, 10.0 ** rng.uniform(0.0, 2.0) * rng.standard_normal(m)


@settings(max_examples=20, deadline=None)
@given(case=st.integers(0, 10_000).map(_segment_case))
# x(y_tilde) at a box vertex: the QP at s = 1 is feasible only to roundoff
@example(case=_segment_case(77))
def test_segment_points_match_active_set_reference(case):
    g, y_tilde = case
    seg = trace_segment_decomposition(g, y_tilde, grid_size=11)
    Q, q = g.objective.Q, g.objective.q
    A, b = g.eq_matrix, g.eq_rhs
    G, h = g.polyhedron.as_halfspaces()
    active_tol = 1e-9 * (1.0 + np.max(np.abs(h)))
    for pt in seg.grid:
        ref = solve_qp_active_set(Q, q, A, b + pt.s * seg.r_tilde, G, h)
        assert np.allclose(pt.x, ref.x, rtol=0.0, atol=1e-9)
        assert pt.active == frozenset(np.flatnonzero(G @ ref.x - h >= -active_tol).tolist())


def test_segment_multiplier_set_distance_bound():
    inst = make_box_instance(3, 1, 1, seed=30)
    params, _ = plan_stepsizes(inst, "practical")
    g = regularized_quadratic_instance(inst, params, inst.meta["x_feas"])
    seg = trace_segment_decomposition(g, np.array([1.5]), grid_size=51)
    H = g.objective.Q
    ev = np.linalg.eigvalsh(H)
    for a, b in zip(seg.grid[:-1], seg.grid[1:]):
        if a.active != b.active:
            continue
        dr = abs(b.s - a.s) * np.linalg.norm(seg.r_tilde)
        if dr < 1e-12:
            continue
        dist = multiplier_set_distance(g, b.y, b.mu, a.x, a.active)
        lhs = dist + np.linalg.norm(a.x - b.x)
        assert lhs <= seg.sigma5 * dr * (1 + 1e-6) + 1e-9
