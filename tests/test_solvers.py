import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sproxalm.constants import SolverParams, plan_stepsizes
from sproxalm.exceptions import ConvergenceError, DivergenceError
from sproxalm.oracles import solve_constrained_qp_oracle
from sproxalm.problem import (Box, ProblemInstance, QuadraticObjective,
                              fixed_instance_1d, generate_nonconvex_qp)
from sproxalm import solvers
from sproxalm.projection import StronglyConvexQP, project
from sproxalm.solvers import (IterateState, ProxSolution, Trace, _norm, alm_run,
                              inner_minimize_K, solve_constrained_strongly_convex,
                              sprox_alm_run, sprox_alm_step)
from tests.conftest import make_box_instance, make_general_instance

PARAMS_1D = SolverParams(rho=1.0, p=3.0, c=0.1, alpha=0.05, beta=0.03)


# ------------------------------------------------------------- inner solve

def test_inner_minimize_closed_form_1d():
    inst = fixed_instance_1d()
    x = inner_minimize_K(inst, np.array([0.05]), np.array([1.0]), PARAMS_1D, tol=1e-13)
    assert x[0] == pytest.approx(2.95 / 5.0, abs=1e-12)   # (p z - y)/(1 + rho + p)


def test_inner_minimize_symmetric_minimum():
    inst = fixed_instance_1d()
    x = inner_minimize_K(inst, np.array([0.0]), np.array([0.0]), PARAMS_1D, tol=1e-13)
    assert abs(x[0]) < 1e-13


def test_inner_minimize_deterministic_resolve():
    inst = make_general_instance(4, 2, 3, neg_eigs=1, seed=5)
    params, _ = plan_stepsizes(inst, "practical")
    y = np.array([0.3, -0.2])
    z = np.ones(4) * 0.1
    a = inner_minimize_K(inst, y, z, params, tol=1e-12)
    b = inner_minimize_K(inst, y, z, params, tol=1e-12)
    assert np.linalg.norm(a - b) < 1e-10


def test_inner_minimize_requires_convexifying_p():
    inst = fixed_instance_1d()
    bad = SolverParams(rho=1.0, p=0.5, c=0.01, alpha=0.01, beta=0.01)
    with pytest.raises(ValueError):
        inner_minimize_K(inst, np.zeros(1), np.zeros(1), bad)


# ------------------------------------------------- constrained prox solve

def test_prox_solve_golden_1d():
    inst = fixed_instance_1d()
    x, val = solve_constrained_strongly_convex(inst, np.array([1.0]), PARAMS_1D, tol=1e-12)
    assert abs(x[0]) < 1e-10
    assert val == pytest.approx(1.5, abs=1e-11)
    x, val = solve_constrained_strongly_convex(inst, np.array([0.0]), PARAMS_1D, tol=1e-12)
    assert abs(x[0]) < 1e-12 and abs(val) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), box=st.booleans())
def test_prox_solve_matches_enumeration_oracle(seed, box):
    # general polyhedra with n <= 8 and l <= 5 rows, unit boxes with n <= 6
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7 if box else 9))
    m = int(rng.integers(1, n))
    neg_eigs = int(rng.integers(0, min(3, n)))
    if box:
        inst = make_box_instance(n, m, neg_eigs, seed)
    else:
        inst = make_general_instance(n, m, int(rng.integers(1, 6)), neg_eigs, seed)
    L_f = inst.lipschitz_grad
    params = SolverParams(rho=L_f, p=3.0 * L_f, c=0.1, alpha=0.1, beta=0.1)
    z = rng.standard_normal(n)
    x, val = solve_constrained_strongly_convex(inst, z, params, tol=1e-11)
    oracle = solve_constrained_qp_oracle(inst, z, params.p)
    assert np.linalg.norm(x - oracle.x) <= 1e-9
    oracle_val = inst.f(oracle.x) + 0.5 * params.p * float(np.sum((oracle.x - z) ** 2))
    assert val == pytest.approx(oracle_val, rel=1e-9, abs=1e-9)


def test_prox_solve_infeasible_solution_raises_with_best(monkeypatch):
    # a solution missing Ax = b by more than tol (1 + ||b||) is reported, not returned
    def off_by_half(self, c):
        return np.array([0.5]), np.zeros(1), np.zeros(0)

    monkeypatch.setattr(StronglyConvexQP, "solve", off_by_half)
    with pytest.raises(ConvergenceError) as err:
        solve_constrained_strongly_convex(fixed_instance_1d(), np.array([1.0]), PARAMS_1D,
                                          tol=1e-10)
    best = err.value.best
    assert isinstance(best, ProxSolution)
    assert best.x[0] == 0.5 and best.eq_residual == 0.5 and err.value.residual == 0.5
    assert best.value == pytest.approx(0.125 + 1.5 * 0.25)   # f(x) + (p/2)(x - z)^2


# ------------------------------------------------------------ ALM baseline

def test_alm_converges_on_strongly_convex_1d():
    # g(x) = x^2/2 + 1.5 (x-1)^2 with feasible set {0}
    obj = QuadraticObjective(np.array([[4.0]]), np.array([-3.0]), offset=1.5)
    inst = ProblemInstance(objective=obj, lipschitz_grad=4.0,
                           eq_matrix=np.array([[1.0]]), eq_rhs=np.array([0.0]),
                           polyhedron=Box(np.array([-np.inf]), np.array([np.inf])))
    params = SolverParams(rho=1.0, p=5.0, c=0.01, alpha=0.1, beta=0.5,
                          max_iters=500, target_eps=1e-10)
    out = alm_run(inst, params)
    assert out.converged and not out.heuristic
    assert abs(out.state.x[0]) < 1e-8


def test_alm_zero_dual_update_at_feasible_start():
    obj = QuadraticObjective(np.array([[1.0]]), np.array([0.0]))
    inst = ProblemInstance(objective=obj, lipschitz_grad=1.0,
                           eq_matrix=np.array([[1.0]]), eq_rhs=np.array([0.0]),
                           polyhedron=Box(np.array([-np.inf]), np.array([np.inf])))
    params = SolverParams(rho=1.0, p=3.0, c=0.1, alpha=0.1, beta=0.5,
                          max_iters=3, target_eps=1e-12)
    out = alm_run(inst, params)   # starts at x = 0, y = 0
    assert abs(out.state.y[0]) < 1e-10   # optimal multiplier for x* = 0 is y* = 0


def test_alm_zero_iterations_returns_the_start():
    inst = fixed_instance_1d()
    params = SolverParams(rho=1.0, p=3.0, c=0.1, alpha=0.1, beta=0.5, max_iters=0)
    out = alm_run(inst, params)
    assert out.state.t == 0 and len(out.trace) == 0 and not out.converged
    assert np.array_equal(out.state.x, inst.polyhedron.clip(np.zeros(1)))
    assert np.array_equal(out.state.y, np.zeros(1))


def test_alm_flags_nonconvex_as_heuristic():
    inst = generate_nonconvex_qp(n=4, m=1, neg_eigs=2, rng_seed=0)
    params, _ = plan_stepsizes(inst, "practical")
    params.max_iters = 20
    params.target_eps = 1e-8
    out = alm_run(inst, params)
    assert out.heuristic
    assert len(out.trace) > 0


def test_alm_divergence_guard_on_infeasible_system():
    # b outside A*P forces the multiplier to run away
    obj = QuadraticObjective(np.array([[1.0]]), np.array([0.0]))
    inst = ProblemInstance(objective=obj, lipschitz_grad=1.0,
                           eq_matrix=np.array([[1.0]]), eq_rhs=np.array([5.0]),
                           polyhedron=Box(np.array([0.0]), np.array([1.0])))
    params = SolverParams(rho=1e9, p=3.0, c=0.1, alpha=0.1, beta=0.5,
                          max_iters=10_000, target_eps=1e-12)
    with pytest.raises(DivergenceError):
        alm_run(inst, params)


def test_alm_unbounded_inner_problem_raises_divergence():
    # the inner projected gradient of this nonconvex ALM run is unbounded below on P
    inst = make_general_instance(6, 2, 4, neg_eigs=2, seed=63)
    params, _ = plan_stepsizes(inst, "practical")
    params.target_eps = 1e-8
    params.max_iters = 40
    with pytest.raises(DivergenceError):
        alm_run(inst, params)


def test_inner_divergence_carries_last_iterate_in_P():
    inst = make_general_instance(6, 2, 4, neg_eigs=2, seed=63)
    params, _ = plan_stepsizes(inst, "practical")
    params.target_eps = 1e-8
    params.max_iters = 40
    with pytest.raises(DivergenceError, match="inner projected gradient") as info:
        alm_run(inst, params)
    x = info.value.state
    assert isinstance(x, np.ndarray) and x.shape == (inst.n,)
    assert np.all(np.isfinite(x)) and np.linalg.norm(x) <= 1e12
    # in P up to the rounding of a point of norm near 1e12
    G, h = inst.polyhedron.as_halfspaces()
    assert np.max(G @ x - h) <= 1e-12 * np.linalg.norm(x)


def test_alm_capped_inner_loop_reports_the_residual_of_its_point(monkeypatch):
    # curvature 1e-6 along x2: each inner step moves x2 by 1/L_in and leaves
    # the residual near 1, so every inner loop ends at the cap
    monkeypatch.setattr(solvers, "_INNER_STEPS", 50)
    Q, q = np.diag([1.0, 1e-6]), np.array([0.0, -1.0])
    A, b = np.array([[1.0, 0.0]]), np.array([0.5])
    inst = ProblemInstance(objective=QuadraticObjective(Q, q), lipschitz_grad=1.0,
                           eq_matrix=A, eq_rhs=b,
                           polyhedron=Box(np.full(2, -1e7), np.full(2, 1e7)))
    L_in = float(np.linalg.eigvalsh(Q + A.T @ A)[-1])
    y = np.zeros(1)   # the multiplier of the last outer step of each run
    for iters in (1, 2, 3):
        params = SolverParams(rho=1.0, p=3.0, c=0.1, alpha=0.1, beta=0.5,
                              max_iters=iters, target_eps=1e-9)
        out = alm_run(inst, params)
        x = out.state.x
        g = Q @ x + q + A.T @ y + A.T @ (A @ x - b)
        res = L_in * np.linalg.norm(x - np.clip(x - g / L_in, -1e7, 1e7))
        assert 0.5 < res and out.trace.column("cert_norm")[-1] == pytest.approx(res, rel=1e-12)
        y = out.state.y


def _reference_alm(inst, params, cap):
    """The ALM baseline in plain numpy: steps of 1/L_in along the gradient
    of f + y'(Ax - b) + (rho/2)||Ax - b||^2, projected onto P, until the
    residual L_in ||x - x+|| reaches the tolerance or cap steps are taken.
    Returns (trace rows, x, y, iterations, converged, heuristic)."""
    Q, q, A, b, P = (inst.objective.Q, inst.objective.q, inst.eq_matrix, inst.eq_rhs,
                     inst.polyhedron)
    rho, tol = params.rho, max(params.target_eps, 1e-10)
    ev = np.linalg.eigvalsh(Q + rho * (A.T @ A))
    L_in = float(ev[-1])
    step = 1.0 / max(L_in, 1e-12)
    proj = P.clip if isinstance(P, Box) else (lambda v: project(P, v))
    x, y, rows, converged = proj(np.zeros(inst.n)), np.zeros(inst.m), [], False
    for t in range(params.max_iters):
        x_prev = x
        for k in range(cap):
            x1 = proj(x - step * (Q @ x + q + A.T @ y + rho * (A.T @ (A @ x - b))))
            if not np.linalg.norm(x1) <= 1e12:
                raise DivergenceError("inner projected gradient diverged (iterate norm "
                                      "beyond 1e+12)", state=x)
            res = L_in * np.linalg.norm(x - x1)
            if res <= tol or k == cap - 1:
                break
            x = x1
        r = A @ x - b
        feas = np.linalg.norm(r)
        y = y + rho * r
        if np.linalg.norm(y) > 1e12 or np.linalg.norm(x) > 1e12:
            raise DivergenceError("ALM divergence (multiplier or iterate blow-up)",
                                  state=IterateState(x, y, x, t))
        f = 0.5 * float(x @ (Q @ x)) + float(q @ x) + inst.objective.offset
        rows.append((t, f, feas, res, np.linalg.norm(x - x_prev), 0.0))
        if feas <= tol * (1.0 + np.linalg.norm(b)) and res <= tol:
            converged = True
            break
    return rows, x, y, len(rows), converged, not ev[0] > 1e-12


@settings(max_examples=25, deadline=None)
@example(kind="box", n=4, m=1, l=2, neg_eigs=0, seed=3, iters=15)
@example(kind="box", n=5, m=2, l=2, neg_eigs=2, seed=4, iters=15)
@example(kind="halfspace", n=4, m=2, l=3, neg_eigs=0, seed=5, iters=15)
@example(kind="halfspace", n=5, m=1, l=4, neg_eigs=2, seed=6, iters=15)
@example(kind="halfspace", n=6, m=2, l=4, neg_eigs=2, seed=63, iters=15)   # diverges
@given(kind=st.sampled_from(["box", "halfspace"]), n=st.integers(3, 6), m=st.integers(1, 2),
       l=st.integers(2, 4), neg_eigs=st.integers(0, 2), seed=st.integers(0, 10_000),
       iters=st.integers(1, 15))
def test_alm_matches_a_plain_numpy_reference(kind, n, m, l, neg_eigs, seed, iters):
    if kind == "box":
        inst = make_box_instance(n, m, neg_eigs, seed)
    else:
        inst = make_general_instance(n, m, l, neg_eigs, seed)
    params, _ = plan_stepsizes(inst, "practical")
    params.max_iters, params.target_eps = iters, 1e-9

    def outcome(run):
        try:
            return run()
        except DivergenceError as exc:
            s = exc.state
            return DivergenceError, str(exc), (s,) if isinstance(s, np.ndarray) else (
                s.x, s.y, s.z, s.t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_INNER_STEPS", 300)
        out = outcome(lambda: alm_run(inst, params))
        ref = outcome(lambda: _reference_alm(inst, params, 300))
    if ref[0] is DivergenceError:
        assert out[:2] == ref[:2]
        assert all(np.array_equal(a, b) for a, b in zip(out[2], ref[2], strict=True))
        return
    rows, x, y, t, converged, heuristic = ref
    table = np.array(rows).reshape(-1, len(Trace.COLUMNS) - 2)
    for j, name in enumerate(Trace.COLUMNS[:-2]):
        assert np.array_equal(out.trace.column(name), table[:, j]), name
    assert np.array_equal(out.state.x, x) and np.array_equal(out.state.y, y)
    assert (out.state.t, out.converged, out.heuristic) == (t, converged, heuristic)


# -------------------------------------------------------------- sprox step

def test_step_worked_example_exact():
    inst = fixed_instance_1d()
    st0 = IterateState(x=np.array([1.0]), y=np.array([0.0]), z=np.array([1.0]))
    st1 = sprox_alm_step(inst, st0, PARAMS_1D)
    assert st1.y[0] == pytest.approx(0.05, abs=1e-15)
    assert st1.x[0] == pytest.approx(0.795, abs=1e-15)
    assert st1.z[0] == pytest.approx(0.99385, abs=1e-15)


def test_step_fixed_point_is_stationary():
    inst = fixed_instance_1d()
    st0 = IterateState(x=np.array([0.0]), y=np.array([0.0]), z=np.array([0.0]))
    st1 = sprox_alm_step(inst, st0, PARAMS_1D)
    assert st1.x[0] == 0.0 and st1.y[0] == 0.0 and st1.z[0] == 0.0


def test_step_beta_one_copies_x_into_z():
    inst = fixed_instance_1d()
    params = SolverParams(rho=1.0, p=3.0, c=0.1, alpha=0.05, beta=1.0)
    st1 = sprox_alm_step(inst, IterateState(np.array([1.0]), np.array([0.0]),
                                            np.array([1.0])), params)
    assert st1.z[0] == st1.x[0]


def test_step_dimension_check():
    inst = fixed_instance_1d()
    with pytest.raises(ValueError):
        sprox_alm_step(inst, IterateState(np.zeros(2), np.zeros(1), np.zeros(2)),
                       PARAMS_1D)


# --------------------------------------------------------------- sprox run

def test_run_reaches_kkt_on_golden_instance():
    inst = fixed_instance_1d()
    params, _ = plan_stepsizes(inst, "theoretical")
    params.max_iters = 10_000
    params.target_eps = 0.0
    res = sprox_alm_run(inst, params)
    assert res.best.eps <= 1e-4
    # brute-force KKT solution of the instance is (0, 0)
    assert abs(res.best.x[0]) < 1e-3


def test_run_zero_iterations_returns_initial_state():
    inst = fixed_instance_1d()
    params, _ = plan_stepsizes(inst, "theoretical")
    params.max_iters = 0
    res = sprox_alm_run(inst, params)
    assert res.state.t == 0
    assert len(res.trace) == 0 and res.best is None


def test_run_determinism_bitwise():
    inst = make_box_instance(6, 2, 2, seed=4)
    params, _ = plan_stepsizes(inst, "practical")
    params.max_iters = 300
    a = sprox_alm_run(inst, params)
    b = sprox_alm_run(inst, params)
    for col in Trace.COLUMNS:
        ca, cb = a.trace.column(col), b.trace.column(col)
        assert np.array_equal(ca, cb, equal_nan=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_iterates_stay_in_polyhedron(seed):
    inst = make_general_instance(3, 1, 3, neg_eigs=1, seed=seed)
    params, _ = plan_stepsizes(inst, "practical")
    params.max_iters = 50
    res = sprox_alm_run(inst, params)
    assert inst.polyhedron.contains(res.state.x, tol=1e-7)


def test_trace_csv_roundtrip(tmp_path):
    inst = make_box_instance(4, 2, 1, seed=9)
    params, _ = plan_stepsizes(inst, "practical")
    params.max_iters = 50
    res = sprox_alm_run(inst, params)
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,f,eq_res,cert_norm,dx,dz,phi,phi_ok"
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == res.trace.column("f")[0]   # repr round-trips
    assert first[6] == "" and first[7] == ""   # phi columns empty without monitors


def test_trace_grows_past_its_first_block(tmp_path):
    # 2,500 rows take the trace through two doublings of its storage
    n = 2500
    t = np.arange(n)
    eq = 1.0 / (1.0 + t) + 0.5 * (t % 7 == 3)   # decreasing, with bumps
    trace = Trace()
    for i in range(n):
        trace.append(i, float(-i), eq[i], 2.0 * eq[i] * (i % 2), float(i) + 0.25, 0.0)
    assert len(trace) == n
    assert np.array_equal(trace.column("t"), t)
    assert np.array_equal(trace.column("eq_res"), eq)
    assert np.array_equal(trace.column("dx"), t + 0.25)
    assert np.array_equal(trace.column("f"), -t.astype(float))
    # eps covers the rows written, not the storage behind them
    assert len(trace.eps()) == n
    assert np.array_equal(trace.eps(), np.where(t % 2 == 1, 2.0 * eq, eq))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1
    assert lines[-1].split(",")[:2] == [str(n - 1), repr(1.0 - n)]


def test_envelope_constant_on_small_run():
    # combined residual envelope: min over s <= t of the per-step quantities
    # is bounded by C/t with C = (phi0 - flow) * max(4c, 2/alpha, 3beta/p)
    inst = fixed_instance_1d()
    params, _ = plan_stepsizes(inst, "theoretical")
    params.max_iters = 400
    params.monitor_level = "none"
    from sproxalm.diagnostics import potential_value

    x0 = np.array([0.9])
    res = sprox_alm_run(inst, params, x0=x0)
    phi0, _ = potential_value(inst, IterateState(x0, np.zeros(1), x0.copy()), params,
                              tol=1e-12)
    flow = inst.lower_bound
    C = (phi0 - flow) * max(4 * params.c, 2 / params.alpha, 3 * params.beta / params.p)
    dx2 = res.trace.column("dx") ** 2
    dz2 = res.trace.column("dz") ** 2
    # replay the run to collect the inner equality residual at every step
    st = IterateState(x0.copy(), np.zeros(1), x0.copy())
    eq_inner2 = np.empty(len(res.trace))
    for t in range(len(res.trace)):
        st1 = sprox_alm_step(inst, st, params)
        xi = inner_minimize_K(inst, st1.y, st.z, params, tol=1e-11)
        eq_inner2[t] = np.sum((inst.eq_matrix @ xi - inst.eq_rhs) ** 2)
        st = st1
    worst = np.minimum.accumulate(np.maximum(np.maximum(dx2, dz2), eq_inner2))
    t = res.trace.column("t") + 1.0
    assert np.all(worst <= C / t + 1e-10)


def test_inner_minimize_failed_check_carries_best(monkeypatch):
    inst = make_box_instance(4, 2, 1, seed=17)
    params, _ = plan_stepsizes(inst, "practical")
    qp = inst.inner_qp(params.rho, params.p)
    solve = qp.solve

    def off_minimiser(c):   # a point of P between the minimiser and x_feas
        x, y, mu = solve(c)
        return 0.5 * (x + inst.meta["x_feas"]), y, mu

    monkeypatch.setattr(qp, "solve", off_minimiser)
    with pytest.raises(ConvergenceError) as err:
        inner_minimize_K(inst, np.ones(2), np.full(4, 0.3), params)
    assert err.value.best is not None and err.value.best.shape == (4,)
    assert err.value.residual > 1e-10


def _inner_case(seed):
    """A halfspace instance (n <= 8, l <= 5) or a unit box (n <= 6), K's
    weights rho and p > L_f, and a pair (y, z)."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        n = int(rng.integers(2, 7))
        inst = make_box_instance(n, int(rng.integers(1, n)), int(rng.integers(0, n)), seed)
    else:
        n = int(rng.integers(2, 9))
        inst = make_general_instance(n, int(rng.integers(1, n)), int(rng.integers(1, 6)),
                                     neg_eigs=int(rng.integers(0, n)), seed=seed)
    L_f = inst.lipschitz_grad
    params = SolverParams(rho=10.0 ** rng.uniform(-1.0, 1.0),
                          p=L_f * (1.0 + 10.0 ** rng.uniform(-1.0, 1.0)),
                          c=0.1 / L_f, alpha=0.1, beta=0.01)
    y = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(inst.m)
    z = inst.meta["x_feas"] + 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(n)
    return inst, params, y, z


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 10_000).map(_inner_case))
def test_inner_minimize_matches_active_set_oracle(case):
    from sproxalm.oracles import solve_qp_active_set

    inst, params, y, z = case
    A, b, rho, p = inst.eq_matrix, inst.eq_rhs, params.rho, params.p
    G, h = inst.polyhedron.as_halfspaces()
    H = inst.objective.Q + rho * (A.T @ A) + p * np.eye(inst.n)
    c = inst.objective.q + A.T @ (y - rho * b) - p * z
    ref = solve_qp_active_set(H, c, None, None, G, h).x
    x = inner_minimize_K(inst, y, z, params)   # the default tol: no example may raise
    assert np.linalg.norm(x - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))


# ------------------------------------------------------------- main loop

@settings(max_examples=300, deadline=None)
@given(v=hnp.arrays(np.float64, st.integers(0, 40),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_norm_equals_numpy_norm_bitwise(v):
    with np.errstate(over="ignore"):   # huge entries overflow to inf in both
        assert _norm(v) == float(np.linalg.norm(v))


def test_non_finite_gradient_names_its_iteration():
    inst = fixed_instance_1d()
    grad = inst.objective.grad
    calls = []

    def grad_nan_on_fourth_call(x):   # the start, then one call per iteration
        calls.append(1)
        return np.full_like(x, np.nan) if len(calls) == 4 else grad(x)

    inst.objective.grad = grad_nan_on_fourth_call
    params, _ = plan_stepsizes(inst, "practical")
    params.target_eps = 0.0
    with pytest.raises(FloatingPointError, match="non-finite gradient.* at iteration 3$"):
        sprox_alm_run(inst, params, x0=np.array([0.9]))
