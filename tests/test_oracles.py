from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sproxalm.exceptions import InfeasibleError
from sproxalm.oracles import (enumerate_kkt_points, exact_lower_bound_box_qp,
                              project_polyhedron_exact, solve_qp_active_set)
from sproxalm.problem import Box, ProblemInstance, QuadraticObjective
from tests.conftest import make_box_instance, random_quadratic


def test_active_set_solver_unconstrained_quadratic():
    # min 0.5 x'Ix - [1,2]'x over R^2 -> x = (1, 2)
    sol = solve_qp_active_set(np.eye(2), np.array([-1.0, -2.0]), None, None, None, None)
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-12)
    assert sol.active == frozenset()


def test_active_set_solver_matches_halfspace_formula():
    # projection of (1,1) onto {x1+x2 <= 1}
    sol = solve_qp_active_set(np.eye(2), -np.ones(2), None, None,
                              np.array([[1.0, 1.0]]), np.array([1.0]))
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-12)
    assert np.all(sol.mu >= 0)


def test_active_set_solver_rejects_singular_kkt_solutions():
    # Both bounds of one box coordinate make a singular KKT matrix that LU can
    # factor through roundoff; the huge multipliers it returns pass the sign and
    # bound checks while x misses Ax = b.  The true solution is the one kept.
    inst = make_box_instance(3, 1, 1, 1464)
    p = 3.0 * inst.lipschitz_grad
    z = np.array([0.14767840489927472, -0.07747568608098067, -1.0690917826803432])
    G, h = inst.polyhedron.as_halfspaces()
    c = inst.objective.q - p * z
    sol = solve_qp_active_set(inst.objective.Q + p * np.eye(3), c, inst.eq_matrix,
                              inst.eq_rhs, G, h)
    assert np.linalg.norm(inst.eq_matrix @ sol.x - inst.eq_rhs) < 1e-12
    assert np.linalg.norm(sol.x - inst.prox_qp(p).solve(c)[0]) < 1e-12


def test_active_set_solver_equality_plus_box_rows():
    # min 0.5||x||^2 s.t. x1 + x2 = 1, x <= 0.25 componentwise: pins both at 0.25? no:
    # equality forces sum 1 while each <= 0.25 makes it infeasible; use bound 0.75
    G = np.vstack([np.eye(2)])
    sol = solve_qp_active_set(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                              np.array([1.0]), G, np.array([0.75, 0.75]))
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-12)


def test_active_set_solver_detects_infeasible():
    G = np.vstack([np.eye(1), -np.eye(1)])
    h = np.array([1.0, -2.0])  # x <= 1 and x >= 2
    with pytest.raises(InfeasibleError):
        solve_qp_active_set(np.eye(1), np.zeros(1), None, None, G, h)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_projection_oracle_beats_grid(seed):
    # the exact projection is at least as close as any feasible grid point
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((3, 2))
    h = G @ rng.standard_normal(2) + rng.uniform(0.2, 1.0, 3)
    x = rng.standard_normal(2) * 2
    proj, dist = project_polyhedron_exact(G, h, None, None, x)
    assert np.all(G @ proj <= h + 1e-8)
    grid = np.stack(np.meshgrid(np.linspace(-4, 4, 81), np.linspace(-4, 4, 81)), -1).reshape(-1, 2)
    feas = grid[np.all(grid @ G.T <= h, axis=1)]
    if len(feas):
        grid_best = np.min(np.linalg.norm(feas - x, axis=1))
        assert dist <= grid_best + 1e-6


def test_exact_lower_bound_1d_concave():
    # f(x) = -x^2/2 on [0,1] with trivial equality 0 = 0: min at x = 1
    inst = ProblemInstance(
        objective=QuadraticObjective(np.array([[-1.0]]), np.array([0.0])),
        lipschitz_grad=1.0,
        eq_matrix=np.zeros((1, 1)), eq_rhs=np.zeros(1),
        polyhedron=Box(np.zeros(1), np.ones(1)),
    )
    val, x = exact_lower_bound_box_qp(inst)
    assert val == pytest.approx(-0.5, abs=1e-12)
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_exact_lower_bound_equality_slice():
    # f(x) = x1^2 - x2^2 over [0,1]^2 with x1 + x2 = 1: f(t) = t^2 - (1-t)^2 = 2t-1
    inst = ProblemInstance(
        objective=QuadraticObjective(np.diag([2.0, -2.0]), np.zeros(2)),
        lipschitz_grad=2.0,
        eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([1.0]),
        polyhedron=Box(np.zeros(2), np.ones(2)),
    )
    val, x = exact_lower_bound_box_qp(inst)
    assert val == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(x, [0.0, 1.0], atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_exact_lower_bound_dominates_feasible_samples(seed):
    inst = make_box_instance(4, 2, 2, seed)
    val, xmin = exact_lower_bound_box_qp(inst)
    assert inst.polyhedron.contains(xmin, tol=1e-8)
    assert np.linalg.norm(inst.eq_matrix @ xmin - inst.eq_rhs) < 1e-8
    # every sampled feasible point has f >= exact minimum
    rng = np.random.default_rng(seed + 1)
    x0 = inst.meta["x_feas"]
    _, _, vt = np.linalg.svd(inst.eq_matrix)
    null = vt[inst.m:]
    for _ in range(100):
        d = null.T @ rng.standard_normal(null.shape[0])
        t = 1.0
        x = x0 + t * d
        while not inst.polyhedron.contains(x, tol=0.0):
            t *= 0.5
            x = x0 + t * d
        assert inst.f(x) >= val - 1e-9


def test_kkt_enumeration_finds_stationary_point_of_example():
    # Q = diag(1, -1), A = [1 1], b = 1, box [0,1]^2: x* = (0, 1) is KKT
    inst = ProblemInstance(
        objective=QuadraticObjective(np.diag([1.0, -1.0]), np.zeros(2)),
        lipschitz_grad=1.0,
        eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([1.0]),
        polyhedron=Box(np.zeros(2), np.ones(2)),
    )
    pts = enumerate_kkt_points(inst)
    assert any(np.allclose(x, [0.0, 1.0], atol=1e-10) for x, _, _ in pts)
    for x, y, mu in pts:
        g = inst.grad_f(x) + inst.eq_matrix.T @ y
        # interior coordinates must have zero reduced gradient
        interior = (x > 1e-9) & (x < 1 - 1e-9)
        assert np.all(np.abs(g[interior]) < 1e-8)


# --------------------------------------------------------------------------
# per-face reference loops: one KKT solve for each of the 3^n faces
# --------------------------------------------------------------------------

def reference_lower_bound(inst, tol=1e-9):
    obj = inst.objective
    Q, q = obj.Q, obj.q
    A, b = inst.eq_matrix, inst.eq_rhs
    n, m = inst.n, inst.m
    lo, hi = inst.polyhedron.lo, inst.polyhedron.hi
    span = 1.0 + float(np.max(hi - lo))

    best_val, best_x = np.inf, None
    for pattern in product((0, 1, 2), repeat=n):  # 0 free, 1 at lo, 2 at hi
        free = [i for i in range(n) if pattern[i] == 0]
        fixed = [i for i in range(n) if pattern[i] != 0]
        xa = np.array([lo[i] if pattern[i] == 1 else hi[i] for i in fixed])
        k = len(free)
        if k == 0:
            x = np.zeros(n)
            x[fixed] = xa
            if np.linalg.norm(A @ x - b) <= tol * (1.0 + np.linalg.norm(b)):
                val = obj.value(x)
                if val < best_val:
                    best_val, best_x = val, x
            continue
        Qff = Q[np.ix_(free, free)]
        Af = A[:, free]
        rhs_top = -(q[free] + (Q[np.ix_(free, fixed)] @ xa if fixed else 0.0))
        rhs_bot = b - (A[:, fixed] @ xa if fixed else 0.0)
        KKT = np.zeros((k + m, k + m))
        KKT[:k, :k] = Qff
        KKT[:k, k:] = Af.T
        KKT[k:, :k] = Af
        rhs = np.concatenate([np.atleast_1d(rhs_top), rhs_bot])
        if np.linalg.matrix_rank(KKT, hermitian=True) == k + m:
            sol = np.linalg.solve(KKT, rhs)
        else:
            sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        if np.linalg.norm(KKT @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            continue
        xf = sol[:k]
        if np.any(xf < lo[free] - tol * span) or np.any(xf > hi[free] + tol * span):
            continue
        x = np.zeros(n)
        x[free] = np.clip(xf, lo[free], hi[free])
        x[fixed] = xa
        if np.linalg.norm(A @ x - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
            continue
        val = obj.value(x)
        if val < best_val:
            best_val, best_x = val, x
    if best_x is None:
        raise InfeasibleError("no feasible face found")
    return float(best_val), best_x


def reference_kkt_points(inst, tol=1e-9):
    obj = inst.objective
    Q, q = obj.Q, obj.q
    A, b = inst.eq_matrix, inst.eq_rhs
    n, m = inst.n, inst.m
    lo, hi = inst.polyhedron.lo, inst.polyhedron.hi
    points = []
    for pattern in product((0, 1, 2), repeat=n):
        free = [i for i in range(n) if pattern[i] == 0]
        fixed = [i for i in range(n) if pattern[i] != 0]
        if any(not np.isfinite(lo[i]) and pattern[i] == 1 for i in range(n)):
            continue
        if any(not np.isfinite(hi[i]) and pattern[i] == 2 for i in range(n)):
            continue
        xa = np.array([lo[i] if pattern[i] == 1 else hi[i] for i in fixed])
        k = len(free)
        KKT = np.zeros((k + m, k + m))
        KKT[:k, :k] = Q[np.ix_(free, free)]
        KKT[:k, k:] = A[:, free].T
        KKT[k:, :k] = A[:, free]
        rhs = np.concatenate([
            np.atleast_1d(-(q[free] + (Q[np.ix_(free, fixed)] @ xa if fixed else 0.0))),
            b - (A[:, fixed] @ xa if fixed else 0.0),
        ])
        if np.linalg.matrix_rank(KKT, hermitian=True) < k + m:
            continue
        sol = np.linalg.solve(KKT, rhs)
        if np.linalg.norm(KKT @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            continue
        xf, y = sol[:k], sol[k:]
        if k and (np.any(xf < lo[free] - tol) or np.any(xf > hi[free] + tol)):
            continue
        x = np.zeros(n)
        if k:
            x[free] = np.clip(xf, lo[free], hi[free])
        x[fixed] = xa
        if np.linalg.norm(A @ x - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
            continue
        g = Q @ x + q + A.T @ y
        mu = np.zeros(n)
        ok = True
        for i in fixed:
            if pattern[i] == 1:
                ok = ok and g[i] >= -tol
                mu[i] = g[i]
            else:
                ok = ok and g[i] <= tol
                mu[i] = -g[i]
        if ok:
            points.append((x, y, mu))
    return points


def face_instance(n, seed, pin, tie):
    """Random box instance with m = n - 1 equalities (none when n = 1).

    ``pin`` sets lo == hi on coordinate 0.  ``tie`` removes the last
    coordinate from the objective and the equalities, so the faces that
    differ only in whether it sits at lo or at hi tie exactly.
    """
    if n > 1:
        inst = make_box_instance(n, n - 1, n // 2, seed)
        Q, q = inst.objective.Q.copy(), inst.objective.q.copy()
        A, b = inst.eq_matrix.copy(), inst.eq_rhs
        x_feas = inst.meta["x_feas"]
    else:
        obj, _ = random_quadratic(1, 0, np.random.default_rng(seed))
        Q, q, A, b = obj.Q, obj.q, np.zeros((0, 1)), np.zeros(0)
        x_feas = np.array([0.5])
    lo, hi = np.zeros(n), np.ones(n)
    if pin:
        lo[0] = hi[0] = x_feas[0]
    if tie:
        Q[-1, :] = Q[:, -1] = q[-1] = A[:, -1] = 0.0
        b = A @ x_feas
    return ProblemInstance(objective=QuadraticObjective(Q, q), lipschitz_grad=1.0,
                           eq_matrix=A, eq_rhs=b, polyhedron=Box(lo, hi))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 10_000), pin=st.booleans(), tie=st.booleans())
# n = 5 > m + 1 with coordinate 0 pinned: the free sets of three make a
# rank-deficient KKT matrix that LU factors through roundoff
@example(n=5, seed=552, pin=True, tie=True)
def test_face_enumerator_matches_per_face_reference(n, seed, pin, tie):
    inst = face_instance(n, seed, pin, tie)
    val, x = exact_lower_bound_box_qp(inst)
    ref_val, ref_x = reference_lower_bound(inst)
    assert val == pytest.approx(ref_val, rel=1e-12, abs=1e-12)
    assert np.allclose(x, ref_x, rtol=0.0, atol=1e-9)

    pts = enumerate_kkt_points(inst)
    ref_pts = reference_kkt_points(inst)
    assert len(pts) == len(ref_pts)
    lo, hi = inst.polyhedron.lo, inst.polyhedron.hi
    for (x, y, mu), (ref_x, ref_y, ref_mu) in zip(pts, ref_pts):
        assert np.allclose(x, ref_x, rtol=0.0, atol=1e-9)
        # the multipliers are unique only when the equality columns of the
        # coordinates strictly inside the box have full row rank
        inside = (ref_x > lo + 1e-9) & (ref_x < hi - 1e-9)
        if np.linalg.matrix_rank(inst.eq_matrix[:, inside]) == inst.m:
            assert np.allclose(y, ref_y, rtol=0.0, atol=1e-9)
            assert np.allclose(mu, ref_mu, rtol=0.0, atol=1e-9)


def test_lower_bound_with_rank_deficient_faces_is_exact():
    # The hypothesis example above, checked without any per-face solve: the
    # four equalities fix coordinates 0-3 at the generating point (the
    # condition number of A[:, :4] is 2.8) and f ignores coordinate 4, so f
    # is constant on the feasible set and its value there is the minimum.
    inst = face_instance(5, 552, pin=True, tie=True)
    x_feas = make_box_instance(5, 4, 2, 552).meta["x_feas"]
    val, _ = exact_lower_bound_box_qp(inst)
    assert val == pytest.approx(inst.objective.value(x_feas), rel=0.0, abs=1e-12)


def test_lower_bound_tie_goes_to_first_face():
    # -||x||^2 / 2 on [-1, 1]^2 without equalities: all four vertices give -1;
    # the first in face order fixes both coordinates at lo
    inst = ProblemInstance(
        objective=QuadraticObjective(-np.eye(2), np.zeros(2)),
        lipschitz_grad=1.0,
        eq_matrix=np.zeros((0, 2)), eq_rhs=np.zeros(0),
        polyhedron=Box(-np.ones(2), np.ones(2)),
    )
    val, x = exact_lower_bound_box_qp(inst)
    assert val == -1.0
    assert np.array_equal(x, [-1.0, -1.0])
    assert reference_lower_bound(inst)[0] == val


def test_infeasible_box_equality_pair():
    # x1 + x2 = 5 cannot hold on [0, 1]^2
    inst = ProblemInstance(
        objective=QuadraticObjective(np.diag([1.0, -1.0]), np.zeros(2)),
        lipschitz_grad=1.0,
        eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([5.0]),
        polyhedron=Box(np.zeros(2), np.ones(2)),
    )
    with pytest.raises(InfeasibleError):
        exact_lower_bound_box_qp(inst)
    with pytest.raises(InfeasibleError):
        reference_lower_bound(inst)
    assert enumerate_kkt_points(inst) == [] == reference_kkt_points(inst)
