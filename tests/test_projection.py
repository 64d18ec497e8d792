import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from sproxalm.exceptions import InfeasibleError
from sproxalm.oracles import project_polyhedron_exact, solve_qp_active_set
from sproxalm.problem import Box, Halfspaces
from sproxalm.projection import StronglyConvexQP, nnls, project


def test_box_clamp_example():
    point = project(Box(np.zeros(2), np.ones(2)), np.array([2.0, -1.0]))
    assert np.array_equal(point, np.array([1.0, 0.0]))


def test_identity_on_interior_point():
    P = Halfspaces(np.array([[1.0, 1.0]]), np.array([1.0]))
    x = np.array([0.2, 0.2])
    assert np.array_equal(project(P, x), x)
    assert np.array_equal(P.nearest_point_qp.solve(-x)[2], np.zeros(1))


def test_halfspace_projection_matches_closed_form_and_oracle():
    # projection of (1,1) onto {x1 + x2 <= 1} is x - ((Gx-h)/||G||^2) G'
    P = Halfspaces(np.array([[1.0, 1.0]]), np.array([1.0]))
    x = np.array([1.0, 1.0])
    point = project(P, x)
    closed_form = x - ((P.G @ x - P.h)[0] / np.sum(P.G ** 2)) * P.G[0]
    assert np.allclose(point, [0.5, 0.5], atol=1e-10)
    assert np.allclose(point, closed_form, atol=1e-10)
    proj_oracle, _ = project_polyhedron_exact(P.G, P.h, None, None, x)
    assert np.allclose(point, proj_oracle, atol=1e-9)


def test_rejects_non_finite_input():
    with pytest.raises(ValueError):
        project(Box(np.zeros(1), np.ones(1)), np.array([np.nan]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_nonexpansiveness(seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((3, 2))
    h = G @ rng.standard_normal(2) + rng.uniform(0.1, 1.0, 3)
    P = Halfspaces(G, h)
    x, xp = rng.standard_normal(2) * 3, rng.standard_normal(2) * 3
    tol = 1e-10
    a = project(P, x)
    b = project(P, xp)
    assert np.linalg.norm(a - b) <= np.linalg.norm(x - xp) + 2 * tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_idempotence(seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((4, 3))
    h = G @ rng.standard_normal(3) + rng.uniform(0.1, 1.0, 4)
    P = Halfspaces(G, h)
    x = rng.standard_normal(3) * 2
    tol = 1e-11
    once = project(P, x)
    twice = project(P, once)
    assert np.linalg.norm(once - twice) <= 50 * tol


def _small_halfspace_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    l = int(rng.integers(1, 5))
    G = rng.standard_normal((l, n))
    h = G @ rng.standard_normal(n) + rng.uniform(0.05, 1.0, l)
    return G, h, rng.standard_normal(n) * 3


@settings(max_examples=30, deadline=None)
@given(case=st.integers(0, 10_000).map(_small_halfspace_case))
# nearly parallel halfspaces
@example(case=(np.array([[1.0, 0.0], [1.0, 1e-6]]), np.zeros(2), np.array([3.0, 4.0])))
def test_matches_active_set_oracle_small(case):
    G, h, x = case
    P = Halfspaces(G, h)
    projected = project(P, x)
    exact, _ = project_polyhedron_exact(G, h, None, None, x)
    assert np.linalg.norm(projected - exact) < 1e-6


def _scaled_rows_case(seed):
    # rows of G with norms 10^U(-6, 6), some of them active at the solution
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, min(n, 2)))
    l = int(rng.integers(1, 6))
    R = rng.standard_normal((n, n))
    A = rng.standard_normal((m, n))
    G = rng.standard_normal((l, n))
    G *= (10.0 ** rng.uniform(-6, 6, l) / np.linalg.norm(G, axis=1))[:, None]
    x_feas = rng.standard_normal(n)
    h = G @ x_feas + np.linalg.norm(G, axis=1) * rng.uniform(0.0, 1.0, l)
    return R @ R.T + 0.1 * np.eye(n), 3.0 * rng.standard_normal(n), A, A @ x_feas, G, h


@settings(max_examples=200, deadline=None)
@given(case=st.integers(0, 10_000).map(_scaled_rows_case))
# the projection of (5, 3) onto {1e7 x1 <= 0, x2 <= 1}: a large row beside a unit one
@example(case=(np.eye(2), -np.array([5.0, 3.0]), np.zeros((0, 2)), np.zeros(0),
               np.array([[1e7, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0])))
def test_strongly_convex_qp_is_exact_whatever_its_row_scales(case):
    H, c, A, b, G, h = case
    norms = np.linalg.norm(G, axis=1)
    ref = solve_qp_active_set(H, c, A, b, G / norms[:, None], h / norms).x
    x, y, mu = StronglyConvexQP(H, A, b, G, h).solve(c)
    assert np.linalg.norm(x - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))
    # KKT conditions with the returned multipliers, each row on its own scale
    assert np.all(mu >= 0.0)
    assert np.all((G @ x - h) / norms <= 1e-9 * (1.0 + np.abs(x).max()))
    scale = (1.0 + np.linalg.norm(H @ x) + np.linalg.norm(c) + np.abs(A.T @ y).sum()
             + norms @ mu)
    assert np.linalg.norm(H @ x + c + A.T @ y + G.T @ mu) <= 1e-9 * scale
    assert np.all(mu * np.abs(G @ x - h) <= 1e-9 * scale * (1.0 + np.abs(x).max()))


def test_kkt_residual_contract():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((4, 3))
    h = G @ np.zeros(3) + 0.3
    P = Halfspaces(G, h)
    x = rng.standard_normal(3) * 5
    tol = 1e-10
    point = project(P, x)
    _, _, mu = P.nearest_point_qp.solve(-x)
    residual = P.G @ point - P.h
    assert np.all(residual <= tol * (1 + np.linalg.norm(P.h)))
    assert np.all(mu >= 0)
    s = np.sum(np.abs(mu * residual))
    assert s <= tol


def test_strongly_convex_qp_takes_the_equality_rhs_per_solve():
    # solve(c, b) is the solve of a QP built with that b; A has a dependent
    # row, so only b in its range is consistent
    rng = np.random.default_rng(11)
    n = 5
    R = rng.standard_normal((n, n))
    H = R @ R.T + np.eye(n)
    A = rng.standard_normal((2, n))
    A = np.vstack([A, A[0] + 2.0 * A[1]])
    G = rng.standard_normal((4, n))
    h = G @ rng.standard_normal(n) + 0.2
    x_feas = rng.standard_normal(n) * 0.1
    qp = StronglyConvexQP(H, A, A @ x_feas, G, h)
    for _ in range(10):
        c = rng.standard_normal(n) * 3
        b = A @ (x_feas + 0.1 * rng.standard_normal(n))
        for got, want in zip(qp.solve(c, b), StronglyConvexQP(H, A, b, G, h).solve(c)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    with pytest.raises(InfeasibleError):
        qp.solve(np.zeros(n), A @ x_feas + np.array([0.0, 0.0, 1.0]))


def _nnls_case(seed, kind):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 10)), int(rng.integers(1, 21))
    M = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-3, 4)
    e = rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 4)
    if kind == "rank-deficient":   # columns that repeat others up to a factor
        copies = rng.integers(0, cols, cols)
        M = M[:, copies] * rng.choice([-2.0, 0.5, 1.0, 3.0], cols)
    elif kind == "zero-column":
        M[:, rng.random(cols) < 0.3] = 0.0
    elif kind == "in-range":
        e = M @ np.abs(rng.standard_normal(cols))
    return M, e


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["random", "rank-deficient", "zero-column", "in-range"]))
def test_nnls_matches_reference_residual(seed, kind):
    # scipy's NNLS is the reference; the solution need not be unique, the residual is
    M, e = _nnls_case(seed, kind)
    v, passive = nnls(M, e)
    reference, _ = scipy_nnls(M, e)
    assert np.all(v >= 0.0) and np.array_equal(passive, v > 0.0)
    residual = np.linalg.norm(M @ v - e)
    assert abs(residual - np.linalg.norm(M @ reference - e)) <= 1e-12 * np.linalg.norm(e)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_nnls_meets_its_kkt_conditions_on_low_rank_matrices(seed):
    # no reference here: scipy's NNLS can stop on such M with v near 1e15
    # and a larger residual, so the KKT conditions certify the solution
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 10)), int(rng.integers(1, 21))
    rank = int(rng.integers(1, min(rows, cols) + 1))
    M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    e = rng.standard_normal(rows)
    v, passive = nnls(M, e)
    w = M.T @ (e - M @ v)
    scale = np.linalg.norm(M) * np.linalg.norm(e)
    assert np.all(v[passive] > 0.0) and np.all(v[~passive] == 0.0)
    assert np.all(w[~passive] <= 1e-11 * scale) and np.all(np.abs(w[passive]) <= 1e-11 * scale)


def test_nnls_without_columns_or_target():
    v, passive = nnls(np.zeros((3, 0)), np.ones(3))
    assert v.shape == passive.shape == (0,)
    v, passive = nnls(np.ones((3, 2)), np.zeros(3))
    assert np.array_equal(v, np.zeros(2)) and not passive.any()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_strongly_convex_qp_solve_does_not_depend_on_earlier_solves(seed):
    # each solve hot-starts from the last one's passive set: that may only save work
    rng = np.random.default_rng(seed)
    n = 6
    R = rng.standard_normal((n, n))
    H, A = R @ R.T + np.eye(n), rng.standard_normal((2, n))
    G = rng.standard_normal((8, n))
    x_feas = rng.standard_normal(n)
    b, h = A @ x_feas, G @ x_feas + rng.uniform(0.1, 1.0, 8)
    cs = rng.standard_normal((6, n)) * 5
    cold = [StronglyConvexQP(H, A, b, G, h).solve(c) for c in cs]
    qp = StronglyConvexQP(H, A, b, G, h)
    for c in np.vstack([cs, cs[::-1]]):
        qp.solve(c)
    for i, want in enumerate(cold):
        qp.solve(cs[i - 1])
        for _ in range(2):   # the second solve in a row returns the kept answer
            for got, exp in zip(qp.solve(cs[i]), want):
                assert np.array_equal(got, exp)


def _kept_solve_case():
    # a QP with equality rows and active inequality rows
    rng = np.random.default_rng(3)
    n = 5
    R = rng.standard_normal((n, n))
    H, A = R @ R.T + np.eye(n), rng.standard_normal((2, n))
    G = rng.standard_normal((6, n))
    x_feas = rng.standard_normal(n)
    b, h = A @ x_feas, G @ x_feas + rng.uniform(0.1, 1.0, 6)
    return (H, A, b, G, h), 5.0 * rng.standard_normal(n)


def _count_solves(monkeypatch):
    # solves that reach the factorisation; a kept answer does not
    solves = []
    solve = StronglyConvexQP._solve

    def counted(self, c, b):
        solves.append(c.copy())
        return solve(self, c, b)

    monkeypatch.setattr(StronglyConvexQP, "_solve", counted)
    return solves


def test_strongly_convex_qp_repeat_is_a_fresh_solve(monkeypatch):
    data, c = _kept_solve_case()
    fresh = StronglyConvexQP(*data).solve(c)
    assert fresh[2].max() > 0.0   # the NNLS ran
    solves = _count_solves(monkeypatch)
    qp = StronglyConvexQP(*data)
    first = qp.solve(c)
    kept = qp.solve(c.copy())
    assert len(solves) == 1
    for got, want in zip(kept, fresh):
        assert np.array_equal(got, want)
    # the caller owns what it gets: writing to it leaves the kept answer as it was
    for arr in (*first, *kept):
        arr += 1.0
    again = qp.solve(c)
    assert len(solves) == 1
    for got, want in zip(again, fresh):
        assert np.array_equal(got, want)


def test_strongly_convex_qp_repeat_needs_the_same_bytes(monkeypatch):
    (H, A, b, G, h), c = _kept_solve_case()
    solves = _count_solves(monkeypatch)
    qp = StronglyConvexQP(H, A, b, G, h)
    base = qp.solve(c)
    near = c.copy()
    near[0] = np.nextafter(c[0], np.inf)
    qp.solve(near)
    assert len(solves) == 2
    # b=None is its own key: the construction b passed again is a solve, with the same bits
    for got, want in zip(qp.solve(c), base):
        assert np.array_equal(got, want)
    for got, want in zip(qp.solve(c, b), base):
        assert np.array_equal(got, want)
    assert len(solves) == 4
    # another right-hand side, as the segment tracer passes, is another solve
    b2 = b + A @ np.full(H.shape[0], 1e-3)
    x2 = qp.solve(c, b2)[0]
    assert len(solves) == 5 and np.allclose(A @ x2, b2)
    qp.solve(c, b2)
    assert len(solves) == 5


def test_strongly_convex_qp_keeps_no_failed_solve(monkeypatch):
    solves = _count_solves(monkeypatch)
    # {x <= 0, x >= 1} is empty: every call raises
    empty = StronglyConvexQP(np.eye(1), [], [], [[1.0], [-1.0]], [0.0, -1.0])
    for _ in range(2):
        with pytest.raises(InfeasibleError):
            empty.solve(np.zeros(1))
    assert len(solves) == 2
    # an inconsistent b raises, and the last good answer is not kept past it
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    qp = StronglyConvexQP(np.eye(2), A, [1.0, 2.0], [[1.0, 0.0]], [0.25])
    x = qp.solve(np.zeros(2))[0]
    for _ in range(2):
        with pytest.raises(InfeasibleError):
            qp.solve(np.zeros(2), [1.0, 3.0])
    assert np.array_equal(qp.solve(np.zeros(2))[0], x)
    assert len(solves) == 6
