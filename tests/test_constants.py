import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sproxalm import constants
from sproxalm.constants import (build_hoffman_matrix, hoffman_constant,
                                hoffman_theta_exact, plan_stepsizes)
from sproxalm.problem import fixed_instance_1d, generate_nonconvex_qp


def theta_all_subsets_oracle(M, tol=None):
    """Independent brute force: every row subset of every size."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows = M.shape[0]
    smax = np.linalg.svd(M, compute_uv=False)[0]
    tol = max(M.shape) * np.finfo(float).eps * max(smax, 1.0) if tol is None else tol
    best = 0.0
    for k in range(1, rows + 1):
        for S in itertools.combinations(range(rows), k):
            sv = np.linalg.svd(M[list(S)], compute_uv=False)
            if len(sv) == k and sv[-1] > tol:
                best = max(best, sv[0] ** 2 / sv[-1] ** 4)
    return best


# ----------------------------------------------------------------- hoffman

def test_hoffman_scalar_examples():
    theta, exact = hoffman_constant(np.array([[1.0]]), None)
    assert exact and theta == pytest.approx(1.0, rel=1e-12)
    theta, exact = hoffman_constant(np.array([[2.0]]), None)
    assert exact and theta == pytest.approx(0.25, rel=1e-12)


def test_hoffman_identity_system():
    # M = A' = I for A = I: every full-row-rank submatrix has unit singular values
    for k in (2, 4, 6):
        theta, exact = hoffman_constant(np.eye(k), None)
        assert exact and theta == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_maximal_enumeration_equals_all_subsets_oracle(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(1, 5))))
    assert hoffman_theta_exact(M) == pytest.approx(theta_all_subsets_oracle(M), rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_box_fast_path_matches_general_path(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, n))
    A = rng.standard_normal((m, n))
    G = np.vstack([np.eye(n), -np.eye(n)])
    theta_fast, exact = hoffman_constant(A, G)
    assert exact
    M = build_hoffman_matrix(A, G)
    assert theta_fast == pytest.approx(hoffman_theta_exact(M), rel=1e-9)


def test_box_fast_path_without_equality_rows():
    # no equality rows: the k = 0 candidates are empty submatrices
    for n in (1, 2, 4):
        A = np.zeros((0, n))
        G = np.vstack([np.eye(n), -np.eye(n)])
        theta_fast, exact = hoffman_constant(A, G)
        assert exact
        assert theta_fast == pytest.approx(hoffman_theta_exact(build_hoffman_matrix(A, G)),
                                           rel=1e-9)


def test_hoffman_row_permutation_invariance():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 4))
    G = rng.standard_normal((3, 4))
    t1, _ = hoffman_constant(A, G)
    perm_A = A[::-1]
    perm_G = G[[2, 0, 1]]
    t2, _ = hoffman_constant(perm_A, perm_G)
    assert t1 == pytest.approx(t2, rel=1e-12)


def test_hoffman_gate_refuses_above_exact_limit():
    # the planner alone gates theta on the rows of M; above the gate there is no theta
    inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=0)
    with pytest.raises(ValueError, match=r"has 30 rows, above exact_limit = 20"):
        plan_stepsizes(inst, "theoretical", exact_limit=20)
    _, rep = plan_stepsizes(inst, "theoretical", exact_limit=30)
    G, _ = inst.polyhedron.as_halfspaces()
    assert rep.theta_exact and rep.theta_bar == hoffman_constant(inst.eq_matrix, G)[0]


def _box_hoffman_system(n, m, seed):
    A = np.random.default_rng(seed).standard_normal((m, n))
    return A, np.vstack([np.eye(n), -np.eye(n)])


def test_box_enumeration_above_the_budget_is_refused_before_any_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the budget must be checked before any subset is built")

    monkeypatch.setattr(constants, "_box_reduced_singular_values", no_svd)
    A, G = _box_hoffman_system(16, 5, seed=0)   # C(16, 5) 2^11 subsets
    with pytest.raises(ValueError, match="8,945,664 subsets"):
        hoffman_constant(A, G)


def test_generic_enumeration_above_the_budget_is_refused():
    M = np.random.default_rng(0).standard_normal((40, 12))   # C(40, 12) subsets
    with pytest.raises(ValueError, match="5,586,853,480 subsets"):
        hoffman_theta_exact(M)


@pytest.mark.parametrize("name, value", [("_EXACT_CHUNK", 7), ("_CHUNK_FLOATS", 1)])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000), n=st.integers(2, 5), data=st.data())
def test_exact_theta_is_the_same_in_any_chunking(name, value, seed, n, data):
    # the box and the generic enumeration, in blocks of 7 subsets or of one
    A, G = _box_hoffman_system(n, data.draw(st.integers(0, n - 1)), seed)
    M = build_hoffman_matrix(A, G)
    whole = hoffman_constant(A, G)[0], hoffman_theta_exact(M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constants, name, value)
        assert (hoffman_constant(A, G)[0], hoffman_theta_exact(M)) == whole


# ------------------------------------------------------------ step planning

def test_plan_theoretical_golden_1d():
    inst = fixed_instance_1d()
    params, rep = plan_stepsizes(inst, "theoretical")
    assert rep.p == 3.0 and rep.rho == 1.0
    assert rep.L == pytest.approx(5.0, abs=1e-15)
    assert rep.gamma_K == pytest.approx(2.0, abs=1e-15)
    assert rep.c_max == pytest.approx(0.2, abs=1e-15)
    assert rep.theta_bar == pytest.approx(1.0, rel=1e-12) and rep.theta_exact
    assert rep.sigma5_bar == pytest.approx(13.0 * np.sqrt(2.0), rel=1e-12)
    assert params.c == pytest.approx(0.99 * 0.2, rel=1e-15)
    assert params.alpha == pytest.approx(0.99 * params.c * 4.0 / 4.0, rel=1e-14)
    expected_beta_max = min(1 / 30, params.alpha / (12 * 3 * 338.0))
    assert rep.beta_max == pytest.approx(expected_beta_max, rel=1e-12)
    assert params.beta == pytest.approx(0.99 * expected_beta_max, rel=1e-12)


def test_sigma4_is_two_thirds_at_default_p():
    inst = generate_nonconvex_qp(n=5, m=2, neg_eigs=1, rng_seed=1)
    _, rep = plan_stepsizes(inst, "practical")
    assert rep.sigma4 == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rep.sigma4 > 0.5
    assert rep.sigma2 == pytest.approx(rep.sigma1 / (1 + rep.sigma1), rel=1e-12)


def test_practical_mode_flags_uncertified_beta():
    inst = fixed_instance_1d()
    params, rep = plan_stepsizes(inst, "practical")
    assert params.beta == pytest.approx(0.01)
    assert any("no theoretical guarantee" in w for w in rep.warnings)


def test_theoretical_refuses_above_exact_limit():
    inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=2)
    with pytest.raises(ValueError, match=r"needs an exact theta_bar.* 30 rows, above "
                                         r"exact_limit = 20"):
        plan_stepsizes(inst, "theoretical")


def test_beta_below_machine_epsilon_warns():
    # criteria 1-2's first instance: its certified beta is about 1e-37
    inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=1000)
    params, rep = plan_stepsizes(inst, "theoretical", exact_limit=30)
    assert params.beta < np.finfo(float).eps
    warning = [w for w in rep.warnings if "below machine epsilon" in w]
    assert len(warning) == 1 and f"{params.beta:.3g}" in warning[0]
    assert "anchor z" in warning[0]

    params, rep = plan_stepsizes(inst, "practical", exact_limit=30)
    assert params.beta == 0.01
    assert not any("below machine epsilon" in w for w in rep.warnings)


# ------------------------------------------------ theta in practical plans

def _thirty_row_box_instance():
    return generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=0)   # M has 10 + 20 rows


def test_practical_plan_above_exact_limit_draws_no_samples():
    params, rep = plan_stepsizes(_thirty_row_box_instance(), "practical", exact_limit=20)
    assert rep.theta_bar is None and rep.sigma5_bar is None and rep.beta_max is None
    assert rep.theta_exact is False
    assert any("theta_bar not computed" in w and "has 30 rows, above exact_limit = 20" in w
               for w in rep.warnings)
    assert any("no theoretical guarantee" in w for w in rep.warnings)
    d = rep.to_dict()
    assert d["theta_bar"] is None and d["sigma5_bar"] is None and d["beta_max"] is None

    exact_params, exact_rep = plan_stepsizes(_thirty_row_box_instance(), "practical",
                                             exact_limit=30)
    assert exact_rep.theta_exact and exact_rep.theta_bar > 0
    assert not any("theta_bar not computed" in w for w in exact_rep.warnings)
    assert dataclasses.asdict(params) == dataclasses.asdict(exact_params)


def _old_rank_and_tol(M):
    """Reference: the rank by ``np.linalg.matrix_rank`` and the floor from a
    separate SVD of M."""
    smax = float(np.linalg.svd(M, compute_uv=False)[0])
    return (int(np.linalg.matrix_rank(M)),
            max(M.shape) * np.finfo(float).eps * max(smax, 1.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 12), cols=st.integers(1, 12),
       rank_cut=st.integers(0, 12), scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e4]))
def test_rank_and_tol_from_one_svd_match_matrix_rank(seed, rows, cols, rank_cut, scale):
    rng = np.random.default_rng(seed)
    M = scale * rng.standard_normal((rows, cols))
    if rank_cut < min(rows, cols):   # rank-deficient
        M = M[:, :rank_cut] @ rng.standard_normal((rank_cut, cols)) if rank_cut else 0 * M
    assert constants._rank_and_tol(M) == _old_rank_and_tol(M)
