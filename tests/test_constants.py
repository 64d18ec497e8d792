import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sproxalm import constants
from sproxalm.constants import (build_hoffman_matrix, hoffman_constant,
                                hoffman_theta_exact, hoffman_theta_sampled,
                                plan_stepsizes)
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
    theta_fast, exact = hoffman_constant(A, G, exact_limit=3 * n)
    assert exact
    M = build_hoffman_matrix(A, G)
    assert theta_fast == pytest.approx(hoffman_theta_exact(M), rel=1e-9)


def test_hoffman_row_permutation_invariance():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 4))
    G = rng.standard_normal((3, 4))
    t1, _ = hoffman_constant(A, G)
    perm_A = A[::-1]
    perm_G = G[[2, 0, 1]]
    t2, _ = hoffman_constant(perm_A, perm_G)
    assert t1 == pytest.approx(t2, rel=1e-12)


def test_sampled_estimate_is_lower_bound():
    rng = np.random.default_rng(9)
    for seed in range(5):
        A = np.random.default_rng(seed).standard_normal((2, 5))
        G = np.vstack([np.eye(5), -np.eye(5)])
        M = build_hoffman_matrix(A, G)
        exact = hoffman_theta_exact(M)
        sampled = hoffman_theta_sampled(M, 3000, rng)
        assert sampled <= exact * (1 + 1e-12)


def test_hoffman_gate_switches_to_sampling():
    inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=0)
    G, _ = inst.polyhedron.as_halfspaces()
    theta, exact = hoffman_constant(inst.eq_matrix, G, exact_limit=20)
    assert not exact  # 30 rows > 20
    theta_ex, exact2 = hoffman_constant(inst.eq_matrix, G, exact_limit=30)
    assert exact2
    assert theta <= theta_ex * (1 + 1e-12)


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


def test_override_at_bound_rejected():
    inst = fixed_instance_1d()
    with pytest.raises(ValueError):
        plan_stepsizes(inst, "theoretical", overrides={"c": 0.2})


def test_override_within_bound_accepted():
    inst = fixed_instance_1d()
    params, _ = plan_stepsizes(inst, "theoretical", overrides={"c": 0.1})
    assert params.c == 0.1


def test_practical_mode_flags_uncertified_beta():
    inst = fixed_instance_1d()
    params, rep = plan_stepsizes(inst, "practical")
    assert params.beta == pytest.approx(0.01)
    assert any("no theoretical guarantee" in w for w in rep.warnings)


def test_theoretical_warns_on_sampled_theta():
    inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=2)
    _, rep = plan_stepsizes(inst, "theoretical", exact_limit=20)
    assert not rep.theta_exact
    assert any("lower bound" in w for w in rep.warnings)


def test_b1_b2_formulas():
    inst = generate_nonconvex_qp(n=4, m=2, neg_eigs=1, rng_seed=8)
    params, rep = plan_stepsizes(inst, "practical")
    s, c, g = rep.sigma_max_A, params.c, rep.gamma_K
    B1 = (1 + s * (1 + c * g) / (c * g)) ** 2
    assert rep.B1 == pytest.approx(B1, rel=1e-12)
    B2 = ((rep.L_f + rep.p + rep.rho * s ** 2 + 2 / c) + rep.rho * s * np.sqrt(B1) + rep.p) ** 2
    assert rep.B2 == pytest.approx(B2, rel=1e-12)


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


def test_practical_plan_above_exact_limit_draws_no_samples(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a practical plan must not sample theta")

    monkeypatch.setattr(constants, "hoffman_theta_sampled", no_sampling)
    params, rep = plan_stepsizes(_thirty_row_box_instance(), "practical", exact_limit=20)
    assert rep.theta_bar is None and rep.sigma5_bar is None and rep.beta_max is None
    assert rep.theta_exact is False
    assert any("theta_bar not computed" in w for w in rep.warnings)
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
