import dataclasses
import itertools
from math import comb

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


def theta_full_generic(M):
    """Reference: the batched SVD of every C(rows, rank) row subset of M, with
    the rank and floor the library reads from its one SVD of M."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    r, tol = constants._rank_and_tol(M, np.linalg.svd(M, full_matrices=False)[1])
    if r == 0:
        return 0.0
    subsets = itertools.combinations(range(M.shape[0]), r)
    best = 0.0
    while block := list(itertools.islice(subsets, constants._block_size(r * M.shape[1]))):
        sv = np.linalg.svd(M[np.asarray(block)], compute_uv=False)
        best = max(best, constants._theta_from_singular_values(sv, tol))
    return best


def theta_full_box(A, tol):
    """Reference: the batched SVD of the compressed stack of every one of the
    C(n, m) 2^(n-m) box subsets, k = 0, ..., n - m removed bound rows."""
    m, n = A.shape
    A_cols = A.T.copy()
    best = 0.0
    for k in range(0, n - m + 1):
        d = m + k
        masks = np.zeros((comb(d, k), d), dtype=bool)
        for row, sel in enumerate(itertools.combinations(range(d), k)):
            masks[row, list(sel)] = True
        pairs = itertools.product(itertools.combinations(range(n), d), range(len(masks)))
        while block := list(itertools.islice(pairs, constants._block_size(4 * d * d))):
            tops, mask_rows = zip(*block)
            sv = constants._box_reduced_singular_values(
                A_cols, np.asarray(tops, dtype=np.intp), masks[list(mask_rows)], m)
            best = max(best, constants._theta_from_singular_values(sv, tol))
    return best


def theta_full(A, G):
    """Reference for ``hoffman_constant``: the same dispatch, every subset visited."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = build_hoffman_matrix(A, G)
    if (G is not None and np.size(G) and constants._two_sided_box_rows(G)
            and np.linalg.matrix_rank(A) == A.shape[0]):
        return theta_full_box(A, constants._rank_and_tol(M)[1])
    return theta_full_generic(M)


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


def _never(*args, **kwargs):
    raise AssertionError("the budget must be checked before any subset is built")


def test_box_enumeration_above_the_budget_is_refused_before_any_svd(monkeypatch):
    monkeypatch.setattr(constants, "_box_reduced_singular_values", _never)
    monkeypatch.setattr(constants, "_box_bounds", _never)   # nor any bound
    A, G = _box_hoffman_system(16, 5, seed=0)   # C(16, 5) 2^11 subsets
    with pytest.raises(ValueError, match="8,945,664 subsets"):
        hoffman_constant(A, G)


def test_generic_enumeration_above_the_budget_is_refused(monkeypatch):
    monkeypatch.setattr(constants, "_generic_bounds", _never)
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


# ------------------------------------------ bound-then-SVD against every subset

def _box_case(n, m, columns, seed):
    """A random m x n A, with its first columns duplicated, zeroed or scaled by 1e-6."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
    if m and n >= 2:
        if columns == "duplicate":
            A[:, 1] = A[:, 0]
        elif columns == "zero":
            A[:, 0] = 0.0
        elif columns == "tiny":
            A[:, :2] *= 1e-6
    return A, np.vstack([np.eye(n), -np.eye(n)])


_CHUNKINGS = [None, ("_EXACT_CHUNK", 7), ("_CHUNK_FLOATS", 1)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 7), data=st.data(),
       columns=st.sampled_from(["plain", "duplicate", "zero", "tiny"]),
       chunking=st.sampled_from(_CHUNKINGS))
def test_pruned_box_theta_equals_every_subset(seed, n, data, columns, chunking):
    # m = 0 and m = n included; a zero column at m = n leaves A rank-deficient
    A, G = _box_case(n, data.draw(st.integers(0, n)), columns, seed)
    with pytest.MonkeyPatch.context() as mp:
        if chunking:
            mp.setattr(constants, *chunking)
        assert hoffman_constant(A, G)[0] == theta_full(A, G)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 10), cols=st.integers(1, 6),
       shape=st.sampled_from(["plain", "duplicate rows", "rank-deficient", "ill-scaled rows"]),
       chunking=st.sampled_from(_CHUNKINGS))
def test_pruned_generic_theta_equals_every_subset(seed, rows, cols, shape, chunking):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, cols))
    if shape == "duplicate rows" and rows >= 2:
        M[rows - 1] = M[0]
    elif shape == "rank-deficient":
        cut = int(rng.integers(0, min(rows, cols) + 1))
        M = M[:, :cut] @ rng.standard_normal((cut, cols))
    elif shape == "ill-scaled rows":
        M *= 10.0 ** rng.integers(-6, 7, size=(rows, 1))
    with pytest.MonkeyPatch.context() as mp:
        if chunking:
            mp.setattr(constants, *chunking)
        assert hoffman_theta_exact(M) == theta_full_generic(M)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 5), m=st.integers(0, 3),
       l=st.integers(0, 4), duplicate=st.booleans())
def test_pruned_theta_of_general_systems_equals_every_subset(seed, n, m, l, duplicate):
    # rank-deficient A (a duplicated row) takes the generic path, as does any G
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    if duplicate and m >= 2:
        A[1] = A[0]
    G = rng.standard_normal((l, n)) if l else None
    assert hoffman_constant(A, G)[0] == theta_full(A, G)


def _ratio(sv, tol):
    return sv[0] ** 2 / sv[-1] ** 4 if sv[-1] > tol else 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 8), cols=st.integers(1, 5))
def test_generic_bound_holds_on_every_subset(seed, rows, cols):
    M = np.random.default_rng(seed).standard_normal((rows, cols))
    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    r, tol = constants._rank_and_tol(M, s)
    subsets, bounds = constants._generic_bounds(M @ Vt[:r].T, s[0], tol)
    assert len(subsets) == comb(rows, r)
    for rows_S, bound in zip(subsets, bounds):
        assert _ratio(np.linalg.svd(M[rows_S.astype(int)], compute_uv=False), tol) <= bound


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 5), data=st.data())
def test_box_bound_holds_on_every_subset(seed, n, data):
    # each bound against the SVD of the uncompressed rows of M: the top rows
    # R and J, and every bound row except e_j for j in J
    m = data.draw(st.integers(0, n))
    A, G = _box_case(n, m, "plain", seed)
    M = build_hoffman_matrix(A, G)
    s = np.linalg.svd(M, compute_uv=False)
    tol = constants._rank_and_tol(M, s)[1]
    tops, rest, bounds = constants._box_bounds(A.T, s[0], tol)
    free = n - m
    assert len(bounds) == comb(n, m) * 2 ** free
    for i, (R, outside) in enumerate(zip(tops, rest)):
        for bits in range(2 ** free):
            J = [int(j) for t, j in enumerate(outside) if bits >> t & 1]
            if m + len(J) == 0:
                continue   # all bound rows, ratio 1: an empty stack, counted as 0
            rows_S = sorted([*R, *J]) + [n + j for j in range(2 * n) if j not in J]
            sv = np.linalg.svd(M[rows_S], compute_uv=False)
            assert _ratio(sv, tol) <= bounds[(i << free) + bits]


def test_box_bound_rules_out_all_but_a_few_subsets(monkeypatch):
    # criteria 1-2's first instance: n = 10, m = 3, C(10, 3) 2^7 = 15,360 subsets
    inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=1000)
    G, _ = inst.polyhedron.as_halfspaces()
    stacks = []
    svd = constants._box_reduced_singular_values

    def counting(A_cols, S_top, J_mask, m):
        stacks.append(len(S_top))
        return svd(A_cols, S_top, J_mask, m)

    monkeypatch.setattr(constants, "_box_reduced_singular_values", counting)
    theta = hoffman_constant(inst.eq_matrix, G)[0]
    assert 0 < sum(stacks) < 0.01 * 15_360
    monkeypatch.undo()
    assert theta == theta_full(inst.eq_matrix, G)


@pytest.mark.parametrize("box", [True, False])
def test_one_svd_of_M_per_theta(monkeypatch, box):
    A, G = _box_hoffman_system(6, 2, seed=4)
    if not box:
        G = G[1:]
    M = build_hoffman_matrix(A, G)
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    hoffman_constant(A, G)
    assert shapes.count(M.shape) == 1   # the other calls are batched subset SVDs
    assert all(len(shape) == 3 for shape in shapes if shape != M.shape)


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
