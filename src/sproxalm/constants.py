"""Planner for every constant the convergence theory needs.

Spectral quantities, the polyhedral error-bound constant theta_bar
(maximized over full-row-rank submatrices of the stacked multiplier
system), the derived dual error-bound constant sigma5_bar, and
admissible step sizes.

theta_bar enumeration note: the ratio sigma_max^2/sigma_min^4 can only
grow when a row is appended to a full-row-rank submatrix (singular value
interlacing), so the exact maximum over all full-row-rank submatrices is
attained among the rank(M)-row ones.  We enumerate only those, and for
finite two-sided boxes we additionally exploit the signed-unit structure
of the bound rows to compress each candidate to a small equivalent stack.
Every theta_bar is exact: both enumerations, C(rows, rank) subsets in
general and C(n, m) 2^(n-m) on a box, share one subset budget that is
checked before any subset is built, and a count above it raises
ValueError.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import combinations, islice, product
from math import comb

import numpy as np

from .problem import ProblemInstance

_EPS = np.finfo(float).eps
_MAX_EXACT_SUBSETS = 1_100_000   # about a minute of batched SVDs at n = 14
_EXACT_CHUNK = 20_000            # subsets per batched SVD
_CHUNK_FLOATS = 8_000_000        # and at most 64 MB of stacked submatrices


def build_hoffman_matrix(A, G) -> np.ndarray:
    """Stack [[A', G'], [0, I]] for the multiplier system of the dual error bound."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if G is None or np.size(G) == 0:
        return A.T.copy()
    G = np.atleast_2d(np.asarray(G, dtype=float))
    l = G.shape[0]
    return np.block([
        [A.T, G.T],
        [np.zeros((l, m)), np.eye(l)],
    ])


def _rank_and_tol(M) -> tuple[int, float]:
    """Numerical rank of M (the ``np.linalg.matrix_rank`` rule) and the
    singular-value floor of its row subsets, both from one SVD of M."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0, 0.0
    rank = int(np.count_nonzero(s > s[0] * max(M.shape) * _EPS))
    return rank, max(M.shape) * _EPS * max(float(s[0]), 1.0)


def _theta_from_singular_values(sv, tol):
    """Max ratio over a batch; sv sorted descending per row (numpy svd order).
    Empty submatrices contribute 0."""
    if sv.shape[-1] == 0:
        return 0.0
    smax = sv[:, 0]
    smin = sv[:, -1]
    valid = smin > tol
    if not np.any(valid):
        return 0.0
    return float(np.max(smax[valid] ** 2 / smin[valid] ** 4))


def _check_budget(subsets: int) -> None:
    """ValueError when an exact enumeration would visit more than
    _MAX_EXACT_SUBSETS subsets; called before any subset is built."""
    if subsets > _MAX_EXACT_SUBSETS:
        raise ValueError(f"exact theta_bar needs {subsets:,} subsets, above the budget "
                         f"of {_MAX_EXACT_SUBSETS:,}")


def _blocks(items, floats_each: int):
    """The items of an iterator in lists of at most _EXACT_CHUNK, and of at
    most _CHUNK_FLOATS floats when each item's stack holds floats_each."""
    size = max(1, min(_EXACT_CHUNK, _CHUNK_FLOATS // max(floats_each, 1)))
    while block := list(islice(items, size)):
        yield block


def hoffman_theta_exact(M) -> float:
    """Exact max of sigma_max^2/sigma_min^4 over full-row-rank row submatrices:
    one batched SVD per block of the C(rows, rank(M)) rank(M)-row subsets."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    r, tol = _rank_and_tol(M)
    if r == 0:
        return 0.0
    rows, cols = M.shape
    _check_budget(comb(rows, r))
    best = 0.0
    for block in _blocks(combinations(range(rows), r), r * cols):
        sv = np.linalg.svd(M[np.asarray(block)], compute_uv=False)
        best = max(best, _theta_from_singular_values(sv, tol))
    return best


def _two_sided_box_rows(G) -> bool:
    """True when G is exactly the signed-identity stack of a finite two-sided box."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    l, n = G.shape
    if l != 2 * n:
        return False
    return bool(np.array_equal(G[:n], np.eye(n)) and np.array_equal(G[n:], -np.eye(n)))


def _box_reduced_singular_values(A_cols, S_top, J_mask, m):
    """Batched compressed representatives of box-structured maximal submatrices.

    Each maximal submatrix [[A'_S, G'_S], [0, I_kept]] shares its nonzero
    singular-value profile with the small stack

        B_red = [[A'_S, E_J, diag(w)], [0, 0, I_d]]

    where E_J holds a unit column per removed bound row and w_i is 1 when
    variable i lost a twin and sqrt(2) otherwise (sign choices are
    orthogonally equivalent).  sigma_min of the original equals
    sigma_min(B_red) because the remaining singular values are all 1.
    """
    Bsz, d = S_top.shape
    k = int(J_mask[0].sum())
    m_cols = m + k + d
    B = np.zeros((Bsz, 2 * d, m_cols))
    B[:, :d, :m] = A_cols[S_top]          # rows of A' for the kept top rows
    idx = np.arange(d)
    w = np.where(J_mask, 1.0, np.sqrt(2.0))
    if k:
        # one unit column per removed bound row, at its variable's position
        rows_pos = np.where(J_mask)[1].reshape(Bsz, k)
        batch = np.repeat(np.arange(Bsz), k)
        B[batch, rows_pos.ravel(), np.tile(m + np.arange(k), Bsz)] = 1.0
    B[:, idx, m + k + idx] = w
    B[:, d + idx, m + k + idx] = 1.0
    return np.linalg.svd(B, compute_uv=False)


def hoffman_theta_exact_box(A, tol: float) -> float:
    """Exact theta for M built from full-row-rank A and a finite two-sided box.

    Valid maximal submatrices keep top rows S_top (|S_top| = m + k) and
    drop one bound row for each of k distinct variables inside S_top;
    the two sign choices give identical singular values.  That makes
    C(n, m) 2^(n-m) subsets, visited in blocks.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    _check_budget(comb(n, m) * 2 ** (n - m))
    A_cols = A.T.copy()   # row i = column i of A
    best = 0.0
    for k in range(0, n - m + 1):
        d = m + k
        masks = np.zeros((comb(d, k), d), dtype=bool)
        for row, sel in enumerate(combinations(range(d), k)):
            masks[row, list(sel)] = True
        pairs = product(combinations(range(n), d), range(len(masks)))
        for block in _blocks(pairs, 4 * d * d):   # each stack is 2d x 2d
            tops, mask_rows = zip(*block)
            sv = _box_reduced_singular_values(A_cols, np.asarray(tops, dtype=np.intp),
                                              masks[list(mask_rows)], m)
            # the compressed stack omits singular values equal to 1; they never
            # attain the extremes since sigma_max >= sqrt(2) and sigma_min <= 1
            best = max(best, _theta_from_singular_values(sv, tol))
    return best


def hoffman_constant(A, G) -> tuple[float, bool]:
    """Polyhedral error-bound constant theta_bar of the multiplier system.

    Builds M = [[A', G'], [0, I]] and returns (theta_bar, True): the exact
    maximum over its full-row-rank submatrices.  An enumeration above the
    subset budget raises ValueError naming its count.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = build_hoffman_matrix(A, G)
    if (G is not None and np.size(G) and _two_sided_box_rows(G)
            and np.linalg.matrix_rank(A) == A.shape[0]):
        return hoffman_theta_exact_box(A, _rank_and_tol(M)[1]), True
    return hoffman_theta_exact(M), True


# ---------------------------------------------------------------------------
# step-size planning
# ---------------------------------------------------------------------------

MODES = ("theoretical", "practical")
MONITOR_LEVELS = ("none", "full")


@dataclass
class SolverParams:
    """Algorithm parameters plus run budget."""

    rho: float
    p: float
    c: float
    alpha: float
    beta: float
    max_iters: int = 1000
    target_eps: float = 1e-6
    trace_every: int = 1
    monitor_level: str = "none"

    def __post_init__(self):
        if self.monitor_level not in MONITOR_LEVELS:
            raise ValueError(f"monitor_level must be one of {MONITOR_LEVELS}")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if min(self.rho, self.p, self.c, self.alpha) <= 0:
            raise ValueError("rho, p, c, alpha must be positive")


@dataclass
class ConstantsReport:
    sigma_max_A: float
    L_f: float
    rho: float
    p: float
    L: float
    gamma_K: float
    sigma1: float
    sigma2: float
    sigma3: float | None          # None: smax(A) = 0, no bound
    sigma4: float
    theta_bar: float | None       # None: a practical plan above exact_limit rows
    theta_exact: bool
    sigma5_bar: float | None
    c_max: float
    alpha_max: float | None       # None: not finite (smax(A)^2 = 0)
    beta_max: float | None
    mode: str
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _square(value: float, name: str) -> float:
    """value ** 2; beyond float range, an OverflowError naming the square."""
    try:
        return value ** 2
    except OverflowError:
        raise OverflowError(f"{name} = ({value:.3g})^2 is beyond float range") from None


def sigma5_from_theta(theta_bar: float, L: float, gamma: float) -> float:
    """Global dual error-bound constant sqrt(2)(theta*L^2 + 1)/gamma."""
    return float(np.sqrt(2.0) * (theta_bar * _square(L, "L^2") + 1.0) / gamma)


def plan_stepsizes(inst: ProblemInstance, mode: str, exact_limit: int = 20):
    """Derive (SolverParams, ConstantsReport) for an instance.

    theoretical mode takes 0.99 of every strict admissibility bound
    (p = 3 L_f, rho = L_f, c, alpha, and beta through the certified
    sigma5_bar).  practical mode keeps c but takes 0.9 of the alpha
    bound and relaxes beta to 0.01, which carries no convergence
    guarantee and is flagged as such.  theta_bar is computed, exactly,
    only when M = [[A', G'], [0, I]] has at most ``exact_limit`` rows;
    above that a theoretical plan raises ValueError, and a practical one
    reports theta_bar, sigma5_bar and beta_max as None with a warning.
    A beta below machine epsilon is reported with a warning too.  With
    smax(A) = 0 there is no alpha bound, and sigma3 and alpha_max are
    reported as None, as they are whenever they overflow; alpha is 1
    whenever alpha_max is not finite.  The step sizes exist only for
    L_f > 0 and L = L_f + rho smax(A)^2 + p with L and 1/L finite, and a
    nonzero alpha_max; otherwise ValueError.  ValueError too when the
    declared L_f is below ||Q||_2 (up to 1e-12 relative), or when an exact
    or certified f_lower lies above f(x_feas) by more than
    1e-9 (1 + |f(x_feas)|).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    warnings = []

    L_f = inst.lipschitz_grad
    smaxA = inst.sigma_max_A
    p = 3.0 * L_f
    rho = L_f
    smaxA2 = _square(smaxA, "smax(A)^2")
    L = L_f + rho * smaxA2 + p
    if not (L_f > 0 and np.isfinite(L) and np.isfinite(1.0 / L)):
        raise ValueError(f"step sizes need L_f > 0 and finite L and 1/L, where "
                         f"L = L_f + rho*smax(A)^2 + p (got L_f = {L_f}, L = {L})")
    # the generators declare max|eigenvalue|, which eigvalsh may put ~1e-15 above
    norm_Q = float(np.max(np.abs(np.linalg.eigvalsh(inst.objective.Q)), initial=0.0))
    if not L_f >= norm_Q * (1.0 - 1e-12):
        raise ValueError(f"the declared L_f = {L_f} is below ||Q||_2 = {norm_Q}, "
                         "the Lipschitz constant of grad f")
    x_feas = inst.meta.get("x_feas")
    if (x_feas is not None and inst.lower_bound is not None
            and inst.lower_bound_kind in ("exact", "certified")):
        f_feas = inst.f(np.asarray(x_feas, dtype=float))
        if f_feas < inst.lower_bound - 1e-9 * (1.0 + abs(f_feas)):
            raise ValueError(f"the {inst.lower_bound_kind} f_lower = {inst.lower_bound} "
                             f"is above f(x_feas) = {f_feas}")
    gamma_K = p - L_f
    c_max = 1.0 / L
    c = 0.99 * c_max

    alpha_max = c * _square(gamma_K, "gamma_K^2") / (4.0 * smaxA2) if smaxA2 > 0 else np.inf
    if alpha_max == 0.0:
        raise ValueError(f"alpha_max = c*gamma_K^2/(4*smax(A)^2) underflows to 0 (c = {c:.3g}, "
                         f"gamma_K = {gamma_K:.3g}, smax(A) = {smaxA:.3g})")
    alpha = (0.99 if mode == "theoretical" else 0.9) * alpha_max
    if not np.isfinite(alpha):
        alpha = 1.0

    # theta_bar is exact or absent; the practical beta does not use it
    G, _h = inst.polyhedron.as_halfspaces()
    rows = inst.n + G.shape[0]
    theta_bar = sigma5_bar = beta_max = None
    theta_exact = False
    if rows <= exact_limit:
        theta_bar, theta_exact = hoffman_constant(inst.eq_matrix, G)
        sigma5_bar = sigma5_from_theta(theta_bar, L, gamma_K)
        beta_max = float(min(1.0 / 30.0, alpha / (12.0 * p * _square(sigma5_bar, "sigma5_bar^2"))))
    elif mode == "theoretical":
        raise ValueError(f"a theoretical plan needs an exact theta_bar, and M = [[A', G'], [0, I]] "
                         f"has {rows} rows, above exact_limit = {exact_limit}")

    if mode == "theoretical":
        beta = 0.99 * beta_max
    else:
        beta = 0.01
        warnings.append("practical beta carries no theoretical guarantee")
        if theta_bar is None:
            warnings.append(
                f"theta_bar not computed: M = [[A', G'], [0, I]] has {rows} rows, above "
                f"exact_limit = {exact_limit}, and the practical beta does not use theta"
            )
    if beta < _EPS:
        warnings.append(
            f"beta = {beta:.3g} is below machine epsilon: each step moves the anchor z by "
            "less than roundoff, so the run is a proximal-point scheme around a fixed anchor"
        )

    sigma1 = c * gamma_K
    sigma2 = sigma1 / (1.0 + sigma1)
    sigma3 = gamma_K / smaxA if smaxA > 0 else np.inf
    sigma4 = gamma_K / p

    report = ConstantsReport(
        sigma_max_A=smaxA, L_f=L_f, rho=rho, p=p, L=L, gamma_K=gamma_K,
        sigma1=sigma1, sigma2=sigma2, sigma3=sigma3 if np.isfinite(sigma3) else None,
        sigma4=sigma4, theta_bar=theta_bar, theta_exact=theta_exact, sigma5_bar=sigma5_bar,
        c_max=c_max, alpha_max=alpha_max if np.isfinite(alpha_max) else None,
        beta_max=beta_max, mode=mode, warnings=warnings,
    )
    return SolverParams(rho=rho, p=p, c=c, alpha=alpha, beta=beta), report
