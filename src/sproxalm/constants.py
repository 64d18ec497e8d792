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

Each enumeration runs bound-then-SVD.  A square subset S (of M V_r, or a
compressed box stack) has sigma_max(S) <= sigma_max(M) by interlacing and
sigma_min(S) >= 1/||S^-1||_F, so one batched inverse bounds every
subset's ratio by sigma_max(M)^2 ||S^-1||_F^4.  The exact batched SVD then
visits subsets in decreasing order of that bound and stops once the next
bound falls below the best exact ratio: the maximizing subset gets the
same SVD as in a full enumeration, so theta_bar is the same to the bit,
while the subsets that the bound rules out (over 99% of the n = 10, m = 3
box's 15,360) get none.  That a Hoffman constant need not cost a full
visit of every subset is the point of Pena, Vera & Zuluaga,
arXiv 1804.08418 (2018).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import combinations, islice
from math import comb

import numpy as np

from .problem import ProblemInstance

_EPS = np.finfo(float).eps
_MAX_EXACT_SUBSETS = 1_100_000   # n = 14, m = 4 box: 0.06 s when the bound rules out
                                 # nearly every subset, 26 s of SVDs if it rules out none
_EXACT_CHUNK = 20_000            # subsets per batched SVD or inverse
_CHUNK_FLOATS = 8_000_000        # and at most 64 MB of stacked submatrices
_SAFETY = 1.0 + 1e-6             # roundoff margin before a bound rules a subset out


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


def _rank_and_tol(M, s=None) -> tuple[int, float]:
    """Numerical rank of M (the ``np.linalg.matrix_rank`` rule) and the
    singular-value floor of its row subsets, both from the singular values
    s of M (one SVD of M when s is not given)."""
    if s is None:
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


def _block_size(floats_each: int) -> int:
    """Items per block: at most _EXACT_CHUNK, and at most _CHUNK_FLOATS floats
    when each item's stack holds floats_each."""
    return max(1, min(_EXACT_CHUNK, _CHUNK_FLOATS // max(floats_each, 1)))


def _inverses(stack):
    """Inverse of each square matrix of a stack; NaN where LU finds one singular."""
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(stack)[0] != 0
        inv = np.full(stack.shape, np.nan)
        if ok.any() and not ok.all():
            inv[ok] = _inverses(stack[ok])
        return inv


def _theta_bounds(inv_fro2, smax, tol):
    """Upper bounds on sigma_max^2/sigma_min^4 of square subsets with
    ||S^-1||_F^2 = inv_fro2 and sigma_max(S) <= smax.

    sigma_min(S) >= 1/||S^-1||_F, less 2 tol: the computed inverse and the
    SVD that gives the exact ratio each carry an error of about tol.  The
    bound is inf where that floor is not positive or not finite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        floor = 1.0 / np.sqrt(inv_fro2) - 2.0 * tol
        bound = np.float64(smax) ** 2 / floor ** 4
    return np.where((floor > 0) & np.isfinite(bound), bound, np.inf)


def _max_by_bound(bounds, exact) -> float:
    """Max of exact(indices) over every subset, visited in decreasing order
    of bounds[index] in growing blocks, until the next bound times _SAFETY
    is below the best exact value: no subset left unvisited can attain it."""
    first = int(np.argmax(bounds))
    best = exact(np.array([first]))
    live = np.flatnonzero(bounds * _SAFETY >= best)
    live = live[live != first]
    order = live[np.argsort(-bounds[live], kind="stable")]
    start, size = 0, 1
    while start < order.size and bounds[order[start]] * _SAFETY >= best:
        size *= 2
        best = max(best, exact(order[start:start + size]))
        start += size
    return best


def _generic_bounds(MV, smax, tol):
    """Every r-row subset of the rows x r matrix MV, as rows of an index
    array, and the bound on its ratio from the batched inverse of MV[subset]."""
    rows, r = MV.shape
    subsets = np.empty((comb(rows, r), r), dtype=np.min_scalar_type(rows))
    bounds = np.empty(len(subsets))
    size, all_subsets = _block_size(r * r), combinations(range(rows), r)
    for lo in range(0, len(subsets), size):
        hi = min(lo + size, len(subsets))
        subsets[lo:hi] = list(islice(all_subsets, hi - lo))
        inv = _inverses(MV[subsets[lo:hi]])
        bounds[lo:hi] = _theta_bounds(np.einsum("bij,bij->b", inv, inv), smax, tol)
    return subsets, bounds


def hoffman_theta_exact(M) -> float:
    """Exact max of sigma_max^2/sigma_min^4 over full-row-rank row submatrices,
    over the C(rows, r) r-row subsets, r = rank(M).

    One SVD of M gives r, the floor, sigma_max(M) and the row-space basis
    V_r.  The r x r rows of M V_r of a subset have singular values no larger
    than the subset's own, so their batched inverse bounds its ratio; the
    batched SVD of M's rows then visits the subsets by decreasing bound.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    r, tol = _rank_and_tol(M, s)
    if r == 0:
        return 0.0
    rows, cols = M.shape
    _check_budget(comb(rows, r))
    subsets, bounds = _generic_bounds(M @ Vt[:r].T, s[0], tol)

    def exact(idx):
        best, size = 0.0, _block_size(r * cols)
        for lo in range(0, idx.size, size):
            sv = np.linalg.svd(M[subsets[idx[lo:lo + size]]], compute_uv=False)
            best = max(best, _theta_from_singular_values(sv, tol))
        return best

    return _max_by_bound(bounds, exact)


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


def _box_bounds(A_cols, smax, tol):
    """Bounds on the ratio of every compressed box stack B, in closed form.

    A subset keeps the rows R of A' (|R| = m, A'_R invertible) and, for a
    set J of the other variables, the rows a_j' with one bound row each
    dropped.  Up to a permutation B = [[X, W], [0, I_d]] with
    X = [[A'_R, 0], [A'_J, I_k]], so with C_R = (A'_R)^-1

        ||B^-1||_F^2 = 3 ||C_R||_F^2 + m + sum_{j in J} (3 ||a_j' C_R||^2 + 3).

    Returns the C(n, m) x m array of R, the C(n, m) x (n - m) array of the
    variables outside each R, and the bounds: subset (R_i, J) at index
    i 2^(n-m) + sum of 2^t over the positions t of J in row i of the second.
    """
    n, m = A_cols.shape
    free = n - m
    tops = np.array(list(combinations(range(n), m)), dtype=np.intp).reshape(comb(n, m), m)
    outside = np.ones((len(tops), n), dtype=bool)
    outside[np.arange(len(tops))[:, None], tops] = False
    rest = np.nonzero(outside)[1].reshape(len(tops), free)
    bounds = np.empty(len(tops) << free)
    size = _block_size(n * m + (1 << free))   # the products, then the sums over J
    for lo in range(0, len(tops), size):
        inv = _inverses(A_cols[tops[lo:lo + size]])
        with np.errstate(over="ignore", invalid="ignore"):
            proj = A_cols[rest[lo:lo + size]] @ inv
            sums = 3.0 * np.einsum("bij,bij->b", inv, inv)[:, None] + m
            for t in range(free):
                q = 3.0 * np.einsum("bi,bi->b", proj[:, t], proj[:, t]) + 3.0
                sums = np.concatenate([sums, sums + q[:, None]], axis=1)
        bounds[lo << free:(lo + len(inv)) << free] = _theta_bounds(sums.ravel(), smax, tol)
    return tops, rest, bounds


def hoffman_theta_exact_box(A, smax: float, tol: float) -> float:
    """Exact theta for M built from full-row-rank A and a finite two-sided box,
    where sigma_max(M) = smax and tol is M's subset floor.

    Valid maximal submatrices keep top rows S_top (|S_top| = m + k) and
    drop one bound row for each of k distinct variables inside S_top;
    the two sign choices give identical singular values.  That makes
    C(n, m) 2^(n-m) subsets, bounded in closed form (_box_bounds) and
    visited by decreasing bound.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    _check_budget(comb(n, m) * 2 ** (n - m))
    A_cols = A.T.copy()   # row i = column i of A
    tops, rest, bounds = _box_bounds(A_cols, smax, tol)
    free = n - m

    def exact(idx):
        tops_i, rest_i = tops[idx >> free], rest[idx >> free]
        dropped = ((idx[:, None] >> np.arange(free)) & 1).astype(bool)
        J = np.zeros((idx.size, n), dtype=bool)
        J[np.nonzero(dropped)[0], rest_i[dropped]] = True
        kept = J.copy()
        kept[np.arange(idx.size)[:, None], tops_i] = True
        ks = dropped.sum(axis=1)
        best = 0.0
        for k in np.unique(ks):
            d, rows = m + int(k), ks == k
            S_top = np.nonzero(kept[rows])[1].reshape(int(rows.sum()), d)
            J_mask = np.take_along_axis(J[rows], S_top, axis=1)
            size = _block_size(4 * d * d)   # each stack is 2d x 2d
            for lo in range(0, len(S_top), size):
                sv = _box_reduced_singular_values(A_cols, S_top[lo:lo + size],
                                                  J_mask[lo:lo + size], m)
                # the compressed stack omits singular values equal to 1; they never
                # attain the extremes since sigma_max >= sqrt(2) and sigma_min <= 1
                best = max(best, _theta_from_singular_values(sv, tol))
        return best

    return _max_by_bound(bounds, exact)


def hoffman_constant(A, G) -> tuple[float, bool]:
    """Polyhedral error-bound constant theta_bar of the multiplier system.

    Builds M = [[A', G'], [0, I]] and returns (theta_bar, True): the exact
    maximum over its full-row-rank submatrices, from one SVD of M.  An
    enumeration above the subset budget raises ValueError naming its count.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = build_hoffman_matrix(A, G)
    if (G is not None and np.size(G) and _two_sided_box_rows(G)
            and np.linalg.matrix_rank(A) == A.shape[0]):
        s = np.linalg.svd(M, compute_uv=False)
        return hoffman_theta_exact_box(A, s[0], _rank_and_tol(M, s)[1]), True
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
