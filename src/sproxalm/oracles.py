"""Exact small-scale solvers: reference solvers for tests, and the exact
box lower bound.

Everything here enumerates combinatorial structure (active sets, box
faces) and solves dense KKT systems, so it is exact up to linear-algebra
roundoff but only viable at desk scale.  The program's own QPs go through
``projection.StronglyConvexQP``; the active-set enumerator is the
independent reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .exceptions import InfeasibleError
from .problem import Box, ProblemInstance

_TOL = 1e-9   # feasibility, multiplier-sign and KKT-residual tolerance of the oracles
_FACE_BATCH = 2 ** 16   # box faces per batched solve of _box_faces: bounds its memory


@dataclass
class ExactQpSolution:
    x: np.ndarray
    y: np.ndarray       # equality multipliers
    mu: np.ndarray      # inequality multipliers, full length, zeros off the active set
    active: frozenset   # activation pattern used by the KKT solve
    value: float


def solve_qp_active_set(H, c, A, b, G, h) -> ExactQpSolution:
    """Exact minimizer of 0.5 x'Hx + c'x over {Ax = b, Gx <= h}, H positive definite.

    Enumerates active subsets of the inequality rows by size, solving
    each equality-constrained KKT system and accepting the first candidate
    that is primal feasible with nonnegative multipliers.  The reference
    that ``projection.StronglyConvexQP`` is tested against: its cost grows
    as 2^l, and it rejects every singular KKT system, so dependent
    equality rows leave it without a solution.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float)) if A is not None else np.zeros((0, H.shape[0]))
    b = np.atleast_1d(np.asarray(b, dtype=float)) if b is not None else np.zeros(0)
    G = np.atleast_2d(np.asarray(G, dtype=float)) if G is not None else np.zeros((0, H.shape[0]))
    h = np.atleast_1d(np.asarray(h, dtype=float)) if h is not None else np.zeros(0)
    n, m, l = H.shape[0], A.shape[0], G.shape[0]
    h_scale = 1.0 + float(np.max(np.abs(h), initial=0.0))

    def try_active(S):
        S = list(S)
        k = len(S)
        GS = G[S]
        KKT = np.zeros((n + m + k, n + m + k))
        KKT[:n, :n] = H
        KKT[:n, n:n + m] = A.T
        KKT[:n, n + m:] = GS.T
        KKT[n:n + m, :n] = A
        KKT[n + m:, :n] = GS
        rhs = np.concatenate([-c, b, h[S]])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            return None
        # a singular KKT matrix that LU factors through roundoff gives a huge,
        # inconsistent solution, e.g. for the opposite rows of a box coordinate
        if not np.all(np.isfinite(sol)) or \
                np.linalg.norm(KKT @ sol - rhs) > _TOL * (1.0 + np.linalg.norm(rhs)):
            return None
        x = sol[:n]
        y = sol[n:n + m]
        muS = sol[n + m:]
        if l and np.any(G @ x - h > _TOL * h_scale):
            return None
        if np.any(muS < -_TOL):
            return None
        mu = np.zeros(l)
        mu[S] = np.maximum(muS, 0.0)
        val = 0.5 * float(x @ (H @ x)) + float(c @ x)
        return ExactQpSolution(x=x, y=y, mu=mu, active=frozenset(S), value=val)

    for k in range(l + 1):
        for S in combinations(range(l), k):
            out = try_active(S)
            if out is not None:
                return out
    raise InfeasibleError("no active set yields a feasible KKT point; system may be infeasible")


def project_polyhedron_exact(C1, b1, C2, b2, point):
    """Exact Euclidean projection onto {C1 x <= b1, C2 x = b2} via enumeration.

    Returns (projection, distance).  Raises InfeasibleError when the set
    is empty.
    """
    point = np.asarray(point, dtype=float)
    n = point.shape[0]
    sol = solve_qp_active_set(np.eye(n), -point, C2, b2, C1, b1)
    return sol.x, float(np.linalg.norm(sol.x - point))


def solve_constrained_qp_oracle(inst: ProblemInstance, z, p: float) -> ExactQpSolution:
    """Exact solution of min f(x) + (p/2)||x-z||^2 over {Ax=b, x in P}.

    Requires Q + pI positive definite.
    """
    obj = inst.objective
    z = np.asarray(z, dtype=float)
    G, h = inst.polyhedron.as_halfspaces()
    return solve_qp_active_set(obj.Q + p * np.eye(inst.n), obj.q - p * z, inst.eq_matrix,
                               inst.eq_rhs, G, h)


def _box_faces(inst: ProblemInstance, bound_tol: float, skip_singular: bool):
    """Clipped stationary points of the box faces, in face order.

    A face sets each coordinate free, at lo or at hi (digits 0, 1, 2),
    and faces are ordered as ``itertools.product((0, 1, 2), repeat=n)``.
    The faces with free set F share the KKT matrix
    [[Q_FF, A_F'], [A_F, 0]], so each of the 2^n matrices is solved once
    for the right-hand sides of all 2^(n-|F|) lo/hi choices of the fixed
    coordinates; the matrices of one free-set size k go through one
    batched ``eigvalsh`` and one batched ``solve`` (in batches of at most
    ``_FACE_BATCH`` faces, so one batch up to n = 11).  A singular matrix
    (numerical rank below its order) has its faces solved by ``lstsq``,
    or skipped when ``skip_singular``.  A face is kept when its KKT
    residual is within 1e-8 (relative), its free coordinates within
    ``bound_tol`` of the box, and its clipped point satisfies Ax = b to
    1e-8 (relative); a vertex, when it satisfies Ax = b to 1e-9
    (relative).  Faces that fix a coordinate at an infinite bound are
    left out.

    Returns (digits, X, Y): one row per kept face, its digits, its point
    and its equality multipliers (zero at a vertex).
    """
    obj = inst.objective
    Q, q = obj.Q, obj.q
    A, b = inst.eq_matrix, inst.eq_rhs
    n, m = inst.n, inst.m
    lo, hi = inst.polyhedron.lo, inst.polyhedron.hi
    b_scale = 1.0 + np.linalg.norm(b)
    cols = np.arange(n)
    fixed_sets = (np.arange(2 ** n)[:, None] >> cols) & 1 == 1
    batches = []   # fixed sets of one size, at most _FACE_BATCH faces per batch
    for r in range(n + 1):
        of_size = fixed_sets[fixed_sets.sum(axis=1) == r]
        step = max(1, _FACE_BATCH >> r)
        batches += [of_size[i:i + step] for i in range(0, len(of_size), step)]
    kept_d, kept_x, kept_y = [np.zeros((0, n), dtype=int)], [np.zeros((0, n))], [np.zeros((0, m))]
    for fixed in batches:
        # B free sets F of size k and their fixed sets C, each sorted
        B, r = fixed.shape[0], int(fixed[0].sum())
        k = n - r
        F = np.nonzero(~fixed)[1].reshape(B, k)
        C = np.nonzero(fixed)[1].reshape(B, r)
        at_hi = (np.arange(2 ** r)[:, None] >> np.arange(r)) & 1 == 1
        XC = np.where(at_hi, hi[C][:, None], lo[C][:, None])   # (B, 2^r, r)
        keep = np.isfinite(XC).all(axis=2)
        XC[~keep] = 0.0
        face, choice = np.arange(B)[:, None, None], np.arange(2 ** r)[:, None]
        digits = np.zeros((B, 2 ** r, n), dtype=int)
        digits[face, choice, C[:, None]] = 1 + at_hi
        X = np.zeros((B, 2 ** r, n))
        X[face, choice, C[:, None]] = XC
        if k == 0:
            if m and skip_singular:  # a vertex's KKT matrix is the m x m zero block
                continue
            keep &= np.linalg.norm(X @ A.T - b, axis=2) <= _TOL * b_scale
            Y = np.zeros((B, 2 ** r, m))
        else:
            QF = Q[F]
            K = np.zeros((B, k + m, k + m))
            K[:, :k, :k] = np.take_along_axis(QF, F[:, None], axis=2)
            K[:, :k, k:] = A.T[F]
            K[:, k:, :k] = A.T[F].transpose(0, 2, 1)
            rhs = np.empty((B, 2 ** r, k + m))
            rhs[..., :k] = -(q[F][:, None] + XC @ np.take_along_axis(QF, C[:, None], axis=2)
                             .transpose(0, 2, 1))
            rhs[..., k:] = b - XC @ A.T[C]
            # LU can factor a rank-deficient K (every K with k < m) through
            # roundoff into points that miss Ax = b by ~1e-12 and shift the
            # value by as much, so singularity is decided by rank, not by
            # an exact zero pivot.  K is symmetric: its |eigenvalues| are
            # its singular values, cut as in np.linalg.matrix_rank.
            sv = np.abs(np.linalg.eigvalsh(K))
            full = sv.min(axis=1) > sv.max(axis=1) * (k + m) * np.finfo(float).eps
            sol = np.zeros_like(rhs)
            sol[full] = np.linalg.solve(K[full], rhs[full].transpose(0, 2, 1)).transpose(0, 2, 1)
            for i in np.flatnonzero(~full):
                if skip_singular:
                    keep[i] = False
                else:
                    sol[i] = np.linalg.lstsq(K[i], rhs[i].T, rcond=None)[0].T
            resid = np.linalg.norm(sol @ K.transpose(0, 2, 1) - rhs, axis=2)
            keep &= resid <= 1e-8 * (1.0 + np.linalg.norm(rhs, axis=2))
            xf, Y = sol[..., :k], sol[..., k:]
            loF, hiF = lo[F][:, None], hi[F][:, None]
            keep &= ((xf >= loF - bound_tol) & (xf <= hiF + bound_tol)).all(axis=2)
            X[face, choice, F[:, None]] = np.clip(xf, loF, hiF)
            keep &= np.linalg.norm(X @ A.T - b, axis=2) <= 1e-8 * b_scale
        kept_d.append(digits[keep])
        kept_x.append(X[keep])
        kept_y.append(Y[keep])
    digits = np.concatenate(kept_d)
    order = np.argsort(digits @ 3 ** cols[::-1])
    return digits[order], np.concatenate(kept_x)[order], np.concatenate(kept_y)[order]


def exact_lower_bound_box_qp(inst: ProblemInstance):
    """Exact global minimum of an indefinite quadratic over {x in box : Ax = b}.

    The global minimum over the compact feasible set is attained at a
    stationary point of the problem restricted to some box face, and
    those are solutions of a linear KKT system.  The 3^n faces are
    solved with 2^n factorisations, one per free set of k coordinates,
    each solved for the 2^(n-k) faces of its free set.  Ties go to the
    first face in ``itertools.product((0, 1, 2), repeat=n)`` order
    (0 free, 1 at lo, 2 at hi).  Returns (value, argmin).
    """
    obj = inst.objective
    P = inst.polyhedron
    if not isinstance(P, Box) or not P.is_finite():
        raise TypeError("oracle requires a finite box polyhedron")
    span = 1.0 + float(np.max(P.hi - P.lo))
    _digits, X, _Y = _box_faces(inst, _TOL * span, skip_singular=False)
    if not len(X):
        raise InfeasibleError("no feasible face found; feasible set appears empty")
    vals = 0.5 * np.einsum("ij,ij->i", X @ obj.Q.T, X) + X @ obj.q
    x = X[np.argmin(vals)].copy()
    return obj.value(x), x


def enumerate_kkt_points(inst: ProblemInstance):
    """All KKT points of a quadratic instance over a box with Ax = b.

    Enumerates box faces in ``itertools.product((0, 1, 2), repeat=n)``
    order, skipping faces whose KKT system is singular; each candidate
    carries (x, y, mu) with mu the multipliers of the active bound rows
    (sign-checked).  Used as a stationarity oracle at desk scale.
    """
    obj = inst.objective
    if not isinstance(inst.polyhedron, Box):
        raise TypeError("oracle requires a box polyhedron")
    digits, X, Y = _box_faces(inst, _TOL, skip_singular=True)
    # bound multipliers from stationarity on the fixed coordinates:
    # grad f + A'y + mu_hi - mu_lo = 0 componentwise
    g = X @ obj.Q.T + obj.q + Y @ inst.eq_matrix
    at_lo, at_hi = digits == 1, digits == 2
    ok = ~np.any((at_lo & (g < -_TOL)) | (at_hi & (g > _TOL)), axis=1)
    mu = np.where(at_lo, g, 0.0) - np.where(at_hi, g, 0.0)
    return [(X[i], Y[i], mu[i]) for i in np.flatnonzero(ok)]
