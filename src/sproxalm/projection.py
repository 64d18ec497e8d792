"""Euclidean projection onto the polyhedral set P, an exact solver for
strongly convex QPs over {Ax = b, Gx <= h}, and the nonnegative
least-squares solver that both rest on.

Boxes project by componentwise clamping.  A halfspace system projects by
one least-distance solve: the projection of x onto {Gx <= h} is the QP
min 0.5||u||^2 - x'u s.t. Gu <= h, answered by ``StronglyConvexQP``
from a factorisation that the polyhedron builds once.  Both are exact.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConvergenceError, InfeasibleError
from .problem import Box, Polyhedron


def project(P: Polyhedron, x: np.ndarray) -> np.ndarray:
    """Exact projection of x onto P; an empty halfspace system raises
    InfeasibleError.  The multipliers of a halfspace projection are those
    of ``P.nearest_point_qp.solve(-x)``."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("projection input has non-finite coordinates")
    if isinstance(P, Box):
        return P.clip(x)
    return P.nearest_point_qp.solve(-x)[0]


def nnls(M, e, passive=None):
    """v >= 0 minimising ||Mv - e|| by the active-set method of Lawson &
    Hanson (Solving Least Squares Problems, ch. 23); returns (v, P), P the
    boolean mask of the passive columns, those free to be positive.

    Every iterate is v[P] = lstsq(M[:, P], e), zero off P.  The iteration
    ends on a P that meets the KKT conditions: v > 0 on P, and
    w = M'(e - Mv) <= tol off it, with tol = 10 max(M.shape) eps ||M||_F ||e||.
    A ``passive`` mask that meets them is returned with its v after one
    lstsq (a hot start); any other is ignored.  Off degenerate problems the
    KKT conditions fix P, so the start changes the work, not the bits of v.
    """
    M = np.asarray(M, dtype=float)
    e = np.asarray(e, dtype=float)
    n = M.shape[1]
    tol = 10 * max(M.shape) * np.finfo(float).eps * math.sqrt(np.vdot(M, M) * (e @ e))

    def fit(P):
        v = np.zeros(n)
        v[P] = np.linalg.lstsq(M[:, P], e, rcond=None)[0]
        return v

    if passive is not None:
        v = fit(passive)
        if (v[passive] > 0.0).all() and ((M.T @ (e - M @ v))[~passive] <= tol).all():
            return v, passive
    P = np.zeros(n, dtype=bool)
    v, w = np.zeros(n), M.T @ e
    for _ in range(3 * n + 1):
        w[P] = -np.inf
        if not n or w.max() <= tol:
            return v, P
        t = int(np.argmax(w))
        P[t] = True
        z = fit(P)
        if z[t] <= 0.0:   # roundoff: column t does not lower the residual; skip it this round
            P[t] = False
            w[t] = -np.inf
            continue
        while np.any(z[P] <= 0.0):   # step back to the first bound hit and drop that column
            B = np.flatnonzero(P & (z <= 0.0))
            ratios = v[B] / (v[B] - z[B])
            i = int(np.argmin(ratios))
            v += ratios[i] * (z - v)
            v[B[i]] = 0.0
            P &= v > 0.0
            z = fit(P)
        v = z
        w = M.T @ (e - M @ v)
    raise ConvergenceError(f"NNLS did not converge in {3 * n + 1} iterations", best=v)


class StronglyConvexQP:
    """Exact solver of  min 0.5 x'Hx + c'x  s.t.  Ax = b, Gx <= h  for one
    constraint matrix pair (A, G) and many linear terms c and equality
    right-hand sides b; H must be positive definite on the null space of A.

    Ax = b is eliminated through the SVD of A: x = x0 + N w, with x0 = A^+ b
    and N an orthonormal basis of null(A).  The reduced Hessian N'HN = LL'
    is factored once.  With T = L^{-1}N', the substitution
    u = L'w + T(Hx0 + c) turns each solve into the least-distance problem
    min ||u|| s.t. E u <= f, E = GT' with its rows (and f) scaled to unit
    norm, which is one nonnegative least-squares problem, solved by
    ``nnls``.  Each solve hot-starts from the passive set of the last one,
    which changes its work but not its result.  Empty feasible sets raise
    InfeasibleError.  H is kept as the attribute ``H``.
    """

    def __init__(self, H, A, b, G, h):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        n = H.shape[0]
        A = np.asarray(A, dtype=float).reshape(-1, n)
        G = np.asarray(G, dtype=float).reshape(-1, n)
        U, s, Vt = np.linalg.svd(A)
        r = int(np.sum(s > max(A.shape) * np.finfo(float).eps * s[0])) if s.size else 0
        self._A_pinv = (Vt[:r].T / s[:r]) @ U[:, :r].T
        N = Vt[r:].T
        self._T = np.linalg.solve(np.linalg.cholesky(N.T @ H @ N), N.T)
        Et = self._T @ G.T
        # the NNLS tolerance scales with the largest row of E, so a large row
        # would hide the KKT violation of a small one: scale them all to 1
        self._norms = np.linalg.norm(Et, axis=0)
        self._norms[self._norms == 0.0] = 1.0
        self._Et = Et / self._norms   # E' with unit columns
        self._M = np.vstack([-self._Et, np.zeros(G.shape[0])])   # last row: -f'/s per solve
        self.H, self._A, self._G = H, A, G
        self._h = np.asarray(h, dtype=float).reshape(-1)
        self._shifted = self._shift(b)
        self._passive = None   # passive set of the last NNLS: the next solve's hot start

    def _shift(self, b):
        """(x0, T H x0, (h - G x0) / row norms of E) for the right-hand side
        b, x0 = A^+ b."""
        b = np.asarray(b, dtype=float).reshape(-1)
        x0 = self._A_pinv @ b
        if np.linalg.norm(self._A @ x0 - b) > 1e-9 * (1.0 + np.linalg.norm(b)):
            raise InfeasibleError("the equality system Ax = b is inconsistent")
        return x0, self._T @ (self.H @ x0), (self._h - self._G @ x0) / self._norms

    def solve(self, c, b=None):
        """Return (x, y, mu) with Hx + c + A'y + G'mu = 0, mu >= 0, for the
        equality right-hand side b (by default the one given at construction)."""
        x0, t0, f0 = self._shifted if b is None else self._shift(b)
        c = np.asarray(c, dtype=float)
        t = t0 + self._T @ c
        f = f0 + self._Et.T @ t
        mu = np.zeros(f.shape[0])
        u = np.zeros(t.shape[0])
        if f.size and f.min() < 0.0:   # else u = 0 is feasible and optimal
            # v >= 0 minimising ||[E'; f'/s] v + e_last|| gives the multipliers
            # mu = s v / (1 + f'v/s) and u = -E'mu; 1 + f'v/s = 0 means no feasible u.
            # s = ||f|| keeps ||u|| near 1, so that denominator stays clear of roundoff.
            scale = math.sqrt(f @ f)
            M = self._M.copy()
            M[-1] = -f / scale
            e = np.zeros(M.shape[0])
            e[-1] = 1.0
            v, self._passive = nnls(M, e, self._passive)
            denom = 1.0 + float(f @ v) / scale
            if denom <= 1e-10:
                raise InfeasibleError("the inequality system Gx <= h misses the affine set Ax = b")
            mu = (scale / denom) * v
            u = -self._Et @ mu
            mu /= self._norms   # the multipliers of the unscaled rows
        x = x0 + self._T.T @ (u - t)
        if not len(self._A):   # no equality rows: y is empty
            return x, np.zeros(0), mu
        y = -self._A_pinv.T @ (self.H @ x + c + self._G.T @ mu)
        return x, y, mu
