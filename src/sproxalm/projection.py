"""Euclidean projection onto the polyhedral set P, and an exact solver
for strongly convex QPs over {Ax = b, Gx <= h}.

Boxes project by componentwise clamping (exact).  General halfspace
systems are handled through the concave projection dual

    maximize_{mu >= 0}  -0.5 ||G' mu||^2 + mu'(G x - h),

driven by accelerated projected gradient ascent with fixed step
1 / sigma_max(G)^2; the primal point is recovered as x - G' mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import nnls

from .exceptions import ConvergenceError, InfeasibleError
from .problem import Box, Polyhedron


@dataclass
class ProjectionResult:
    point: np.ndarray
    dual_multipliers: np.ndarray | None
    residual: float


def _kkt_residual(G, h, x_proj, mu, h_scale):
    viol = float(np.max(G @ x_proj - h, initial=0.0))
    compl = float(np.sum(np.abs(mu * (G @ x_proj - h))))
    return max(viol / h_scale, compl)


def project(P: Polyhedron, x: np.ndarray, tol: float = 1e-10,
            max_iters: int = 200_000, mu0=None) -> ProjectionResult:
    """Project x onto P to KKT residual <= tol.

    Box projection is exact with residual 0.  For halfspace systems the
    dual ascent terminates once the constraint violation (relative to
    1 + ||h||) and the complementary slackness sum both fall below tol;
    hitting the iteration cap raises ConvergenceError carrying the best
    iterate found.  ``mu0`` optionally warm-starts the dual iteration.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("projection input has non-finite coordinates")

    if isinstance(P, Box):
        return ProjectionResult(point=P.clip(x), dual_multipliers=None, residual=0.0)

    G, h = P.G, P.h
    if G.shape[0] == 0:
        return ProjectionResult(point=x.copy(), dual_multipliers=np.zeros(0), residual=0.0)
    if P.contains(x, tol=0.0):
        return ProjectionResult(point=x.copy(), dual_multipliers=np.zeros(G.shape[0]),
                                residual=0.0)

    h_scale = 1.0 + float(np.linalg.norm(h))
    step = 1.0 / max(P.sigma_max_G ** 2, 1e-300)
    mu = np.zeros(G.shape[0]) if mu0 is None else np.maximum(np.asarray(mu0, dtype=float), 0.0)
    mu_prev = mu.copy()
    theta_prev = 1.0
    best = None
    best_res = np.inf
    for k in range(max_iters):
        theta = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta_prev ** 2))
        w = mu + ((theta_prev - 1.0) / theta) * (mu - mu_prev)
        w = np.maximum(w, 0.0)
        grad = G @ (x - G.T @ w) - h  # dual gradient at w
        mu_next = np.maximum(w + step * grad, 0.0)

        pt = x - G.T @ mu_next
        res = _kkt_residual(G, h, pt, mu_next, h_scale)
        if res < best_res:
            best_res = res
            best = ProjectionResult(point=pt, dual_multipliers=mu_next, residual=res)
        if res <= tol:
            return best
        mu_prev, mu, theta_prev = mu, mu_next, theta
    raise ConvergenceError(
        f"projection did not reach tol={tol} in {max_iters} iterations",
        best=best, residual=best_res,
    )


class StronglyConvexQP:
    """Exact solver of  min 0.5 x'Hx + c'x  s.t.  Ax = b, Gx <= h  for one
    constraint system and many linear terms c; H must be positive
    definite on the null space of A.

    Ax = b is eliminated through the SVD of A: x = x0 + N w, with N an
    orthonormal basis of null(A).  The reduced Hessian N'HN = LL' is
    factored once.  With T = L^{-1}N', the substitution u = L'w + T(Hx0 + c)
    turns each solve into the least-distance problem min ||u|| s.t.
    E u <= f, E = GT', which is one nonnegative least-squares problem
    (Lawson & Hanson, Solving Least Squares Problems, ch. 23).
    Empty feasible sets raise InfeasibleError.
    """

    def __init__(self, H, A, b, G, h):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        n = H.shape[0]
        A = np.asarray(A, dtype=float).reshape(-1, n)
        G = np.asarray(G, dtype=float).reshape(-1, n)
        b = np.asarray(b, dtype=float).reshape(-1)
        U, s, Vt = np.linalg.svd(A)
        r = int(np.sum(s > max(A.shape) * np.finfo(float).eps * s[0])) if s.size else 0
        self._A_pinv = (Vt[:r].T / s[:r]) @ U[:, :r].T
        x0 = self._A_pinv @ b
        if np.linalg.norm(A @ x0 - b) > 1e-9 * (1.0 + np.linalg.norm(b)):
            raise InfeasibleError("the equality system Ax = b is inconsistent")
        N = Vt[r:].T
        self._T = solve_triangular(np.linalg.cholesky(N.T @ H @ N), N.T, lower=True)
        self._Et = self._T @ G.T   # E'
        self._M = np.vstack([-self._Et, np.zeros(G.shape[0])])   # last row: -f'/s per solve
        self._x0, self._t0 = x0, self._T @ (H @ x0)
        self._f0 = np.asarray(h, dtype=float).reshape(-1) - G @ x0
        self._H, self._G = H, G

    def solve(self, c):
        """Return (x, y, mu) with Hx + c + A'y + G'mu = 0, mu >= 0."""
        c = np.asarray(c, dtype=float)
        t = self._t0 + self._T @ c
        f = self._f0 + self._Et.T @ t
        mu = np.zeros(f.shape[0])
        u = np.zeros(t.shape[0])
        if f.size and f.min() < 0.0:   # else u = 0 is feasible and optimal
            # v >= 0 minimising ||[E'; f'/s] v + e_last|| gives the multipliers
            # mu = s v / (1 + f'v/s) and u = -E'mu; 1 + f'v/s = 0 means no feasible u.
            # s = ||f|| keeps ||u|| near 1, so that denominator stays clear of roundoff.
            scale = float(np.linalg.norm(f))
            M = self._M.copy()
            M[-1] = -f / scale
            e = np.zeros(M.shape[0])
            e[-1] = 1.0
            v, _ = nnls(M, e)
            denom = 1.0 + float(f @ v) / scale
            if denom <= 1e-10:
                raise InfeasibleError("the inequality system Gx <= h misses the affine set Ax = b")
            mu = (scale / denom) * v
            u = -self._Et @ mu
        x = self._x0 + self._T.T @ (u - t)
        y = -self._A_pinv.T @ (self._H @ x + c + self._G.T @ mu)
        return x, y, mu
