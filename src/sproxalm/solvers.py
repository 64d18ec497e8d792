"""Iterative methods: the smoothed proximal augmented Lagrangian loop, the
classical augmented Lagrangian baseline, whose inner loop iterates the
same projected-gradient step kernel with p = 0, and the exact solves of
the inner minimisation of K and of the constrained proximal subproblem.

Notation used throughout: the augmented Lagrangian is

    L_rho(x; y) = f(x) + y'(Ax - b) + (rho/2)||Ax - b||^2,

and the smoothed surrogate adds a proximal anchor z:

    K(x, z; y) = L_rho(x; y) + (p/2)||x - z||^2,

which is strongly convex in x with modulus p - L_f whenever p > L_f.
One outer iteration of the smoothed method performs, in order, a dual
gradient step on y, a single projected gradient step on K in x, and an
exponential-averaging update of z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SolverParams
from .exceptions import ConvergenceError, DivergenceError
from .problem import Box, ProblemInstance
from .projection import project

_GUARD = 1e12
_INNER_STEPS = 200_000   # the step cap of alm_run's inner loop
# the counters of the full monitor, in SproxResult.monitor and run summaries
MONITOR_COUNTERS = ("phi_monotone_violations", "lemma34_violations",
                    "step_error_bound_violations", "checks")


@dataclass
class IterateState:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    t: int = 0

    def copy(self) -> "IterateState":
        return IterateState(self.x.copy(), self.y.copy(), self.z.copy(), self.t)


class Trace:
    """Column-major iteration trace with CSV export, read by column:
    ``column(name)`` for one of COLUMNS and ``eps()`` for the epsilon of
    each row, max(eq_res, cert_norm), over the rows written.

    Row convention: the row recorded at step index t describes the state
    after the update t -> t+1: f and the equality residual are evaluated
    at x^{t+1}, cert_norm is the proof certificate of the pair
    (x^{t+1}, y^{t+1}), and dx/dz are the step norms.  phi is the
    potential at the pre-step state (NaN unless monitored).
    """

    COLUMNS = ("t", "f", "eq_res", "cert_norm", "dx", "dz", "phi", "phi_ok")

    def __init__(self):
        self._n = 0
        self._data = np.empty((1024, 8))   # doubled by _grow as rows arrive

    def __len__(self) -> int:
        return self._n

    def _grow(self):
        data = np.empty((2 * self._data.shape[0], 8))
        data[: self._n] = self._data[: self._n]
        self._data = data

    def append(self, t, f, eq_res, cert_norm, dx, dz, phi=np.nan, phi_ok=np.nan):
        if self._n == self._data.shape[0]:
            self._grow()
        self._data[self._n] = (t, f, eq_res, cert_norm, dx, dz, phi, phi_ok)
        self._n += 1

    def column(self, name: str) -> np.ndarray:
        return self._data[: self._n, self.COLUMNS.index(name)].copy()

    def eps(self) -> np.ndarray:
        """max(eq_res, cert_norm) of each row: the epsilon of its pair."""
        return np.maximum(self.column("eq_res"), self.column("cert_norm"))

    def to_csv(self, path) -> None:
        """Comma-separated rows ending in CRLF under a header of COLUMNS:
        t as an integer, floats by their shortest round-trip repr, and an
        empty field for a NaN phi or phi_ok (an unmonitored row)."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.COLUMNS) + "\r\n")
            for row in self._data[: self._n]:   # row by row: no copy of the whole trace
                t, f, eq, cert, dx, dz, phi, ok = row.tolist()
                phi_s = "" if math.isnan(phi) else repr(phi)
                ok_s = "" if math.isnan(ok) else int(ok)
                fh.write(f"{int(t)},{f!r},{eq!r},{cert!r},{dx!r},{dz!r},{phi_s},{ok_s}\r\n")


def _norm(v) -> float:
    """Euclidean norm of a real 1-D vector: what ``np.linalg.norm`` computes
    for one, bit for bit, without its dispatch cost in the main loop."""
    return math.sqrt(v @ v)


def _proj(P, x):
    """Exact projection of x onto P: a clamp for boxes, which never goes
    through ``project``, and one least-distance solve for halfspaces."""
    if isinstance(P, Box):
        return P.clip(x)
    return project(P, x)


def inner_minimize_K(inst: ProblemInstance, y, z, params: SolverParams,
                     tol: float = 1e-10):
    """x(y, z) = argmin_{x in P} K(x, z; y): one exact solve of the strongly
    convex QP ``inst.inner_qp(rho, p)``, H = Q + rho A'A + pI, with the linear
    term c = q + A'(y - rho b) - p z.  A scaled fixed-point residual
    L ||x - proj(x - (Hx + c)/L)|| above tol at the returned point, with
    L = L_f + rho ||A||^2 + p, raises ConvergenceError carrying it as ``best``.
    """
    if params.p <= inst.lipschitz_grad:
        raise ValueError("inner solve requires p > L_f (strong convexity)")
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    rho, p = params.rho, params.p
    qp = inst.inner_qp(rho, p)
    c = inst.objective.q + inst.eq_matrix.T @ (y - rho * inst.eq_rhs) - p * z
    x = qp.solve(c)[0]
    L = inst.lipschitz_grad + rho * inst.sigma_max_A ** 2 + p
    res = L * _norm(x - _proj(inst.polyhedron, x - (qp.H @ x + c) / L))
    if not res <= tol:
        raise ConvergenceError("inner solve misses its fixed-point residual tolerance",
                               best=x, residual=res)
    return x


@dataclass
class ProxSolution:
    """Solution of min f(x) + (p/2)||x-z||^2 over {Ax = b, x in P}."""

    x: np.ndarray
    value: float
    y: np.ndarray
    eq_residual: float
    outer_iters: int   # always 1: one exact solve

    def __iter__(self):  # supports `x, value = solve_constrained_strongly_convex(...)`
        return iter((self.x, self.value))


def solve_constrained_strongly_convex(inst: ProblemInstance, z, params: SolverParams,
                                      tol: float = 1e-10) -> ProxSolution:
    """Exact solution of the proximal subproblem min f(x) + (p/2)||x-z||^2
    over {Ax = b, x in P}.

    f is quadratic, so this is one solve of the instance's factorisation
    ``inst.prox_qp(params.p)``.  A solution with ||Ax - b|| > tol (1 + ||b||)
    raises ConvergenceError carrying it as ``best``.
    """
    if params.p <= inst.lipschitz_grad:
        raise ValueError("requires p > L_f")
    z = np.asarray(z, dtype=float)
    p = params.p
    x, y, _mu = inst.prox_qp(p).solve(inst.objective.q - p * z)
    feas = _norm(inst.eq_matrix @ x - inst.eq_rhs)
    sol = ProxSolution(x=x, value=inst.f(x) + 0.5 * p * float(np.dot(x - z, x - z)),
                       y=y, eq_residual=feas, outer_iters=1)
    if feas > tol * (1.0 + _norm(inst.eq_rhs)):
        raise ConvergenceError("proximal solution misses Ax = b by more than tol",
                               best=sol, residual=feas)
    return sol


@dataclass
class AlmResult:
    state: IterateState
    trace: Trace
    heuristic: bool
    converged: bool


def alm_run(inst: ProblemInstance, params: SolverParams) -> AlmResult:
    """Classical augmented Lagrangian iteration (exact-minimization form).

    Starts from x = the projection of the origin onto P and y = 0.  Each
    of at most max_iters outer steps minimizes L_rho(.; y) over P, then
    updates y <- y + rho (Ax - b); the run stops once the residual and the
    inner fixed-point residual reach max(target_eps, 1e-10).  The inner
    loop iterates the smoothed method's step kernel with p = 0 and step
    1/L_in, L_in = lambda_max(Q + rho A'A), for at most _INNER_STEPS steps:
    it ends at the first x whose residual L_in ||x - x+|| reaches the
    tolerance, or else at the last x whose residual it computed.  When the
    inner problem is not strongly convex the result is flagged heuristic.
    A projected inner step to a point of norm beyond 1e12, or to a
    non-finite one, raises DivergenceError carrying the last inner iterate
    (a point of P); multiplier or iterate norms beyond 1e12 after an outer
    step raise it carrying the IterateState (the nonconvex baseline may
    diverge).

    Trace note: the cert_norm column holds the inner fixed-point residual,
    which bounds the certificate available at (x, y + rho(Ax-b)) after the
    multiplier update absorbs the penalty gradient.
    """
    tol = max(params.target_eps, 1e-10)
    A, b = inst.eq_matrix, inst.eq_rhs
    rho = params.rho
    # the inner curvature: strong convexity and the step of the inner loop
    eig = np.linalg.eigvalsh(inst.objective.Q + rho * (A.T @ A))
    heuristic = not eig[0] > 1e-12
    L_in = float(eig[-1])
    step = _smoothed_step(inst, rho, 0.0, 1.0 / max(L_in, 1e-12))

    y = np.zeros(inst.m)
    x = _proj(inst.polyhedron, np.zeros(inst.n))
    gx, r = inst.grad_f(x), A @ x - b
    trace = Trace()
    b_scale = 1.0 + float(np.linalg.norm(b))
    converged, state_t = False, 0
    for t in range(params.max_iters):
        x_prev = x
        for k in range(1, _INNER_STEPS + 1):
            x1, gx1, r1, _v = step(x, y, x, gx, r)
            if not _norm(x1) <= _GUARD:
                raise DivergenceError("inner projected gradient diverged (iterate norm beyond "
                                      f"{_GUARD:g})", state=x)
            inner_res = L_in * _norm(x - x1)
            if inner_res <= tol or k == _INNER_STEPS:
                break   # at x, the point of inner_res
            x, gx, r = x1, gx1, r1
        feas = float(np.linalg.norm(r))
        y = y + rho * r
        if float(np.linalg.norm(y)) > _GUARD or float(np.linalg.norm(x)) > _GUARD:
            raise DivergenceError("ALM divergence (multiplier or iterate blow-up)",
                                  state=IterateState(x, y, x.copy(), t))
        trace.append(t, inst.f(x), feas, inner_res,
                     float(np.linalg.norm(x - x_prev)), 0.0)
        state_t = t + 1
        if feas <= tol * b_scale and inner_res <= tol:
            converged = True
            break
    return AlmResult(state=IterateState(x, y, x.copy(), state_t), trace=trace,
                     heuristic=heuristic, converged=converged)


def K_value(inst: ProblemInstance, x, z, y, params: SolverParams) -> float:
    r = inst.eq_matrix @ x - inst.eq_rhs
    return (inst.f(x) + float(y @ r) + 0.5 * params.rho * float(r @ r)
            + 0.5 * params.p * float(np.dot(x - z, x - z)))


def _smoothed_step(inst: ProblemInstance, rho: float, p: float, c: float):
    """One projected-gradient step of size c on K(., z; y) and its
    certificate, as a function step(x, y1, z, gx, r) built once per run:
    the primal step of the smoothed method, and with p = 0 (K = L_rho) one
    step of the ALM baseline's inner loop.

    Given x, the multiplier y1, the anchor z, gx = grad f(x) and
    r = Ax - b, step takes x1 = proj(x - c g) with g = grad_x K(x, z; y1).
    It returns (x1, grad f(x1), Ax1 - b, v), where

        v = grad f(x1) + A'y1 - g - (x1 - x)/c

    lies in grad f(x1) + A'y1 + N_P(x1), because x - c g - x1 is normal
    to P at x1.  Every returned array is freshly allocated.
    """
    A, b, At = inst.eq_matrix, inst.eq_rhs, inst.eq_matrix.T
    grad_f, P = inst.objective.grad, inst.polyhedron

    def step(x, y1, z, gx, r):
        Aty = At @ y1
        g = gx + Aty + rho * (At @ r) + p * (x - z)
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient in the primal step")
        x1 = _proj(P, x - c * g)
        gx1 = grad_f(x1)
        v = gx1 + Aty - g - (x1 - x) / c
        return x1, gx1, A @ x1 - b, v

    return step


def sprox_alm_step(inst: ProblemInstance, state: IterateState,
                   params: SolverParams) -> IterateState:
    """One outer iteration: dual ascent on y, projected gradient step on
    K in x, exponential averaging of z, exactly in that order."""
    x, y, z = state.x, state.y, state.z
    if x.shape[0] != inst.n or y.shape[0] != inst.m:
        raise ValueError("state dimensions do not match the instance")
    r = inst.eq_matrix @ x - inst.eq_rhs
    y1 = y + params.alpha * r
    x1, *_ = _smoothed_step(inst, params.rho, params.p, params.c)(x, y1, z, inst.grad_f(x), r)
    return IterateState(x=x1, y=y1, z=z + params.beta * (x1 - z), t=state.t + 1)


@dataclass
class BestCertificate:
    t: int
    x: np.ndarray
    y: np.ndarray
    cert_norm: float
    eq_residual: float

    @property
    def eps(self) -> float:
        return max(self.cert_norm, self.eq_residual)


@dataclass
class SproxResult:
    state: IterateState
    trace: Trace
    best: BestCertificate | None
    monitor: dict


def sprox_alm_run(inst: ProblemInstance, params: SolverParams, x0=None) -> SproxResult:
    """Run the smoothed proximal augmented Lagrangian method.

    Starts from x = the projection of x0 (default: the origin) onto P,
    the anchor z = x, and y = 0.
    Stops at max_iters or when max(||v||, ||Ax-b||) for the current pair
    reaches target_eps.  The best pair seen (smallest max of the two
    residuals) is returned alongside the final state; with
    monitor_level="full" the potential decrease and lower-bound checks
    run every trace_every iterations and their violation counts land in
    the monitor dict.
    """
    x = _proj(inst.polyhedron, np.zeros(inst.n) if x0 is None else np.asarray(x0, dtype=float))
    z = x.copy()
    y = np.zeros(inst.m)

    monitor = dict.fromkeys(MONITOR_COUNTERS, 0)
    mon_ctx = None
    if params.monitor_level == "full":
        from .diagnostics import MonitorContext

        mon_ctx = MonitorContext(inst, params)

    trace = Trace()
    step = _smoothed_step(inst, params.rho, params.p, params.c)
    f = inst.objective.value
    alpha, beta, max_iters = params.alpha, params.beta, params.max_iters
    target_eps, trace_every = params.target_eps, params.trace_every
    # the best (t, x1, y1, cert, eq1) so far: x1 and y1 are fresh arrays each
    # step, so references to them are as good as copies
    best, best_eps = None, np.inf
    gx = inst.grad_f(x)
    r = inst.eq_matrix @ x - inst.eq_rhs
    state_t = 0
    for t in range(max_iters):
        y1 = y + alpha * r
        try:
            x1, gx1, r1, v = step(x, y1, z, gx, r)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} at iteration {t}") from exc
        z1 = z + beta * (x1 - z)
        dx = x1 - x
        cert = _norm(v)
        eq1 = _norm(r1)
        eps_t = max(cert, eq1)
        if best is None or eps_t < best_eps:
            best, best_eps = (t, x1, y1, cert, eq1), eps_t

        if _norm(y1) > _GUARD or _norm(x1) > _GUARD:
            raise DivergenceError("iterate or multiplier blow-up",
                                  state=IterateState(x1, y1, z1, t + 1))

        emit = (t % trace_every == 0) or (t == max_iters - 1)
        phi_val, phi_ok = np.nan, np.nan
        if emit and mon_ctx is not None:
            checks = mon_ctx.check_step(
                IterateState(x, y, z, t), IterateState(x1, y1, z1, t + 1),
                dx_norm=_norm(dx),
            )
            phi_val, phi_ok = checks["phi"], float(checks["descent_ok"])
            monitor["checks"] += 1
            monitor["phi_monotone_violations"] += int(not checks["descent_ok"])
            if checks["lower_bound_ok"] is not None:
                monitor["lemma34_violations"] += int(not checks["lower_bound_ok"])
            monitor["step_error_bound_violations"] += int(not checks["step_error_bound_ok"])
        if emit:
            trace.append(t, f(x1), eq1, cert, _norm(dx), _norm(z1 - z), phi_val, phi_ok)

        x, y, z, gx, r = x1, y1, z1, gx1, r1
        state_t = t + 1
        if eps_t <= target_eps:
            break
    return SproxResult(state=IterateState(x, y, z, state_t), trace=trace,
                       best=None if best is None else BestCertificate(*best), monitor=monitor)
