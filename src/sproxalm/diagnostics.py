"""Stationarity certificates, the potential function, and empirical
verifiers for the dual error bound, the polyhedral distance bound, and
the segment decomposition of the residual path.

A pair (x, y) is epsilon-stationary when ||Ax - b|| <= epsilon and some
v in grad f(x) + A'y + subdifferential of the indicator of P has
||v|| <= epsilon.  Certificates are produced two ways: from one solver
step (proof certificate) and by min-norm nonnegative least squares over
the active constraint normals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .constants import SolverParams, hoffman_constant, sigma5_from_theta
from .exceptions import ConvergenceError, StepMismatchError
from .problem import ProblemInstance, QuadraticObjective
from .projection import StronglyConvexQP, nnls
from .solvers import (IterateState, K_value, _norm, _smoothed_step, inner_minimize_K,
                      solve_constrained_strongly_convex)

logger = logging.getLogger(__name__)


@dataclass
class StationarityReport:
    eq_residual: float
    cert_vector: np.ndarray
    cert_norm: float
    epsilon: float
    method: str


def certificate_from_step(inst: ProblemInstance, x_prev, state_next: IterateState,
                          z_prev, params: SolverParams) -> StationarityReport:
    """Certificate of (x^{t+1}, y^{t+1}) reconstructed from one solver step.

    Replays the step from x_prev with the solver's own kernel, verifies
    that state_next.x is its projected-gradient image to 1e-8 (1 + ||x||)
    (raises StepMismatchError otherwise), and returns the step's
    certificate.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    z_prev = np.asarray(z_prev, dtype=float)
    r = inst.eq_matrix @ x_prev - inst.eq_rhs
    x1, _gx1, r1, v = _smoothed_step(inst, params.rho, params.p, params.c)(
        x_prev, state_next.y, z_prev, inst.grad_f(x_prev), r)
    scale = 1.0 + float(np.linalg.norm(state_next.x))
    if float(np.linalg.norm(x1 - state_next.x)) > 1e-8 * scale:
        raise StepMismatchError("state_next is not the projected step from x_prev")
    eq = float(np.linalg.norm(r1))
    cn = float(np.linalg.norm(v))
    return StationarityReport(eq_residual=eq, cert_vector=v, cert_norm=cn,
                              epsilon=max(eq, cn), method="proof-certificate")


def certificate_minnorm(inst: ProblemInstance, x, y) -> StationarityReport:
    """Minimum-norm certificate via nonnegative least squares on the
    outward normals of the near-active rows of P = {Gx <= h}; exact when
    P = R^n.

    With s = 1 + max|h| (for a box, 1 + max|finite bound|), x must lie in
    P within 1e-7 s, and a row is near-active when (Gx - h)_j >= -1e-7 s:
    one tolerance, scaled once.  Nearly-active rows are included in the
    candidate set (inclusion can only lower the min-norm value).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    P = inst.polyhedron
    G, h = P.as_halfspaces()
    active_tol = 1e-7 * (1.0 + float(np.max(np.abs(h), initial=0.0)))
    if not P.contains(x, tol=1e-7):   # contains scales its tol by the same s
        raise ValueError("x lies outside P beyond active_tol")

    g0 = inst.grad_f(x) + inst.eq_matrix.T @ y
    N = G[G @ x - h >= -active_tol].T
    if N.shape[1] == 0:
        v = g0
    else:
        mu, _ = nnls(N, -g0)
        v = g0 + N @ mu
    eq = float(np.linalg.norm(inst.eq_matrix @ x - inst.eq_rhs))
    cn = float(np.linalg.norm(v))
    return StationarityReport(eq_residual=eq, cert_vector=v, cert_norm=cn,
                              epsilon=max(eq, cn), method="minnorm-nnls")


def potential_value(inst: ProblemInstance, state: IterateState, params: SolverParams,
                    tol: float = 1e-10):
    """Potential phi = K(x,z;y) - 2 d(y,z) + 2 P(z) with its three parts.

    d(y,z) = K(x(y,z), z; y) and P(z) come from exact solves of the
    instance's factorisations: x(y,z) by ``inner_minimize_K``, checked to
    tolerance tol, and P(z) by the constrained proximal solve.
    """
    x, y, z = state.x, state.y, state.z
    Kv = K_value(inst, x, z, y, params)
    d = K_value(inst, inner_minimize_K(inst, y, z, params, tol=tol), z, y, params)
    prox = solve_constrained_strongly_convex(inst, z, params, tol=tol)
    phi = Kv - 2.0 * d + 2.0 * prox.value
    return phi, (Kv, d, prox.value)


class MonitorContext:
    """Per-run state of the full monitor: the potential of the last
    checked state t+1, and the constants of the descent inequality.  Every
    subproblem it solves is exact, so no solve depends on an earlier one.
    While beta (~1e-37) moves z below the rounding of the linear terms,
    x(y+, z_t) and P(z_{t+1}) repeat the last solve of their QP, kept by it."""

    def __init__(self, inst: ProblemInstance, params: SolverParams):
        self.inst = inst
        self.params = params
        self._last = None   # (state, phi) of the last check's state t+1
        assert_lb = inst.lower_bound is not None and inst.lower_bound_kind in (
            "exact", "certified")
        self.lower_bound = inst.lower_bound if assert_lb else None
        p, c = params.p, params.c
        Lf = inst.lipschitz_grad
        self.sigma2 = c * (p - Lf) / (1.0 + c * (p - Lf))

    def check_step(self, state_t: IterateState, state_t1: IterateState,
                   dx_norm: float | None = None) -> dict:
        inst, params = self.inst, self.params
        # consecutive checks share a state: the last state t+1 is this state t
        last = self._last
        if last is not None and all(np.array_equal(getattr(state_t, k), getattr(last[0], k))
                                    for k in "xyz"):
            phi_t = last[1]
        else:
            phi_t, _ = potential_value(inst, state_t, params)
        phi_t1, _ = potential_value(inst, state_t1, params)
        self._last = (state_t1.copy(), phi_t1)
        x_step = inner_minimize_K(inst, state_t1.y, state_t.z, params)
        eq_inner = _norm(inst.eq_matrix @ x_step - inst.eq_rhs)
        if dx_norm is None:
            dx_norm = _norm(state_t1.x - state_t.x)
        dz_norm = _norm(state_t1.z - state_t.z)

        slack = 1e-6 * (1.0 + abs(phi_t))
        rhs = (dx_norm ** 2 / (4.0 * params.c)
               + 0.5 * params.alpha * eq_inner ** 2
               + params.p / (3.0 * params.beta) * dz_norm ** 2)
        descent_ok = (phi_t - phi_t1) >= rhs - slack

        lower_bound_ok = None
        if self.lower_bound is not None:
            lower_bound_ok = phi_t >= self.lower_bound - 1e-8

        # one-step error bound: sigma2 ||x+ - x(y+, z)|| <= ||x+ - x|| + slack
        step_err = self.sigma2 * _norm(state_t1.x - x_step)
        step_ok = step_err <= dx_norm + slack

        return {
            "phi": phi_t,
            "decrease": phi_t - phi_t1,
            "descent_ok": bool(descent_ok),
            "lower_bound_ok": lower_bound_ok,
            "step_error_bound_ok": bool(step_ok),
        }


def check_step_inequalities(inst: ProblemInstance, state_t: IterateState,
                         state_t1: IterateState, params: SolverParams,
                         tol: float = 1e-10) -> dict:
    """On-demand primal-descent / dual-ascent / proximal-descent checks
    for one step; each entry is (lhs, rhs, ok) with slack 1e-6(1+|phi|)."""
    x, y, z = state_t.x, state_t.y, state_t.z
    x1, y1, z1 = state_t1.x, state_t1.y, state_t1.z
    A, b = inst.eq_matrix, inst.eq_rhs
    p, c, alpha, beta = params.p, params.c, params.alpha, params.beta
    phi_t, _ = potential_value(inst, state_t, params, tol=tol)
    slack = 1e-6 * (1.0 + abs(phi_t))

    out = {}
    # primal descent of K
    lhs = K_value(inst, x, z, y, params) - K_value(inst, x1, z1, y1, params)
    rhs = (np.linalg.norm(x - x1) ** 2 / (2.0 * c)
           + p / (2.0 * beta) * np.linalg.norm(z - z1) ** 2
           - alpha * np.linalg.norm(A @ x - b) ** 2)
    out["primal_descent"] = (lhs, rhs, bool(lhs >= rhs - slack))

    # dual ascent of d
    xi_t = inner_minimize_K(inst, y, z, params, tol=tol)
    xi_mix = inner_minimize_K(inst, y1, z, params, tol=tol)
    xi_t1 = inner_minimize_K(inst, y1, z1, params, tol=tol)
    d_t = K_value(inst, xi_t, z, y, params)
    d_t1 = K_value(inst, xi_t1, z1, y1, params)
    lhs = d_t1 - d_t
    rhs = (alpha * float((A @ x - b) @ (A @ xi_mix - b))
           + 0.5 * p * float((z1 - z) @ (z1 + z - 2.0 * xi_t1)))
    out["dual_ascent"] = (lhs, rhs, bool(lhs >= rhs - slack))

    # proximal descent of P
    prox_t = solve_constrained_strongly_convex(inst, z, params, tol=tol)
    prox_t1 = solve_constrained_strongly_convex(inst, z1, params, tol=tol)
    sigma4 = (p - inst.lipschitz_grad) / p
    lhs = prox_t1.value - prox_t.value
    rhs = (p * float((z1 - z) @ (z - prox_t.x))
           + p / (2.0 * sigma4) * np.linalg.norm(z - z1) ** 2)
    out["proximal_descent"] = (lhs, rhs, bool(lhs <= rhs + slack))
    return out


# ---------------------------------------------------------------------------
# dual error bound verifier
# ---------------------------------------------------------------------------

@dataclass
class ErrorBoundSample:
    y: np.ndarray
    z: np.ndarray
    lhs: float
    rhs_factor: float
    ratio: float


@dataclass
class ErrorBoundReport:
    samples: int
    max_ratio: float
    bound: float
    passed: bool
    skipped: int
    seed: int
    violations: int
    worst: ErrorBoundSample | None = None

    def to_dict(self) -> dict:
        """The report as JSON values; a non-finite max_ratio is None."""
        return {
            "samples": self.samples,
            "max_ratio": self.max_ratio if np.isfinite(self.max_ratio) else None,
            "bound": self.bound,
            "pass": self.passed,
            "skipped": self.skipped,
            "seed": self.seed,
            "violations": self.violations,
        }


def verify_dual_error_bound(inst: ProblemInstance, params: SolverParams,
                            n_samples: int, rng_seed: int,
                            sigma5_bar: float) -> ErrorBoundReport:
    """Sampled check of ||x(y,z) - xbar*(z)|| <= sigma5_bar ||A x(y,z) - b||.

    y and z are scaled Gaussian draws (z around a feasible anchor); the
    ratio is defined as 0 when the residual is below 1e-12 and the
    distance below 1e-9 (consistency of the zero-residual case).
    x(y,z) and xbar*(z) are exact solves of the instance's factorisations.
    A sample is skipped when x(y,z) fails the inner fixed-point check (to
    1e-10) or xbar*(z) misses Ax = b by more than 1e-10 (1 + ||b||); more
    than 10% skipped samples raises RuntimeError.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if params.p <= inst.lipschitz_grad:
        raise ValueError("requires p > L_f")
    rng = np.random.default_rng(rng_seed)
    anchor = inst.meta.get("x_feas")
    anchor = np.zeros(inst.n) if anchor is None else np.asarray(anchor, dtype=float)

    max_ratio = 0.0
    worst = None
    skipped = 0
    violations = 0
    kept = 0
    for _ in range(n_samples):
        scale_y = 10.0 ** rng.uniform(-1.0, 1.0)
        scale_z = 10.0 ** rng.uniform(-1.0, 1.0)
        y = scale_y * rng.standard_normal(inst.m)
        z = anchor + scale_z * rng.standard_normal(inst.n)
        try:
            xi = inner_minimize_K(inst, y, z, params)
            prox = solve_constrained_strongly_convex(inst, z, params)
        except ConvergenceError as exc:
            skipped += 1
            logger.warning("error-bound sample skipped: %s", exc)
            continue
        lhs = float(np.linalg.norm(xi - prox.x))
        rhs = float(np.linalg.norm(inst.eq_matrix @ xi - inst.eq_rhs))
        if rhs <= 1e-12:
            ratio = 0.0 if lhs <= 1e-9 else np.inf
        else:
            ratio = lhs / rhs
        kept += 1
        sample = ErrorBoundSample(y=y, z=z, lhs=lhs, rhs_factor=rhs, ratio=ratio)
        if ratio > max_ratio:
            max_ratio = ratio
            worst = sample
        if ratio > sigma5_bar:
            violations += 1
    if skipped > 0.1 * n_samples:
        raise RuntimeError(f"{skipped}/{n_samples} samples skipped; solver too fragile")
    return ErrorBoundReport(samples=kept, max_ratio=max_ratio, bound=sigma5_bar,
                            passed=violations == 0, skipped=skipped, seed=rng_seed,
                            violations=violations, worst=worst)


# ---------------------------------------------------------------------------
# polyhedral distance bound verifier
# ---------------------------------------------------------------------------

@dataclass
class HoffmanCheckReport:
    points: int
    max_ratio: float          # dist^2 / residual^2 over sampled points
    bound: float              # supplied theta
    passed: bool
    near_tightness: float     # max of ratio/theta over points
    seed: int

    def to_dict(self) -> dict:
        return {
            "samples": self.points,
            "max_ratio": self.max_ratio,
            "bound": self.bound,
            "pass": self.passed,
            "skipped": 0,
            "near_tightness": self.near_tightness,
            "seed": self.seed,
        }


def verify_hoffman(C1, b1, C2, b2, theta: float, n_points: int,
                   rng_seed: int) -> HoffmanCheckReport:
    """Check dist(x, S)^2 <= theta (||(C1 x - b1)_+||^2 + ||C2 x - b2||^2)
    over random points, with the distance computed exactly.

    S = {C1 x <= b1, C2 x = b2} must be nonempty (verified by projecting
    the origin).  Each nearest point is one least-distance solve of a
    single factorisation of the system.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    C1 = np.atleast_2d(np.asarray(C1, dtype=float)) if C1 is not None else None
    C2 = np.atleast_2d(np.asarray(C2, dtype=float)) if C2 is not None else None
    n = C1.shape[1] if C1 is not None and C1.size else C2.shape[1]
    C1 = np.zeros((0, n)) if C1 is None or not C1.size else C1
    C2 = np.zeros((0, n)) if C2 is None or not C2.size else C2
    b1 = np.atleast_1d(np.asarray(b1, dtype=float)) if b1 is not None else np.zeros(0)
    b2 = np.atleast_1d(np.asarray(b2, dtype=float)) if b2 is not None else np.zeros(0)

    qp = StronglyConvexQP(np.eye(n), C2, b2, C1, b1)   # nearest point to x: solve(-x)
    qp.solve(np.zeros(n))  # feasibility: raises InfeasibleError on empty S

    rng = np.random.default_rng(rng_seed)
    max_ratio = 0.0
    near = 0.0
    passed = True
    for _ in range(n_points):
        scale = 10.0 ** rng.uniform(-0.5, 1.0)
        xbar = scale * rng.standard_normal(n)
        dist = float(np.linalg.norm(qp.solve(-xbar)[0] - xbar))
        res2 = 0.0
        if C1.shape[0]:
            res2 += float(np.sum(np.maximum(C1 @ xbar - b1, 0.0) ** 2))
        if C2.shape[0]:
            res2 += float(np.sum((C2 @ xbar - b2) ** 2))
        if dist ** 2 > theta * res2 * (1.0 + 1e-9) + 1e-15:   # every point: one in S is at distance 0
            passed = False
        if res2 > 0.0:
            ratio = dist ** 2 / res2
            max_ratio = max(max_ratio, ratio)
            near = max(near, ratio / theta)
    return HoffmanCheckReport(points=n_points, max_ratio=max_ratio, bound=theta,
                              passed=passed, near_tightness=near, seed=rng_seed)


# ---------------------------------------------------------------------------
# segment decomposition of the residual path
# ---------------------------------------------------------------------------

@dataclass
class SegmentPoint:
    s: float
    x: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    active: frozenset


@dataclass
class SegmentTrace:
    r_tilde: np.ndarray
    grid: list = field(default_factory=list)          # SegmentPoint per grid node
    breakpoints: list = field(default_factory=list)   # refined s values of active-set changes
    sigma5: float = np.inf
    lipschitz_ok: bool = True
    max_segment_ratio: float = 0.0
    telescoped_sum: float = 0.0

    @property
    def active_sets_observed(self) -> set:
        return {pt.active for pt in self.grid}


def regularized_quadratic_instance(inst: ProblemInstance, params: SolverParams,
                                   z) -> ProblemInstance:
    """Strongly convex quadratic g = f + (rho/2)||Ax-b||^2 + (p/2)||x-z||^2
    packaged as a new instance over the same constraint system."""
    H, q = inst.objective.Q, inst.objective.q
    z = np.asarray(z, dtype=float)
    A, b = inst.eq_matrix, inst.eq_rhs
    Hg = H + params.rho * (A.T @ A) + params.p * np.eye(inst.n)
    qg = q - params.rho * (A.T @ b) - params.p * z
    off = (inst.objective.offset + 0.5 * params.rho * float(b @ b)
           + 0.5 * params.p * float(z @ z))
    ev = np.linalg.eigvalsh(Hg)
    return ProblemInstance(
        objective=QuadraticObjective(Q=Hg, q=qg, offset=off),
        lipschitz_grad=float(ev[-1]),
        eq_matrix=A,
        eq_rhs=b,
        polyhedron=inst.polyhedron,
        meta=dict(inst.meta),
    )


def trace_segment_decomposition(g_inst: ProblemInstance, y_tilde,
                                grid_size: int = 1001) -> SegmentTrace:
    """Walk the residual segment {s * r_tilde : s in [0, 1]} of a strongly
    convex quadratic instance and certify its piecewise structure.

    r_tilde = A x(y_tilde) - b where x(y_tilde) minimizes the Lagrangian
    over P.  Every grid point s is one exact solve of the instance's QP
    with right-hand side b + s r_tilde, all from one factorisation; a
    point's active set is its rows with (Gx - h)_j >= -1e-9 (1 + max|h|).
    The point s = 1 is x(y_tilde) itself, which solves that QP.
    Breakpoints (active-set changes) are localized by bisection to 1e-8;
    adjacent grid points sharing an active set are checked against the
    per-segment Lipschitz bound with sigma5 = sqrt(2)(theta_bar L^2 + 1)/gamma,
    where theta_bar is exact (``hoffman_constant``, within its subset budget).
    ``telescoped_sum`` is the sum of (s_{i+1} - s_i) ||r_tilde|| over the
    grid, which is ||r_tilde|| by construction up to roundoff: a check that
    it matches ||r_tilde|| (criterion 7's) cannot fail.
    A point whose shifted feasible set is empty raises InfeasibleError, and
    a non-finite y_tilde raises ValueError before any solve.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    y_tilde = np.asarray(y_tilde, dtype=float)
    if not np.isfinite(y_tilde).all():
        raise ValueError("non-finite y_tilde: the residual segment needs a finite multiplier")
    H, q = g_inst.objective.Q, g_inst.objective.q
    ev = np.linalg.eigvalsh(H)
    if ev[0] <= 0:
        raise ValueError("segment tracing requires a strongly convex quadratic")
    gamma, L = float(ev[0]), float(ev[-1])
    A, b = g_inst.eq_matrix, g_inst.eq_rhs
    G, h = g_inst.polyhedron.as_halfspaces()

    theta_bar, _exact = hoffman_constant(A, G)
    sigma5 = sigma5_from_theta(theta_bar, L, gamma)

    # x(y_tilde): minimize g + y'(Ax-b) over P (no equality constraint)
    x_free, _, mu_free = StronglyConvexQP(H, [], [], G, h).solve(q + A.T @ y_tilde)
    r_tilde = A @ x_free - b
    qp = StronglyConvexQP(H, A, b, G, h)
    active_tol = 1e-9 * (1.0 + float(np.max(np.abs(h), initial=0.0)))

    def point(s, x, y, mu):
        active = frozenset(np.flatnonzero(G @ x - h >= -active_tol).tolist())
        return SegmentPoint(s=float(s), x=x, y=y, mu=mu, active=active)

    def solve_at(s):
        return point(s, *qp.solve(q, b + s * r_tilde))

    # s = 1 is x(y_tilde) with multipliers (y_tilde, mu): solved afresh, its
    # feasible set may be one boundary point of P, which roundoff can miss
    pts = [solve_at(s) for s in np.linspace(0.0, 1.0, grid_size)[:-1]]
    pts.append(point(1.0, x_free, y_tilde, mu_free))

    # refine each active-set change to its first switch point by bisection
    breakpoints = []
    for a, bpt in zip(pts[:-1], pts[1:]):
        if a.active == bpt.active:
            continue
        lo_s, hi_s = a.s, bpt.s
        while hi_s - lo_s > 1e-8:
            mid = 0.5 * (lo_s + hi_s)
            if solve_at(mid).active == a.active:
                lo_s = mid
            else:
                hi_s = mid
        breakpoints.append(0.5 * (lo_s + hi_s))

    # per-segment Lipschitz check on adjacent nodes with a shared active set
    max_ratio = 0.0
    ok = True
    mu_tol = 1e-7 * (1.0 + float(np.max(np.abs(h), initial=0.0)))
    for a, bpt in zip(pts[:-1], pts[1:]):
        supp_a = frozenset(np.flatnonzero(a.mu > mu_tol).tolist())
        supp_b = frozenset(np.flatnonzero(bpt.mu > mu_tol).tolist())
        common_exists = supp_a | supp_b <= (a.active & bpt.active)
        if not common_exists:
            continue
        dr = abs(bpt.s - a.s) * float(np.linalg.norm(r_tilde))
        dxn = float(np.linalg.norm(bpt.x - a.x))
        if dr <= 1e-300:
            continue
        ratio = dxn / dr
        max_ratio = max(max_ratio, ratio)
        if dxn > sigma5 * dr * (1.0 + 1e-9) + 1e-12:
            ok = False

    telescoped = sum(
        (bpt.s - a.s) * float(np.linalg.norm(r_tilde))
        for a, bpt in zip(pts[:-1], pts[1:])
    )
    return SegmentTrace(r_tilde=r_tilde, grid=pts, breakpoints=breakpoints,
                        sigma5=sigma5, lipschitz_ok=ok,
                        max_segment_ratio=max_ratio, telescoped_sum=telescoped)


def multiplier_set_distance(g_inst: ProblemInstance, point_y, point_mu,
                            x_star, active) -> float:
    """Distance from (y', mu') to the multiplier set of a shifted problem
    at its solution x*, computed exactly; the shift enters only through
    x_star and its active rows.

    The multiplier set is {(y, mu) : A'y + G'mu = -grad g(x*),
    mu >= 0, mu_j = 0 off the active rows of x*}; the nearest point of
    it to w = (y', mu') is one least-distance solve, as in
    ``verify_hoffman``.  An empty set raises InfeasibleError.
    """
    G, _h = g_inst.polyhedron.as_halfspaces()
    A = g_inst.eq_matrix
    m, l = g_inst.m, G.shape[0]
    # variables w = (y, mu) in R^{m+l}; eye[m:] selects mu
    eye = np.eye(m + l)
    on = np.isin(np.arange(l), list(active))
    C2 = np.vstack([np.hstack([A.T, G.T]), eye[m:][~on]])   # stationarity; mu_j = 0 off
    b2 = np.concatenate([-g_inst.grad_f(x_star), np.zeros(l - on.sum())])
    w = np.concatenate([point_y, point_mu])
    nearest, _, _ = StronglyConvexQP(eye, C2, b2, -eye[m:][on], np.zeros(on.sum())).solve(-w)
    return float(np.linalg.norm(nearest - w))
