"""Problem instances: objectives, polyhedral feasible sets, generators, JSON I/O.

The problem class is

    minimize f(x)  subject to  A x = b,  x in P,

with P either an axis-aligned box (possibly unbounded) or a general
halfspace system ``G x <= h``.  Objectives expose value and gradient
oracles plus a declared Lipschitz constant of the gradient.  The loader
checks a file's form and that its meta.x_feas is feasible; the step-size
planner checks the declared L_f against ||Q||_2 and an exact or
certified f_lower against f(x_feas).  The generator attaches no f_lower;
an "estimate" in a file loads, and nothing checks or reads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatchError

LOWER_BOUND_KINDS = ("exact", "certified", "estimate")


@dataclass
class QuadraticObjective:
    """f(x) = 0.5 x'Qx + q'x + offset with gradient Qx + q.

    f reads only the symmetric part of Q, so a square Q is stored as
    (Q + Q')/2 whenever Q != Q'; that keeps Qx + q the gradient of f.
    Q may be indefinite; the tight gradient Lipschitz constant is the
    spectral norm of Q.
    """

    Q: np.ndarray
    q: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        if self.Q.shape == self.Q.T.shape and not np.array_equal(self.Q, self.Q.T):
            self.Q = 0.5 * self.Q + 0.5 * self.Q.T   # no overflow in the sum
        self.q = np.asarray(self.q, dtype=float)
        self.offset = float(self.offset)

    def value(self, x):
        return 0.5 * float(x @ (self.Q @ x)) + float(self.q @ x) + self.offset

    def grad(self, x):
        return self.Q @ x + self.q


@dataclass
class Box:
    """Axis-aligned box lo <= x <= hi; entries may be +-inf."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatchError("box lo/hi shapes differ")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def clip(self, x):
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def contains(self, x, tol=1e-9) -> bool:
        """x - hi <= tol s and lo - x <= tol s with s = 1 + max|finite bound|:
        the rows and the scale of ``Halfspaces(*self.as_halfspaces())``,
        so both representations of the box give the same answer."""
        bounds = np.concatenate([self.lo, self.hi])
        slack = tol * (1.0 + float(np.max(np.abs(bounds[np.isfinite(bounds)]), initial=0.0)))
        return bool(np.all(x - self.hi <= slack) and np.all(self.lo - x <= slack))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))

    def as_halfspaces(self):
        """Finite bounds as rows of (G, h): the hi rows, then the lo rows,
        each in coordinate order; infinite bounds contribute no row."""
        eye = np.eye(self.dim)
        up, down = np.isfinite(self.hi), np.isfinite(self.lo)
        return (np.vstack([eye[up], 0.0 - eye[down]]),
                np.concatenate([self.hi[up], -self.lo[down]]))


@dataclass
class Halfspaces:
    """General polyhedron {x : G x <= h}."""

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if self.G.shape[0] != self.h.shape[0]:
            raise DimensionMismatchError("G row count does not match h length")

    @property
    def dim(self) -> int:
        return self.G.shape[1]

    def contains(self, x, tol=1e-9) -> bool:
        scale = 1.0 + float(np.max(np.abs(self.h), initial=0.0))
        return bool(np.all(self.G @ x - self.h <= tol * scale))

    def as_halfspaces(self):
        return self.G, self.h

    @cached_property
    def nearest_point_qp(self):
        """The least-distance QP of projections onto this set, factorised once."""
        from .projection import StronglyConvexQP

        n = self.dim
        return StronglyConvexQP(np.eye(n), np.zeros((0, n)), np.zeros(0), self.G, self.h)


Polyhedron = Box | Halfspaces


@dataclass
class ProblemInstance:
    """A linearly constrained smooth instance with a declared gradient Lipschitz constant.

    ``lower_bound`` is a lower bound of f over the feasible set; its
    ``lower_bound_kind`` is one of "exact", "certified", or "estimate".
    Only exact/certified bounds back monitor assertions.  Instances are
    treated as immutable after construction.
    """

    objective: QuadraticObjective
    lipschitz_grad: float
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    polyhedron: Polyhedron
    lower_bound: float | None = None
    lower_bound_kind: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eq_matrix = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        self.lipschitz_grad = float(self.lipschitz_grad)

    @property
    def n(self) -> int:
        return self.eq_matrix.shape[1]

    @property
    def m(self) -> int:
        return self.eq_matrix.shape[0]

    def f(self, x) -> float:
        return self.objective.value(x)

    def grad_f(self, x) -> np.ndarray:
        return self.objective.grad(x)

    @cached_property
    def sigma_max_A(self) -> float:
        if self.eq_matrix.size == 0:
            return 0.0
        return float(np.linalg.svd(self.eq_matrix, compute_uv=False)[0])

    def check_dimensions(self):
        """Raise DimensionMismatchError on any shape inconsistency."""
        n = self.n
        if self.eq_rhs.shape[0] != self.m:
            raise DimensionMismatchError(
                f"A is {self.eq_matrix.shape} but b has length {self.eq_rhs.shape[0]}"
            )
        if self.polyhedron.dim != n:
            raise DimensionMismatchError(
                f"polyhedron dimension {self.polyhedron.dim} does not match n={n}"
            )
        if self.objective.Q.shape != (n, n):
            raise DimensionMismatchError(
                f"Q is {self.objective.Q.shape}, expected {(n, n)}"
            )
        if self.objective.q.shape[0] != n:
            raise DimensionMismatchError(
                f"q has length {self.objective.q.shape[0]}, expected {n}"
            )


def generate_nonconvex_qp(n: int, m: int, neg_eigs: int, rng_seed: int,
                          box=(0.0, 1.0)) -> ProblemInstance:
    """Random indefinite QP over a box with a feasible equality system.

    Q has exactly ``neg_eigs`` negative eigenvalues (magnitudes in
    [0.5, 2]); A has orthonormal rows; b = A x_feas for an interior
    x_feas, so feasibility holds by construction.  No lower bound of f
    is attached.  A box on which |f| may overflow raises ValueError.
    """
    if not 0 < m < n:
        raise ValueError("require 0 < m < n so A can have full row rank with slack")
    if neg_eigs >= n or neg_eigs < 0:
        raise ValueError("require 0 <= neg_eigs < n")
    lo_b, hi_b = float(box[0]), float(box[1])
    if not np.isfinite(hi_b - lo_b):   # an infinite or NaN bound makes it so too
        raise ValueError("box bounds and their width must be finite")
    rng = np.random.default_rng(rng_seed)

    lam = rng.uniform(0.5, 2.0, size=n)
    lam[:neg_eigs] *= -1.0
    Vr = rng.standard_normal((n, n))
    V, R = np.linalg.qr(Vr)
    V = V * np.sign(np.diag(R))  # fix QR sign convention for determinism
    Q = (V * lam) @ V.T
    Q = 0.5 * (Q + Q.T)
    q = rng.standard_normal(n)

    Ar = rng.standard_normal((n, m))
    Qa, Ra = np.linalg.qr(Ar)
    A = (Qa * np.sign(np.diag(Ra))).T  # m x n, orthonormal rows

    lo = np.full(n, lo_b)
    hi = np.full(n, hi_b)
    x_feas = lo + (0.25 + 0.5 * rng.random(n)) * (hi - lo)
    b = A @ x_feas

    obj = QuadraticObjective(Q=Q, q=q, offset=0.0)
    L_f = float(np.max(np.abs(lam)))

    r = np.maximum(np.abs(lo), np.abs(hi))
    with np.errstate(over="ignore"):
        f_bound = 0.5 * L_f * float(r @ r) + float(np.abs(q) @ r)
    if not np.isfinite(f_bound):
        raise ValueError("the box is too wide: the bound L_f/2 ||x||^2 + |q|'|x| "
                         "on |f| over it overflows")

    return ProblemInstance(
        objective=obj,
        lipschitz_grad=L_f,
        eq_matrix=A,
        eq_rhs=b,
        polyhedron=Box(lo, hi),
        meta={"seed": int(rng_seed), "x_feas": x_feas},
    )


def fixed_instance_1d() -> ProblemInstance:
    """Golden instance: f(x) = x^2/2, constraint x = 0, P = R.

    The unique KKT point is (x*, y*) = (0, 0) and the exact lower bound
    over the feasible set is 0.
    """
    obj = QuadraticObjective(Q=np.array([[1.0]]), q=np.array([0.0]), offset=0.0)
    return ProblemInstance(
        objective=obj,
        lipschitz_grad=1.0,
        eq_matrix=np.array([[1.0]]),
        eq_rhs=np.array([0.0]),
        polyhedron=Box(lo=np.array([-np.inf]), hi=np.array([np.inf])),
        lower_bound=0.0,
        lower_bound_kind="exact",
        meta={"x_feas": np.array([0.0])},
    )


# ---------------------------------------------------------------------------
# JSON problem schema (quadratic instances only).  Matrices are flat
# row-major lists; shapes come from the n/m/l fields.
# ---------------------------------------------------------------------------

def instance_to_dict(inst: ProblemInstance) -> dict:
    P = inst.polyhedron
    if isinstance(P, Box):
        poly = {"type": "box", "lo": P.lo.tolist(), "hi": P.hi.tolist()}
    else:
        poly = {"type": "general", "G": P.G.ravel().tolist(), "h": P.h.tolist()}
    out = {
        "n": inst.n,
        "m": inst.m,
        "l": P.as_halfspaces()[0].shape[0],
        "Q": inst.objective.Q.ravel().tolist(),
        "q": inst.objective.q.tolist(),
        "offset": inst.objective.offset,
        "A": inst.eq_matrix.ravel().tolist(),
        "b": inst.eq_rhs.tolist(),
        "polyhedron": poly,
        "L_f": inst.lipschitz_grad,
    }
    if inst.lower_bound is not None:
        out["f_lower"] = inst.lower_bound
    meta = {}
    if "seed" in inst.meta:
        meta["seed"] = int(inst.meta["seed"])
    if "x_feas" in inst.meta:
        meta["x_feas"] = np.asarray(inst.meta["x_feas"], dtype=float).tolist()
    if inst.lower_bound_kind is not None:
        meta["f_lower_kind"] = inst.lower_bound_kind
    out["meta"] = meta
    return out


def _json_number(data: dict, key: str, integer: bool = False):
    """data[key] as a finite float (or, with integer=True, a non-negative
    int); ValueError for anything else, a missing key included."""
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{key!r} must be {'an integer' if integer else 'a number'}")
    if integer:
        if value < 0:
            raise ValueError(f"{key!r} must be non-negative")
        return value
    try:
        value = float(value)
    except OverflowError as exc:   # an integer beyond the float range
        raise ValueError(f"{key!r} must be finite") from exc
    if not math.isfinite(value):
        raise ValueError(f"{key!r} must be finite")
    return value


def _json_array(data: dict, key: str, shape, finite: bool = True) -> np.ndarray:
    """data[key], a flat list of numbers, as a float array of the given
    shape; ValueError for anything else.  With finite=False, +-inf is
    allowed (box bounds), NaN never."""
    value = data.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list of numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:   # nested lists, strings, huge ints
        raise ValueError(f"{key!r} must be a flat list of numbers") from exc
    if arr.ndim != 1:
        raise ValueError(f"{key!r} must be a flat list of numbers")
    if np.any(np.isnan(arr)) or (finite and np.any(np.isinf(arr))):
        raise ValueError(f"{key!r} has non-finite entries")
    return arr.reshape(shape)


def instance_from_dict(data: dict) -> ProblemInstance:
    """The instance of a problem file's JSON object (the schema above).

    Malformed data (not an object, a missing or ill-typed field, null or
    non-finite numbers, wrong sizes, an unknown f_lower_kind, a meta.x_feas
    outside P or off A x = b) raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a problem file holds one JSON object")
    n = _json_number(data, "n", integer=True)
    m = _json_number(data, "m", integer=True)
    Q = _json_array(data, "Q", (n, n))
    q = _json_array(data, "q", (n,))
    A = _json_array(data, "A", (m, n))
    b = _json_array(data, "b", (m,))
    poly = data.get("polyhedron")
    if not isinstance(poly, dict):
        raise ValueError("'polyhedron' must be an object")
    if poly.get("type") == "box":
        P = Box(_json_array(poly, "lo", (n,), finite=False),
                _json_array(poly, "hi", (n,), finite=False))
    elif poly.get("type") == "general":
        G = _json_array(poly, "G", (-1, n))
        P = Halfspaces(G, _json_array(poly, "h", (G.shape[0],)))
    else:
        raise ValueError(f"unknown polyhedron type {poly.get('type')!r}")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("'meta' must be an object")
    meta = dict(meta)
    if "f_lower_kind" in meta and meta["f_lower_kind"] not in LOWER_BOUND_KINDS:
        raise ValueError(f"'f_lower_kind' must be one of {LOWER_BOUND_KINDS}")
    if "x_feas" in meta:
        meta["x_feas"] = _json_array(meta, "x_feas", (n,))
    offset = _json_number(data, "offset") if "offset" in data else 0.0
    inst = ProblemInstance(
        objective=QuadraticObjective(Q=Q, q=q, offset=offset),
        lipschitz_grad=_json_number(data, "L_f"),
        eq_matrix=A,
        eq_rhs=b,
        polyhedron=P,
        lower_bound=_json_number(data, "f_lower") if "f_lower" in data else None,
        lower_bound_kind=meta.pop("f_lower_kind", None),
        meta=meta,
    )
    inst.check_dimensions()
    if "x_feas" in meta:
        _check_feasible(inst, meta["x_feas"])
    return inst


def _scaled_norm(v) -> float:
    """||v||_2 without overflow in the squares; NaN if v holds a NaN."""
    scale = float(np.max(np.abs(v), initial=0.0))
    return scale * float(np.linalg.norm(v / scale)) if 0.0 < scale < np.inf else scale


def _check_feasible(inst: ProblemInstance, x) -> None:
    """ValueError unless x lies in P and ||A x - b|| <= 1e-9 (1 + ||b||)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not inst.polyhedron.contains(x):
            G, h = inst.polyhedron.as_halfspaces()
            raise ValueError(f"'x_feas' lies outside the polyhedron: "
                             f"max(G x_feas - h) = {np.max(G @ x - h):.3g}")
        residual = _scaled_norm(inst.eq_matrix @ x - inst.eq_rhs)
    if not residual <= 1e-9 * (1.0 + _scaled_norm(inst.eq_rhs)):
        raise ValueError(f"'x_feas' is off A x = b: ||A x_feas - b|| = {residual:.3g}")


def save_instance(inst: ProblemInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def load_system(path):
    """(C1, b1, C2, b2, theta) of a system file: the JSON object
    {n, C1, b1, C2, b2, theta?} of the set {C1 x <= b1, C2 x = b2}, with
    C1 and C2 flat row-major lists of n columns.  An absent matrix and
    its right-hand side have no rows; an absent or null theta is None.

    Malformed data (not an object, a missing or ill-typed field,
    non-finite numbers, row counts that differ, a theta that is not
    positive) raises ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a system file holds one JSON object")
    n = _json_number(data, "n", integer=True)
    if n == 0:
        raise ValueError("'n' must be positive")
    data = {"C1": [], "b1": [], "C2": [], "b2": [], **data}
    C1 = _json_array(data, "C1", (-1, n))
    C2 = _json_array(data, "C2", (-1, n))
    b1 = _json_array(data, "b1", (C1.shape[0],))
    b2 = _json_array(data, "b2", (C2.shape[0],))
    theta = None
    if data.get("theta") is not None:
        theta = _json_number(data, "theta")
        if not theta > 0:
            raise ValueError(f"'theta' must be positive (got {theta})")
    return C1, b1, C2, b2, theta
