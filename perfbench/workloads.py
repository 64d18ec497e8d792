"""The benchmark's three workloads.

Every workload is a closed loop with one caller: a unit starts when the
previous one has finished.  The workload seed picks the instance set;
seed 0 gives the instances of the acceptance criteria, and seed s > 0
shifts every instance seed by s times the size of the set, so each
seed is a disjoint held-out set.

A workload exposes:

- ``prepare()``: generate the instances and write the problem files;
  this is the set-up that ``setup_s`` times;
- ``run(j)``: run unit j, return (outputs, work); this is what is timed;
- ``checks()``: names of the output checks that apply to this run;
- ``check(j, outputs)``: names of the output checks that unit j failed;
- ``size``: the number of units in the workload's fixed set.  Unit j
  is unit j mod size of the set, and a run measures whole passes over
  the set, so every unit of it is measured equally often and a faster
  program measures the same units as a slower one.

``outputs`` holds everything the program returned for the unit, so a
traced and an untraced run of the same unit can be compared bit for bit
with ``fingerprint``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os

import numpy as np

from sproxalm import cli, constants, diagnostics, oracles, problem, solvers

REL_TOL = 1e-6   # criterion 8's tolerance, used for recorded and oracle references


def fingerprint(obj) -> str:
    """Hash of every bit of a unit's outputs (arrays, floats, text)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"A{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"L")
            for v in x:
                feed(v)
        else:   # repr of a float round-trips exactly
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _rel_equal(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _recorded(workload):
    """The workload's reference, when it was recorded for its seed and sizes."""
    ref = workload.reference
    return ref if ref is not None and workload.seed == 0 and ref["config"] == workload.config() \
        else None


class SolveBox:
    """``sproxalm solve`` in-process: practical mode, tolerance 1e-8 within
    a budget of 10,000 iterations, trace CSV written, on criterion 5's
    instances (n=20, m=5, 5 negative eigenvalues, unit box; generator
    seeds from 5000, planner seed i).

    Solved to 1e-8 without a budget, these instances need 8k to 145k
    iterations, so the median solve time of one seed's set differs from
    another's by 7-10% from the inputs alone.  Within the budget
    almost every solve runs all 10,000 iterations, so every unit does
    nearly the same work and the seed changes the inputs, not the cost.
    """

    name = "solve_box"
    MAX_ITERS = 10_000

    def __init__(self, seed: int, workdir: str, n: int = 20, m: int = 5, neg_eigs: int = 5,
                 size: int = 14, tol: float = 1e-8, reference: dict | None = None):
        self.seed, self.n, self.m, self.neg_eigs = seed, n, m, neg_eigs
        self.size, self.tol = size, tol
        self.reference = reference
        self.dir = os.path.join(workdir, self.name)

    def config(self) -> dict:
        return {"n": self.n, "m": self.m, "neg_eigs": self.neg_eigs, "size": self.size,
                "tol": self.tol, "max_iters": self.MAX_ITERS}

    def checks(self):
        return ("exit_code", "stop_rule", "heuristic", "trace_csv") \
            + (("best_eps_reference",) if _recorded(self) else ())

    def _problem(self, i):
        return os.path.join(self.dir, f"problem_{i}.json")

    def _trace(self, i):
        return os.path.join(self.dir, f"trace_{i}.csv")

    def prepare(self):
        os.makedirs(self.dir, exist_ok=True)
        for i in range(self.size):
            inst = problem.generate_nonconvex_qp(n=self.n, m=self.m, neg_eigs=self.neg_eigs,
                                                 rng_seed=5000 + self.size * self.seed + i)
            problem.save_instance(inst, self._problem(i))

    def run(self, j):
        i = j % self.size
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["solve", "--problem", self._problem(i), "--mode", "practical",
                           "--tol", repr(self.tol), "--max-iters", str(self.MAX_ITERS),
                           "--trace", self._trace(i), "--seed", str(i)])
        with open(self._trace(i), "rb") as fh:
            trace_csv = fh.read()
        outputs = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                   "trace_csv": trace_csv}
        iters = json.loads(outputs["stdout"])["iters"] if rc == 0 else 0
        return outputs, iters

    def check(self, j, outputs):
        if outputs["rc"] != 0:
            return ["exit_code"]
        summary = json.loads(outputs["stdout"])
        failed = []
        # a solve stops early only when it reaches the tolerance
        if not (summary["iters"] == self.MAX_ITERS or summary["best_eps"] <= self.tol):
            failed.append("stop_rule")
        if summary["heuristic"]:
            failed.append("heuristic")
        rows = np.loadtxt(io.BytesIO(outputs["trace_csv"]), delimiter=",", skiprows=1,
                          usecols=(2, 3), ndmin=2)
        # every iteration is traced, and the best certificate is one of its rows
        if len(rows) != summary["iters"] or float(np.min(rows.max(axis=1))) != summary["best_eps"]:
            failed.append("trace_csv")
        ref = _recorded(self)
        if ref and not (summary["iters"] == ref["iters"][j % self.size]
                        and _rel_equal(summary["best_eps"], ref["best_eps"][j % self.size])):
            failed.append("best_eps_reference")
        return failed


# criterion 3's halfspace cases: (n, m, rows of G, instance seed), 2 negative eigenvalues
EB_CASES = ((8, 3, 2, 60), (8, 2, 3, 61), (7, 2, 4, 62), (6, 2, 5, 63), (8, 3, 3, 64),
            (7, 3, 2, 65))


class EbHalfspace:
    """``diagnostics.verify_dual_error_bound`` in theoretical mode on
    criterion 3's six halfspace shapes.  The set holds ``replicas``
    instances of each shape; unit j plans and verifies one instance of
    shape j mod 6 with one sample.  Units 0-5 of seed 0 are criterion 3's
    instances and first samples.

    The cost of a sample is bimodal: about 60% take 25-50 ms, the rest
    0.15-3 s, when the projections have active halfspaces.  One run holds
    too few samples for a steady mean, so units are single samples spread
    over many instances and the run reports their median.
    """

    name = "eb_halfspace"
    SAMPLES = 1

    def __init__(self, seed: int, workdir: str, replicas: int = 20, cases=EB_CASES,
                 reference: dict | None = None):
        self.seed, self.replicas = seed, replicas
        self.cases = tuple(cases)
        self.size = replicas * len(self.cases)
        self.reference = reference
        self.instances = []

    def config(self) -> dict:
        return {"replicas": self.replicas, "cases": [list(c) for c in self.cases]}

    def checks(self):
        return ("violations", "skipped") + (("max_ratio_reference",) if _recorded(self) else ()) \
            + ("max_ratio_oracle",)

    def prepare(self):
        from tests.conftest import make_general_instance

        stride = len(EB_CASES)
        self.instances = [
            make_general_instance(n, m, l, neg_eigs=2,
                                  seed=seed + stride * (self.replicas * self.seed + r))
            for r in range(self.replicas) for n, m, l, seed in self.cases]

    def _instance(self, j):
        return self.instances[j % self.size]

    def run(self, j):
        inst = self._instance(j)
        params, report = constants.plan_stepsizes(inst, "theoretical", exact_limit=20)
        out = diagnostics.verify_dual_error_bound(inst, params, n_samples=self.SAMPLES,
                                                  rng_seed=904 + j % self.size,
                                                  sigma5_bar=report.sigma5_bar)
        worst = out.worst
        outputs = {
            "params": dataclasses.asdict(params),
            "constants": report.to_dict(),
            "report": out.to_dict(),
            "worst": None if worst is None else dataclasses.asdict(worst),
        }
        return outputs, self.SAMPLES

    def check(self, j, outputs):
        rep = outputs["report"]
        failed = []
        if rep["violations"] != 0:
            failed.append("violations")
        if rep["skipped"] != 0 or rep["samples"] != self.SAMPLES:
            failed.append("skipped")
        ref = _recorded(self)
        if ref and not _rel_equal(rep["max_ratio"], ref["max_ratio"][j % self.size]):
            failed.append("max_ratio_reference")
        if not self._oracle_agrees(j, outputs):
            failed.append("max_ratio_oracle")
        return failed

    def _oracle_agrees(self, j, outputs):
        """Recompute the worst sample's ratio with the exact active-set oracles."""
        worst = outputs["worst"]
        if worst is None:
            return outputs["report"]["max_ratio"] == 0.0
        inst = self._instance(j)
        p, rho = outputs["params"]["p"], outputs["params"]["rho"]
        A, b = inst.eq_matrix, inst.eq_rhs
        Q, q = inst.objective.Q, inst.objective.q
        y, z = worst["y"], worst["z"]
        G, h = inst.polyhedron.as_halfspaces()
        H = Q + rho * (A.T @ A) + p * np.eye(inst.n)
        c = q + A.T @ y - rho * (A.T @ b) - p * z
        xi = oracles.solve_qp_active_set(H, c, None, None, G, h).x
        xbar = oracles.solve_constrained_qp_oracle(inst, z, p).x
        ratio = float(np.linalg.norm(xi - xbar)) / float(np.linalg.norm(A @ xi - b))
        return worst["ratio"] == outputs["report"]["max_ratio"] and _rel_equal(ratio,
                                                                                worst["ratio"])


class MonitorBox:
    """The monitored theoretical runs of criteria 1 and 2 (n=10, m=3, 3
    negative eigenvalues, unit box; seeds from 1000): the exact lower
    bound by face enumeration, a theoretical plan with the exact box
    theta, and ``sprox_alm_run`` with the full monitor checking every
    iteration."""

    name = "monitor_box"

    def __init__(self, seed: int, workdir: str, n: int = 10, m: int = 3, neg_eigs: int = 3,
                 size: int = 6, iters: int = 2000, reference: dict | None = None):
        self.seed, self.n, self.m, self.neg_eigs = seed, n, m, neg_eigs
        self.size, self.iters = size, iters
        self.reference = reference
        self.instances = []

    def config(self) -> dict:
        return {"n": self.n, "m": self.m, "neg_eigs": self.neg_eigs, "size": self.size,
                "iters": self.iters}

    def checks(self):
        return ("descent_violations", "lower_bound_violations", "checks_count") \
            + (("lower_bound_reference",) if _recorded(self) else ()) + ("lower_bound_argmin",)

    def prepare(self):
        self.instances = [problem.generate_nonconvex_qp(
            n=self.n, m=self.m, neg_eigs=self.neg_eigs,
            rng_seed=1000 + self.size * self.seed + i) for i in range(self.size)]

    def run(self, j):
        inst = self.instances[j % self.size]
        f_exact, x_exact = oracles.exact_lower_bound_box_qp(inst)
        inst = dataclasses.replace(inst, lower_bound=f_exact, lower_bound_kind="exact")
        params, report = constants.plan_stepsizes(inst, "theoretical", exact_limit=30)
        params.max_iters = self.iters
        params.target_eps = 0.0
        params.trace_every = 1
        params.monitor_level = "full"
        res = solvers.sprox_alm_run(inst, params)
        tr = res.trace
        outputs = {
            "lower_bound": f_exact,
            "argmin": x_exact,
            "params": dataclasses.asdict(params),
            "constants": report.to_dict(),
            "trace": [tr.column(c) for c in tr.COLUMNS],
            "best": None if res.best is None else dataclasses.asdict(res.best),
            "monitor": dict(res.monitor),
            "state": dataclasses.asdict(res.state),
        }
        return outputs, res.state.t

    def check(self, j, outputs):
        mon = outputs["monitor"]
        failed = []
        if mon["phi_monotone_violations"] != 0:
            failed.append("descent_violations")
        if mon["lemma34_violations"] != 0:
            failed.append("lower_bound_violations")
        if mon["checks"] != self.iters:
            failed.append("checks_count")
        ref = _recorded(self)
        if ref and not _rel_equal(outputs["lower_bound"], ref["lower_bound"][j % self.size]):
            failed.append("lower_bound_reference")
        if not self._lower_bound_consistent(j, outputs):
            failed.append("lower_bound_argmin")
        return failed

    def _lower_bound_consistent(self, j, outputs):
        """The returned minimizer is feasible and attains the returned value."""
        inst = self.instances[j % self.size]
        x, val = outputs["argmin"], outputs["lower_bound"]
        eq_residual = float(np.linalg.norm(inst.eq_matrix @ x - inst.eq_rhs))
        feasible = (inst.polyhedron.contains(x, tol=1e-9)
                    and eq_residual <= 1e-8 * (1.0 + float(np.linalg.norm(inst.eq_rhs))))
        return feasible and _rel_equal(inst.f(x), val, 1e-12)


WORKLOADS = {w.name: w for w in (SolveBox, EbHalfspace, MonitorBox)}
