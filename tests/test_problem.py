import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sproxalm.constants import plan_stepsizes
from sproxalm.exceptions import DimensionMismatchError
from sproxalm.problem import (Box, Halfspaces, ProblemInstance, QuadraticObjective,
                              fixed_instance_1d, generate_nonconvex_qp,
                              instance_from_dict, instance_to_dict)
from tests.conftest import make_general_instance


def diag_instance(L_f_declared):
    obj = QuadraticObjective(Q=np.diag([1.0, -1.0]), q=np.zeros(2))
    return ProblemInstance(
        objective=obj, lipschitz_grad=L_f_declared,
        eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([1.0]),
        polyhedron=Box(np.zeros(2), np.ones(2)),
        meta={"x_feas": np.array([0.5, 0.5])},
    )


def test_planner_accepts_the_spectral_norm_as_lipschitz_constant():
    params, report = plan_stepsizes(diag_instance(1.0), "practical")
    assert report.L_f == 1.0 and params.p == 3.0


def test_planner_rejects_understated_lipschitz():
    with pytest.raises(ValueError, match=r"L_f = 0\.5 is below \|\|Q\|\|_2 = 1\.0"):
        plan_stepsizes(diag_instance(0.5), "practical")


def test_planner_checks_exact_f_lower_against_the_feasible_point():
    # f(x_feas) = 0 at x_feas = (0.5, 0.5); a bound above it is wrong only
    # when it claims to be exact or certified
    for kind in ("exact", "certified"):
        inst = dataclasses.replace(diag_instance(1.0), lower_bound=0.1, lower_bound_kind=kind)
        message = rf"the {kind} f_lower = 0\.1 is above f\(x_feas\) = 0\.0"
        with pytest.raises(ValueError, match=message):
            plan_stepsizes(inst, "practical")
    for bound, kind in ((0.1, "estimate"), (0.0, "exact")):
        inst = dataclasses.replace(diag_instance(1.0), lower_bound=bound, lower_bound_kind=kind)
        plan_stepsizes(inst, "practical")


def test_check_dimensions_raises_on_mismatch():
    inst = diag_instance(1.0)
    bad = ProblemInstance(
        objective=inst.objective, lipschitz_grad=1.0,
        eq_matrix=np.zeros((2, 3)), eq_rhs=np.zeros(3),
        polyhedron=Box(np.zeros(3), np.ones(3)),
    )
    with pytest.raises(DimensionMismatchError):
        bad.check_dimensions()


def test_generator_small_instance_is_feasible_and_indefinite():
    inst = generate_nonconvex_qp(n=2, m=1, neg_eigs=1, rng_seed=7)
    ev = np.linalg.eigvalsh(inst.objective.Q)
    assert ev[0] < 0 < ev[-1]
    x_feas = inst.meta["x_feas"]
    assert inst.polyhedron.contains(x_feas)
    assert np.linalg.norm(inst.eq_matrix @ x_feas - inst.eq_rhs) < 1e-12


def test_generator_rank_via_svd_oracle():
    inst = generate_nonconvex_qp(n=20, m=5, neg_eigs=5, rng_seed=3)
    sv = np.linalg.svd(inst.eq_matrix, compute_uv=False)
    assert np.sum(sv > 1e-10) == 5


def test_generator_negative_eigenvalue_count():
    inst = generate_nonconvex_qp(n=10, m=3, neg_eigs=4, rng_seed=11)
    ev = np.linalg.eigvalsh(inst.objective.Q)
    assert int(np.sum(ev < 0)) == 4
    assert inst.lipschitz_grad == pytest.approx(np.max(np.abs(ev)), rel=1e-12)


def test_generator_determinism_byte_identical():
    a = generate_nonconvex_qp(n=6, m=2, neg_eigs=2, rng_seed=42)
    b = generate_nonconvex_qp(n=6, m=2, neg_eigs=2, rng_seed=42)
    assert json.dumps(instance_to_dict(a)) == json.dumps(instance_to_dict(b))


def test_generator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        generate_nonconvex_qp(n=3, m=3, neg_eigs=1, rng_seed=0)
    with pytest.raises(ValueError):
        generate_nonconvex_qp(n=3, m=1, neg_eigs=3, rng_seed=0)


def test_fixed_instance_golden_values():
    inst = fixed_instance_1d()
    assert inst.n == 1 and inst.m == 1
    assert inst.f(np.array([1.0])) == pytest.approx(0.5, abs=1e-15)
    # (0, 0) is an exact KKT point: grad f + A'y = 0 and Ax = b
    x, y = np.array([0.0]), np.array([0.0])
    assert np.linalg.norm(inst.grad_f(x) + inst.eq_matrix.T @ y) == 0.0
    assert np.linalg.norm(inst.eq_matrix @ x - inst.eq_rhs) == 0.0
    assert inst.lower_bound == 0.0 and inst.lower_bound_kind == "exact"


def test_json_roundtrip_box_and_general():
    inst = generate_nonconvex_qp(n=4, m=2, neg_eigs=1, rng_seed=5)
    back = instance_from_dict(instance_to_dict(inst))
    assert np.array_equal(back.objective.Q, inst.objective.Q)
    assert np.array_equal(back.eq_matrix, inst.eq_matrix)
    assert back.lower_bound == inst.lower_bound
    assert back.lower_bound_kind == "estimate"

    gen = ProblemInstance(
        objective=QuadraticObjective(np.eye(2), np.zeros(2)), lipschitz_grad=1.0,
        eq_matrix=np.array([[1.0, 0.0]]), eq_rhs=np.array([0.2]),
        polyhedron=Halfspaces(np.array([[1.0, 1.0]]), np.array([3.0])),
    )
    back = instance_from_dict(instance_to_dict(gen))
    assert isinstance(back.polyhedron, Halfspaces)
    assert np.array_equal(back.polyhedron.G, gen.polyhedron.G)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20), data=st.data())
def test_generated_instances_pass_the_planner_checks(seed, n, data):
    # the generators declare L_f = max|eigenvalue| and an estimated f_lower
    m = data.draw(st.integers(1, n - 1))
    neg_eigs = data.draw(st.integers(0, n - 1))
    for inst in (generate_nonconvex_qp(n=n, m=m, neg_eigs=neg_eigs, rng_seed=seed),
                 make_general_instance(n, m, data.draw(st.integers(1, 2 * n)), neg_eigs, seed)):
        _, report = plan_stepsizes(inst, "practical", exact_limit=0)
        assert report.L_f == inst.lipschitz_grad


def test_objective_stores_the_symmetric_part_of_q():
    Q = np.array([[1.0, 2.0], [0.0, 3.0]])
    obj = QuadraticObjective(Q, np.zeros(2))
    assert np.array_equal(obj.Q, [[1.0, 1.0], [1.0, 3.0]])
    x = np.array([0.3, -0.7])
    assert obj.value(x) == pytest.approx(0.5 * x @ Q @ x, abs=1e-15)
    sym = np.array([[2.0, 0.1], [0.1, 1.0]])
    assert QuadraticObjective(sym, np.zeros(2)).Q is sym


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))


def test_box_halfspace_rows_skip_infinite_bounds():
    box = Box(np.array([-np.inf, 0.0]), np.array([1.0, np.inf]))
    G, h = box.as_halfspaces()
    assert G.shape == (2, 2)
    assert np.array_equal(G, np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert np.array_equal(h, np.array([1.0, 0.0]))


@st.composite
def boxes_with_points(draw):
    """A box with some infinite bounds, and a point whose coordinates lie at
    a bound or the midpoint, moved by up to three tolerances either way."""
    n = draw(st.integers(1, 4))
    lo, hi, anchors = [], [], []
    for _ in range(n):
        a, b = sorted(draw(st.floats(-1e6, 1e6)) for _ in range(2))
        lo.append(draw(st.sampled_from([a, -np.inf])))
        hi.append(draw(st.sampled_from([b, np.inf])))
        anchors.append(draw(st.sampled_from([a, b, 0.5 * (a + b)])))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-7]))
    finite = [v for v in lo + hi if np.isfinite(v)]
    step = tol * (1.0 + max(map(abs, finite), default=0.0))
    x = [v + draw(st.floats(-3.0, 3.0)) * step for v in anchors]
    return lo, hi, x, tol


@settings(max_examples=300, deadline=None)
@given(case=boxes_with_points())
@example(case=([-1e6], [0.0], [-1e6 - 1e-4], 1e-9))   # a finite lower bound sets the scale
def test_box_contains_agrees_with_its_halfspaces(case):
    lo, hi, x, tol = case
    box = Box(np.array(lo), np.array(hi))
    x = np.array(x)
    assert box.contains(x, tol=tol) == Halfspaces(*box.as_halfspaces()).contains(x, tol=tol)
