import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sproxalm
from sproxalm.bench import ExperimentConfig, fit_rate, run_experiment
from sproxalm import cli
from sproxalm.cli import main
from sproxalm.problem import (fixed_instance_1d, generate_nonconvex_qp, instance_to_dict,
                              load_instance, save_instance)
from sproxalm.solvers import Trace
from tests.conftest import make_general_instance


# ----------------------------------------------------------------- fit_rate

def synthetic_trace(eps):
    trace = Trace()
    for t, e in enumerate(eps):
        trace.append(t, 0.0, e, 0.0, 0.0, 0.0)
    return trace


def test_fit_rate_exact_inverse_sqrt():
    t = np.arange(1, 1001)
    fit = fit_rate(synthetic_trace(1.0 / np.sqrt(t)))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.predicted_B == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_scaled_inverse_sqrt():
    t = np.arange(1, 1001)
    fit = fit_rate(synthetic_trace(2.0 / np.sqrt(t)))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.predicted_B == pytest.approx(4.0, rel=1e-12)


def test_fit_rate_all_zero_is_not_applicable():
    fit = fit_rate(synthetic_trace(np.zeros(500)))
    assert fit.slope is None
    assert fit.predicted_B == 0.0


def test_fit_rate_requires_enough_rows():
    with pytest.raises(ValueError):
        fit_rate(synthetic_trace(np.ones(100)))


def test_fit_rate_burn_in_excluded():
    t = np.arange(1, 2001).astype(float)
    eps = 1.0 / np.sqrt(t)
    eps[:99] = 50.0  # garbage before burn-in must not affect the fit
    fit = fit_rate(synthetic_trace(np.minimum.accumulate(eps)))
    assert fit.slope == pytest.approx(-0.5, abs=1e-6)


# ----------------------------------------------------------- run_experiment

def test_experiment_config_rejects_runs_without_iterations():
    for max_iters in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            ExperimentConfig(max_iters=max_iters).validate()


def test_run_experiment_golden_instance(tmp_path):
    cfg = ExperimentConfig(algorithm="sprox", mode="theoretical", max_iters=10_000,
                           trace_path=str(tmp_path / "t.csv"))
    summary = run_experiment(fixed_instance_1d(), cfg)
    # the default start (projection of the origin) is the exact KKT point here
    assert summary["best_eps"] <= 1e-4
    assert summary["constants"]["sigma5_bar"] == pytest.approx(13 * np.sqrt(2), rel=1e-12)
    assert (tmp_path / "t.csv").exists()


def test_run_experiment_deterministic(tmp_path):
    inst = generate_nonconvex_qp(n=5, m=2, neg_eigs=2, rng_seed=7)
    cfg = dict(algorithm="sprox", mode="practical", max_iters=500)
    a = run_experiment(inst, ExperimentConfig(**cfg))
    b = run_experiment(inst, ExperimentConfig(**cfg))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_experiment_alm_flags_heuristic():
    inst = generate_nonconvex_qp(n=4, m=1, neg_eigs=2, rng_seed=3)
    cfg = ExperimentConfig(algorithm="alm", mode="practical", max_iters=30)
    summary = run_experiment(inst, cfg)
    assert summary["heuristic"] is True


# ----------------------------------------------------------------- CLI

def test_cli_gen_constants_solve_roundtrip(tmp_path, capsys):
    problem = tmp_path / "qp.json"
    rc = main(["gen-qp", "--n", "4", "--m", "2", "--neg-eigs", "1",
               "--seed", "5", "--out", str(problem)])
    assert rc == 0
    capsys.readouterr()

    rc = main(["constants", "--problem", str(problem), "--mode", "practical"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["theta_exact"] is True  # 12 rows <= 20

    trace = tmp_path / "trace.csv"
    rc = main(["solve", "--problem", str(problem), "--algo", "sprox",
               "--mode", "practical", "--max-iters", "300",
               "--trace", str(trace)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iters"] <= 300
    assert trace.exists()


def test_cli_solve_reports_every_monitor_counter(tmp_path, capsys):
    problem = tmp_path / "qp.json"
    assert main(["gen-qp", "--n", "3", "--m", "1", "--neg-eigs", "1",
                 "--seed", "2", "--out", str(problem)]) == 0
    capsys.readouterr()
    solve = ["solve", "--problem", str(problem), "--mode", "theoretical", "--max-iters", "40",
             "--monitor", "full"]

    assert main(solve + ["--algo", "sprox"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["monitors"] == {"phi_monotone_violations": 0, "lemma34_violations": 0,
                                   "step_error_bound_violations": 0,
                                   "checks": summary["iters"]}
    assert summary["iters"] > 0

    assert main(solve + ["--algo", "alm"]) == 0
    assert json.loads(capsys.readouterr().out)["monitors"] == dict.fromkeys(summary["monitors"])


def test_cli_alm_divergence_exits_2(tmp_path, capsys):
    # the inner problem of this nonconvex ALM run is unbounded below on P
    from tests.conftest import make_general_instance

    problem = tmp_path / "qp.json"
    save_instance(make_general_instance(6, 2, 4, neg_eigs=2, seed=63), problem)
    rc = main(["solve", "--problem", str(problem), "--algo", "alm", "--mode", "practical",
               "--tol", "1e-8", "--max-iters", "40"])
    assert rc == 2
    assert "diverged" in capsys.readouterr().err


def test_cli_alm_with_a_huge_iteration_budget_converges(tmp_path, capsys):
    # the trace grows with the run, so the budget sizes no allocation
    problem = tmp_path / "p.json"
    save_instance(fixed_instance_1d(), problem)
    assert main(["solve", "--problem", str(problem), "--algo", "alm",
                 "--max-iters", "10000000000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["iters"] < 100 and out["best_eps"] <= 1e-8


def test_cli_invalid_problem_exits_3_without_trace(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    trace = tmp_path / "never.csv"
    rc = main(["solve", "--problem", str(bad), "--trace", str(trace)])
    assert rc == 3
    assert not trace.exists()


def test_cli_verify_eb_on_golden(tmp_path, capsys):
    problem = tmp_path / "p.json"
    save_instance(fixed_instance_1d(), problem)
    rc = main(["verify-eb", "--problem", str(problem), "--samples", "20",
               "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["max_ratio"] <= out["bound"]


def test_cli_verify_hoffman(tmp_path, capsys):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"n": 1, "C1": [1.0], "b1": [1.0],
                                  "C2": [], "b2": [], "theta": 1.0}))
    rc = main(["verify-hoffman", "--system", str(system), "--points", "30",
               "--seed", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True


@pytest.mark.parametrize("system", [
    {"C1": [1.0], "b1": [1.0]},                    # no n
    {"n": 2, "C1": [1.0, 2.0, 3.0], "b1": [1.0]},  # three entries make no rows of two
    {"n": 2, "C1": [1.0, 0.0], "b1": [1.0, 2.0]},  # two right-hand sides for one row
    {"n": 2, "C2": [1.0, 0.0, 0.0, 1.0], "b2": [1.0]},
    {"n": 2, "C1": [float("nan"), 0.0], "b1": [1.0]},
    {"n": 2, "C2": [1.0, 0.0], "b2": [float("nan")]},
    {"n": 2.5, "C1": [1.0, 0.0], "b1": [1.0]},
    {"n": True, "C1": [1.0], "b1": [1.0]},
    {"n": 0, "C1": [], "b1": []},
    {"n": 1, "C1": [1.0], "b1": [1.0], "theta": 0.0},
    [1.0, 2.0],
])
def test_cli_verify_hoffman_malformed_system_exits_3(tmp_path, capsys, system):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    assert main(["verify-hoffman", "--system", str(path)]) == 3
    assert "cannot load system file" in capsys.readouterr().err


def test_cli_gen_qp_invalid_sizes_exits_2(tmp_path, capsys):
    out = tmp_path / "qp.json"
    rc = main(["gen-qp", "--n", "3", "--m", "5", "--neg-eigs", "1", "--seed", "0",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("box", [["--box-lo=-inf"], ["--box-lo=nan"],
                                 ["--box-lo=-1e308", "--box-hi=1e308"],
                                 ["--box-lo=-1e200", "--box-hi=1e200"],
                                 ["--box-lo=-1e154", "--box-hi=1e154"]])
@pytest.mark.filterwarnings("error")
def test_cli_gen_qp_non_finite_box_exits_2(tmp_path, capsys, box):
    out = tmp_path / "qp.json"
    rc = main(["gen-qp", "--n", "3", "--m", "1", "--neg-eigs", "1", "--seed", "0",
               "--out", str(out)] + box)
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_cli_gen_qp_wide_box_within_float_range(tmp_path, capsys):
    # on [-1e150, 1e150]^3 the bound L_f/2 ||x||^2 + |q|'|x| on |f| is finite
    out = tmp_path / "qp.json"
    assert main(["gen-qp", "--n", "3", "--m", "1", "--neg-eigs", "1", "--seed", "0",
                 "--box-lo=-1e150", "--box-hi=1e150", "--out", str(out)]) == 0
    inst = load_instance(out)
    for corner in itertools.product(*zip(inst.polyhedron.lo, inst.polyhedron.hi)):
        assert np.isfinite(inst.f(np.array(corner)))


@pytest.mark.parametrize("algo", ["sprox", "alm"])
@pytest.mark.parametrize("max_iters", ["0", "-3"])
def test_cli_solve_without_iterations_exits_2(tmp_path, capsys, algo, max_iters):
    problem = tmp_path / "p.json"
    save_instance(fixed_instance_1d(), problem)
    rc = main(["solve", "--problem", str(problem), "--algo", algo, "--max-iters", max_iters])
    assert rc == 2
    assert capsys.readouterr().err.startswith("solver error: max_iters")


@pytest.mark.parametrize("tol", ["0", "nan"])
def test_cli_solve_tolerance_must_be_positive(tmp_path, capsys, tol):
    problem = tmp_path / "p.json"
    save_instance(fixed_instance_1d(), problem)
    assert main(["solve", "--problem", str(problem), "--tol", tol, "--max-iters", "5"]) == 2
    assert capsys.readouterr().err.startswith("solver error: target_eps")


@pytest.mark.parametrize("argv", [
    ["verify-eb", "--samples", "0"], ["verify-eb", "--samples", "-2"],
    ["verify-hoffman", "--points", "0"],
    ["trace-segment", "--grid", "0"], ["trace-segment", "--grid", "1"],
])
def test_cli_verifiers_without_evidence_exit_2(tmp_path, capsys, argv):
    problem, system = tmp_path / "p.json", tmp_path / "sys.json"
    save_instance(generate_nonconvex_qp(n=3, m=1, neg_eigs=1, rng_seed=9), problem)
    system.write_text(json.dumps({"n": 1, "C1": [1.0], "b1": [1.0], "theta": 1.0}))
    source = ["--system", str(system)] if argv[0] == "verify-hoffman" \
        else ["--problem", str(problem)]
    assert main(argv + source) == 2
    assert capsys.readouterr().err.startswith("solver error:")


# each subcommand and the call its work goes through
_COMMAND_CALLS = [
    ("solve", "run_experiment"), ("constants", "plan_stepsizes"),
    ("verify-eb", "verify_dual_error_bound"), ("verify-hoffman", "verify_hoffman"),
    ("trace-segment", "trace_segment_decomposition"), ("gen-qp", "generate_nonconvex_qp"),
]


@pytest.mark.parametrize("command, call", _COMMAND_CALLS)
def test_cli_main_maps_every_failure_to_its_exit_code(tmp_path, capsys, monkeypatch,
                                                      command, call):
    problem, system = tmp_path / "p.json", tmp_path / "sys.json"
    save_instance(fixed_instance_1d(), problem)
    system.write_text(json.dumps({"n": 1, "C1": [1.0], "b1": [1.0], "theta": 1.0}))
    argv = {
        "verify-hoffman": ["--system", str(system)],
        "gen-qp": ["--n", "3", "--m", "1", "--neg-eigs", "1", "--seed", "0",
                   "--out", str(tmp_path / "qp.json")],
    }.get(command, ["--problem", str(problem)])

    for exc, rc, prefix in ((RuntimeError, 2, "solver error:"),
                            (FloatingPointError, 2, "solver error:"),
                            (MemoryError, 2, "solver error:"),
                            (OSError, 3, "I/O error:"), (TypeError, None, None)):
        def fail(*args, exc=exc, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(cli, call, fail)
        if rc is None:   # a bug is not an exit code
            with pytest.raises(TypeError, match="injected"):
                main([command] + argv)
        else:
            assert main([command] + argv) == rc
            assert capsys.readouterr().err == f"{prefix} injected\n"


def test_cli_trace_segment(tmp_path, capsys):
    problem = tmp_path / "qp.json"
    main(["gen-qp", "--n", "3", "--m", "1", "--neg-eigs", "1",
          "--seed", "9", "--out", str(problem)])
    capsys.readouterr()
    rc = main(["trace-segment", "--problem", str(problem), "--grid", "101",
               "--seed", "4"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["telescoped_sum"] == pytest.approx(out["residual_norm"], abs=1e-10)


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_cli_trace_segment_non_finite_y_scale_exits_2(tmp_path, capsys, scale):
    problem = tmp_path / "qp.json"
    main(["gen-qp", "--n", "3", "--m", "1", "--neg-eigs", "1",
          "--seed", "9", "--out", str(problem)])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["trace-segment", "--problem", str(problem), "--y-scale", scale])
    assert rc == 2
    assert "non-finite y_tilde" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_entrypoint_module():
    out = subprocess.run([sys.executable, "-m", "sproxalm", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "solve" in out.stdout and "gen-qp" in out.stdout


def test_cli_loads_no_scipy(tmp_path):
    """The library needs numpy only: a fresh interpreter that solves a box
    problem, and runs the monitor, the error-bound verifier and the
    segment tracer on a halfspace problem, never loads scipy.  A
    subprocess: this test session has imported scipy already."""
    box, trace = str(tmp_path / "qp.json"), str(tmp_path / "trace.csv")
    halfspaces = str(tmp_path / "halfspaces.json")
    save_instance(make_general_instance(6, 2, 4, neg_eigs=2, seed=62), halfspaces)
    code = "\n".join([
        "import json, sys",
        "from sproxalm.cli import main",
        f"assert main(['gen-qp', '--n', '6', '--m', '2', '--neg-eigs', '2', '--seed', '3',"
        f" '--out', {box!r}]) == 0",
        f"assert main(['solve', '--problem', {box!r}, '--max-iters', '500',"
        f" '--trace', {trace!r}]) == 0",
        f"assert main(['verify-eb', '--problem', {halfspaces!r}, '--samples', '3']) == 0",
        f"assert main(['solve', '--problem', {halfspaces!r}, '--mode', 'theoretical',"
        f" '--max-iters', '20', '--monitor', 'full']) == 0",
        f"assert main(['trace-segment', '--problem', {halfspaces!r}, '--grid', '21']) == 0",
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))",
    ])
    src = str(Path(sproxalm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []


# ------------------------------------------- practical plans without theta

@pytest.fixture
def thirty_row_problem(tmp_path):
    """A box instance whose multiplier system M has 10 + 20 rows, above the
    default exact_limit of 20."""
    path = tmp_path / "box10.json"
    save_instance(generate_nonconvex_qp(n=10, m=3, neg_eigs=3, rng_seed=0), path)
    return str(path)


def test_cli_verify_eb_bound_is_the_same_in_both_modes(thirty_row_problem, capsys):
    outputs = []
    for mode in ("practical", "theoretical"):
        rc = main(["verify-eb", "--problem", thirty_row_problem, "--mode", mode,
                   "--samples", "5", "--exact-limit", "30"])
        outputs.append((rc, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["bound"] > 0
    # at the default exact_limit of 20 neither mode has an exact sigma5_bar
    for mode in ("practical", "theoretical"):
        assert main(["verify-eb", "--problem", thirty_row_problem, "--mode", mode,
                     "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "30 rows, above " in captured.err


def test_cli_theoretical_constants_above_exact_limit_exits_2(thirty_row_problem, capsys):
    assert main(["constants", "--problem", thirty_row_problem]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs an exact theta_bar" in captured.err
    assert "30 rows, above exact_limit = 20" in captured.err


def test_cli_box_above_the_subset_budget_exits_2(tmp_path, capsys):
    # M has 16 + 32 = 48 rows, within --exact-limit 48, but the box
    # enumeration would visit C(16, 5) 2^11 subsets
    path = tmp_path / "box16.json"
    save_instance(generate_nonconvex_qp(n=16, m=5, neg_eigs=5, rng_seed=0), path)
    assert main(["constants", "--problem", str(path), "--exact-limit", "48"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and "8,945,664 subsets" in err


def test_cli_practical_solve_reports_null_theta(thirty_row_problem, capsys):
    rc = main(["solve", "--problem", thirty_row_problem, "--mode", "practical",
               "--max-iters", "50"])
    assert rc == 0
    constants = json.loads(capsys.readouterr().out)["constants"]
    assert constants["theta_bar"] is None and constants["sigma5_bar"] is None
    assert constants["beta_max"] is None and constants["theta_exact"] is False
    assert any("theta_bar not computed" in w for w in constants["warnings"])


# ------------------------------------------------- malformed problem files

def _small_problem():
    return instance_to_dict(generate_nonconvex_qp(n=3, m=1, neg_eigs=1, rng_seed=2))


def _with(**fields):
    data = _small_problem()
    data.update(fields)
    return data


def _with_x_feas(x):
    """The small problem with meta.x_feas = x and b = A x."""
    data = _small_problem()
    b = np.reshape(data["A"], (data["m"], data["n"])) @ np.asarray(x)
    return _with(b=b.tolist(), meta=dict(data["meta"], x_feas=list(x)))


@pytest.mark.parametrize("data", [
    [], "problem", None,
    _with(n=None), _with(m=None), _with(offset=None), _with(L_f=None), _with(f_lower=None),
    _with(meta=None), _with(polyhedron=None), _with(polyhedron="box"), _with(q=None),
    _with(b=None), _with(Q="Q"), _with(A=[[1.0, 2.0, 3.0]]), _with(L_f=float("nan")),
    {k: v for k, v in _small_problem().items() if k != "L_f"},
    _with(meta=dict(_small_problem()["meta"], f_lower_kind=[1])),
    _with(meta=dict(_small_problem()["meta"], f_lower_kind="exakt")),
    _with_x_feas([2.0, 0.5, 0.5]), _with(b=[v + 1.0 for v in _small_problem()["b"]]),
])
def test_cli_malformed_problem_exits_3(tmp_path, capsys, data):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    for command in ("solve", "constants"):
        assert main([command, "--problem", str(path)]) == 3
        assert "cannot load problem file" in capsys.readouterr().err


def _scaled_equalities(scale):
    data = _small_problem()
    return _with(A=[scale * a for a in data["A"]], b=[scale * v for v in data["b"]])


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


_NO_STEP_SIZES = "step sizes need L_f > 0 and finite L and 1/L"


def _understated_lipschitz(factor):
    """A gen-qp file whose L_f is factor * ||Q||_2, and the planner's message."""
    data = instance_to_dict(generate_nonconvex_qp(n=6, m=2, neg_eigs=2, rng_seed=3))
    norm_Q = float(np.max(np.abs(np.linalg.eigvalsh(np.reshape(data["Q"], (6, 6))))))
    L_f = factor * norm_Q
    return dict(data, L_f=L_f), f"the declared L_f = {L_f} is below ||Q||_2 = {norm_Q}"


@pytest.mark.parametrize("data, message", [
    (_with(L_f=0.0), _NO_STEP_SIZES), (_with(L_f=-1.0), _NO_STEP_SIZES),
    (_with(L_f=1e308), _NO_STEP_SIZES), (_with(L_f=1e-320), _NO_STEP_SIZES),
    (_scaled_equalities(1e160), "smax(A)^2 = (1e+160)^2 is beyond float range"),
    (_scaled_equalities(1e100), "alpha_max = c*gamma_K^2/(4*smax(A)^2) underflows to 0"),
    (_with(L_f=1e200), "gamma_K^2 = (2e+200)^2 is beyond float range"),
    _understated_lipschitz(0.2), _understated_lipschitz(0.1),
    (_with(f_lower=1e3, meta=dict(_small_problem()["meta"], f_lower_kind="exact")),
     "the exact f_lower = 1000.0 is above f(x_feas) = "),
], ids=["L_f=0", "L_f=-1", "L_f=1e308", "L_f=1e-320", "A*1e160", "A*1e100", "L_f=1e200",
        "L_f=0.2|Q|", "L_f=0.1|Q|", "exact f_lower>f(x_feas)"])
def test_cli_instances_without_step_sizes_exit_2(tmp_path, capsys, data, message):
    # for a subnormal L_f, L is finite but c = 0.99/L is not; past float range
    # the message names the square that overflowed, or the alpha_max that
    # underflowed; an understated L_f or an exact f_lower above a feasible
    # value would make the plan unsound
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    for argv in (["constants"], ["constants", "--mode", "practical"], ["solve"],
                 ["verify-eb", "--samples", "5"], ["trace-segment", "--grid", "11"]):
        assert main(argv + ["--problem", str(path)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and message in err, err


def test_cli_estimated_f_lower_is_not_checked(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_with(f_lower=1e3, meta=dict(_small_problem()["meta"],
                                                            f_lower_kind="estimate"))))
    assert main(["constants", "--problem", str(path)]) == 0


def test_cli_infeasible_x_feas_is_blamed_not_the_f_lower(tmp_path, capsys):
    # the planner compares an exact f_lower with f(x_feas); an x_feas off
    # A x = b is a load error that names its residual
    data = _with(b=[v + 1.0 for v in _small_problem()["b"]], f_lower=1e3,
                 meta=dict(_small_problem()["meta"], f_lower_kind="exact"))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(path)]) == 3
    err = capsys.readouterr().err
    assert "cannot load problem file" in err and "||A x_feas - b|| = 1" in err


def test_cli_instance_without_equality_rows(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_with(m=0, A=[], b=[])))
    for argv in (["constants"], ["constants", "--mode", "practical"],
                 ["solve", "--max-iters", "50"],
                 ["solve", "--max-iters", "50", "--monitor", "full"],
                 ["solve", "--max-iters", "50", "--algo", "alm"],
                 ["verify-eb", "--samples", "5"], ["trace-segment", "--grid", "101"]):
        assert main(argv + ["--problem", str(path)]) == 0, argv
        out = _strict_json(capsys.readouterr().out)
        if argv[0] in ("constants", "solve"):
            constants = out.get("constants", out)
            assert constants["alpha_max"] is None and constants["sigma3"] is None


@pytest.mark.parametrize("scale, L_f, sigma3_bound", [(0.0, None, False), (1e-170, None, True),
                                                     (1e-170, 1e140, False)])
def test_cli_plan_without_an_alpha_bound(tmp_path, capsys, scale, L_f, sigma3_bound):
    # A = 0 has no alpha bound; for A scaled by 1e-170 it lies beyond float range,
    # and with L_f = 1e140 so does sigma3 = gamma_K / smax(A)
    data = _scaled_equalities(scale)
    if L_f is not None:
        data["L_f"] = L_f
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    for argv in (["constants"], ["solve", "--max-iters", "50"]):
        assert main(argv + ["--problem", str(path)]) == 0, argv
        out = _strict_json(capsys.readouterr().out)
        constants = out.get("constants", out)
        assert constants["alpha_max"] is None
        assert (constants["sigma3"] is not None) == sigma3_bound


def test_cli_trace_segment_without_an_equality_row(tmp_path, capsys):
    # with A = 0, b = 0 every KKT matrix is singular; the tracer's QP
    # eliminates Ax = b by rank
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_scaled_equalities(0.0)))
    assert main(["trace-segment", "--problem", str(path), "--grid", "101"]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["pass"] is True and out["residual_norm"] == 0.0 and out["breakpoints"] == []


def test_cli_verify_eb_reports_an_unbounded_ratio_as_null(tmp_path, capsys):
    # A scaled by 1e-170: theta_bar reads the A block as zero and every
    # ratio divides by an underflowed residual
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_scaled_equalities(1e-170)))
    assert main(["verify-eb", "--problem", str(path), "--samples", "5"]) == 1
    out = _strict_json(capsys.readouterr().out)
    assert out["max_ratio"] is None and out["pass"] is False


def test_cli_emit_writes_nothing_for_non_finite_values(capsys):
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            cli._emit({"ok": 1.0, "bad": [value]})
        assert capsys.readouterr().out == ""


def test_cli_asymmetric_q_solves_as_its_symmetric_part(tmp_path, capsys):
    # f reads only the symmetric part of Q; the gradient must too, and so
    # must the check of the declared L_f
    data = instance_to_dict(generate_nonconvex_qp(n=4, m=1, neg_eigs=1, rng_seed=3))
    Q = np.array(data["Q"]).reshape(4, 4)
    Q[2, 3] += 0.7
    sym = 0.5 * Q + 0.5 * Q.T
    L_f = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    outputs = []
    for name, Qf in (("asym", Q), ("sym", sym)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(data, Q=Qf.ravel().tolist(), L_f=L_f)))
        assert main(["solve", "--problem", str(path), "--tol", "1e-9"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # the generator's L_f is the norm of the unperturbed Q, below ||sym||_2
    path.write_text(json.dumps(dict(data, Q=Q.ravel().tolist())))
    assert main(["solve", "--problem", str(path), "--tol", "1e-9"]) == 2
    assert f"is below ||Q||_2 = {L_f}" in capsys.readouterr().err


def test_cli_deeply_nested_files_exit_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)   # beyond the JSON parser's recursion
    assert main(["solve", "--problem", str(path)]) == 3
    assert main(["verify-hoffman", "--system", str(path)]) == 3


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(10 ** 400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=10) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=12)


def _fields(data, prefix=()):
    """Paths of every field, and of the first entries of every list."""
    if isinstance(data, dict):
        for k, v in data.items():
            yield prefix + (k,)
            yield from _fields(v, prefix + (k,))
    elif isinstance(data, list):
        for i in range(min(len(data), 2)):
            yield prefix + (i,)


@st.composite
def _mutated(draw, base):
    """base with one to three fields deleted or replaced by any JSON value,
    or some other JSON value in its place."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_json_values)
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_fields(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_json_values)
    return data


_BASE_PROBLEMS = (_small_problem(),
                  instance_to_dict(make_general_instance(3, 1, 2, neg_eigs=1, seed=5)))
_BASE_SYSTEM = {"n": 2, "C1": [1.0, 0.5, -0.3, 1.0], "b1": [1.0, 0.2], "C2": [0.7, 0.1],
                "b2": [0.3], "theta": 4.0}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(*(_mutated(b) for b in _BASE_PROBLEMS)))
def test_cli_fuzzed_problem_files_map_to_exit_codes(tmp_path, data):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    for argv in (["solve", "--max-iters", "20"], ["constants"], ["verify-eb", "--samples", "2"],
                 ["trace-segment", "--grid", "11"]):
        assert _run(argv + ["--problem", str(path)]) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_mutated(_BASE_SYSTEM))
def test_cli_fuzzed_system_files_map_to_exit_codes(tmp_path, data):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert _run(["verify-hoffman", "--system", str(path), "--points", "5"]) in (0, 1, 2, 3)
