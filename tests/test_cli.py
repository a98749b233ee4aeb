import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from alphacir import __version__, affine, cli
from alphacir.cli import FIG12_PARAMS, _fig2_rate, run
from alphacir.stable import StableSpec, sample_stable_increment

JUMP_FLAGS = ["--a", "0.1", "--b", "0.1", "--sigma", "0.1", "--sigma-z",
              "0.1", "--r0", "0.2"]

# sidecar "params" at the default model flags and at JUMP_FLAGS
DEFAULT_PARAMS = {"a": 0.1, "b": 0.3, "sigma": 0.1, "sigma_z": 0.3,
                  "alpha": 1.5, "r0": 0.05}
JUMP_PARAMS = {**DEFAULT_PARAMS, "b": 0.1, "sigma_z": 0.1, "r0": 0.2}
# the presets' fixed parameter sets, echoed in their sidecar "config"
FIG12 = {"a": 0.1, "b": 0.3, "sigma": 0.1, "sigma_z": 0.3, "r0": 0.1}
FIG3 = {**FIG12, "r0": 0.05}
FIG45 = {"a": 0.1, "b": 0.1, "sigma": 0.1, "sigma_z": 0.1, "r0": 0.2}


def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_bond_writes_csv_and_sidecar(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["bond", "--tmax", "5", "--points", "6"]) == 0
    arr = np.loadtxt(tmp_path / "bond.csv", delimiter=",", skiprows=1)
    assert arr.shape == (6, 2)
    assert arr[0, 1] == 1.0
    doc = json.loads((tmp_path / "bond.json").read_text())
    assert doc["command"] == "bond"
    assert doc["params"]["alpha"] == 1.5
    assert "wall_time_s" in doc


def test_sidecar_schema(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["bond", "--tmax", "10", "--points", "2", "--out", "run"]) == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    assert list(doc) == ["command", "params", "config", "seed", "version",
                         "wall_time_s"]
    assert doc["params"] == DEFAULT_PARAMS
    assert doc["config"] == {"tmax": 10.0, "points": 2}
    assert doc["seed"] is None and doc["version"] == __version__


def test_simulate_root_scheme(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["simulate", "--scheme", "root", "--dt", "1e-2",
                "--horizon", "1", "--seed", "3"]) == 0
    arr = np.loadtxt(tmp_path / "simulate.csv", delimiter=",", skiprows=1)
    assert arr.shape == (101, 2)


def test_simulate_accepts_scientific_notation(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["simulate", "--scheme", "thinned", "--dt", "5e-3",
                "--horizon", "2", "--y", "1.0"] + JUMP_FLAGS) == 0


@pytest.mark.parametrize("scheme", ["root", "thinned", "lou", "hawkes"])
def test_simulate_writes_finite_files(tmp_path, monkeypatch, scheme):
    # seed 2 gives the LOU path big jumps, whose sizes once were written as nan
    _in_tmp(tmp_path, monkeypatch)
    assert run(["simulate", "--scheme", scheme, "--seed", "2", "--dt", "1e-2",
                "--horizon", "20", "--n-agents", "5"] + JUMP_FLAGS) == 0
    for path in tmp_path.iterdir():
        if path.suffix == ".csv":
            arr = np.loadtxt(path, delimiter=",", skiprows=1)
            assert np.all(np.isfinite(arr)), path.name
        else:
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path.name


def test_validation_error_exit_code(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["bond", "--tmax", "-1"]) == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["put-price", "--strike", "nan", "--maturity", "1"],
                 id="put-price-strike"),
    pytest.param(["put-laplace", "--theta", "inf", "--strike", "0.04"],
                 id="put-laplace-theta"),
    pytest.param(["put-price", "--sigma-z", "nan", "--strike", "0.04",
                  "--maturity", "1"], id="put-price-sigma-z"),
    pytest.param(["bond", "--r0", "nan"], id="bond-r0"),
    pytest.param(["bond", "--a", "nan"], id="bond-a"),
    pytest.param(["bond", "--tmax", "nan"], id="bond-tmax"),
    pytest.param(["yield", "--kappa", "nan"], id="yield-kappa"),
    pytest.param(["jump-survival", "--tmax", "nan"], id="jump-survival-tmax"),
    pytest.param(["jump-expectation", "--sigma-z", "nan"],
                 id="jump-expectation-sigma-z"),
    pytest.param(["jump-counter", "--p", "nan"], id="jump-counter-p"),
    # finite but outside the domain: with b = 0, E[tau] is infinite
    pytest.param(["jump-expectation", "--a", "0.1", "--b", "0", "--sigma",
                  "0.1", "--sigma-z", "0.1", "--r0", "0.2", "--alpha", "1.5",
                  "--y-bar", "0.1"], id="jump-expectation-b-zero"),
    pytest.param(["yield", "--rate", "nan"], id="yield-rate"),
    pytest.param(["stationary", "--pmax", "nan"], id="stationary-pmax"),
    # one path has no standard error
    pytest.param(["hawkes-limit", "--n-paths", "1"], id="hawkes-limit-one-path"),
    pytest.param(["simulate", "--scheme", "hawkes", "--n-agents", "0"],
                 id="simulate-hawkes-n-zero"),
    pytest.param(["simulate", "--scheme", "hawkes", "--horizon", "nan"],
                 id="simulate-hawkes-horizon"),
    pytest.param(["hawkes-limit", "--horizon", "nan", "--n-paths", "10"],
                 id="hawkes-limit-horizon"),
    pytest.param(["hawkes-limit", "--a", "nan", "--n-paths", "10"],
                 id="hawkes-limit-a"),
    # the n - 2 stability check needs n >= 4
    pytest.param(["put-price", "--maturity", "1", "--strike", "0.04",
                  "--n-terms", "2"], id="put-price-n-terms"),
    # the jump kernels need a finite positive mark threshold
    pytest.param(["simulate", "--scheme", "lou", "--y", "inf"],
                 id="simulate-lou-y-inf"),
    pytest.param(["simulate", "--scheme", "lou", "--y", "nan"],
                 id="simulate-lou-y-nan"),
    # a threshold so small that nu(y) = C_alpha y^(-alpha) is not a float
    pytest.param(["jump-expectation", "--y-bar", "1e-300"],
                 id="jump-expectation-y-bar-tiny"),
    pytest.param(["jump-survival", "--y-bar", "1e-300"],
                 id="jump-survival-y-bar-tiny"),
    pytest.param(["jump-counter", "--p", "1", "--y-bar", "1e-300"],
                 id="jump-counter-y-bar-tiny"),
    pytest.param(["simulate", "--scheme", "thinned", "--y", "1e-300"],
                 id="simulate-thinned-y-tiny"),
    # a step count horizon / dt that is not finite cannot be built
    pytest.param(["simulate", "--horizon", "inf"], id="simulate-horizon-inf"),
    pytest.param(["simulate", "--scheme", "thinned", "--horizon", "1e300",
                  "--dt", "1e-300"], id="simulate-thinned-step-count"),
    pytest.param(["fig1", "--horizon", "inf"], id="fig1-horizon-inf"),
    # 1e15 steps: a 7 PiB time grid, refused before it is allocated
    pytest.param(["simulate", "--horizon", "1e12"], id="simulate-step-bound"),
    pytest.param(["fig1", "--horizon", "1e12"], id="fig1-step-bound"),
    pytest.param(["fig2", "--horizon", "1e12"], id="fig2-step-bound"),
    # every transform starts from a nonnegative short rate
    pytest.param(["yield", "--rate", "-0.01"], id="yield-rate-negative"),
])
def test_non_finite_input_exits_two(tmp_path, monkeypatch, capsys, argv):
    _in_tmp(tmp_path, monkeypatch)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_put_price_result_reports_tail_grids(tmp_path, monkeypatch):
    # the criterion-9 fixture put at the default model flags
    _in_tmp(tmp_path, monkeypatch)
    assert run(["put-price", "--strike", "0.039941", "--maturity", "1"]) == 0
    doc = json.loads((tmp_path / "put_price_result.json").read_text())
    assert doc["price"] == 0.010466419189409994
    assert doc["diagnostics"]["h_tail_grids"] == 65
    assert doc["diagnostics"]["transform_evals"] == 14
    # the 14 M curves read 162 steps of one Riccati flow
    assert doc["diagnostics"]["riccati_steps"] == 162
    assert "riccati_tail_steps" not in doc["diagnostics"]
    # the inversion's condition number, 8.48e6 at 14 terms
    assert 8.4e6 < doc["diagnostics"]["kappa_inv"] < 8.6e6


def test_put_laplace_void_strike(tmp_path, monkeypatch):
    # the effective strike is negative, so the transform is zero and the
    # diagnostics hold no node data
    _in_tmp(tmp_path, monkeypatch)
    assert run(["put-laplace", "--theta", "1", "--strike", "0.005"]) == 0
    doc = json.loads((tmp_path / "put_laplace_result.json").read_text())
    assert doc["laplace_value"] == 0.0
    assert doc["diagnostics"]["void"] is True


def test_put_price_void_strike(tmp_path, monkeypatch):
    # a negative effective strike prices the put at zero
    _in_tmp(tmp_path, monkeypatch)
    assert run(["put-price", "--maturity", "1", "--strike", "0.005"]) == 0
    doc = json.loads((tmp_path / "put_price_result.json").read_text())
    assert doc["price"] == 0.0
    assert doc["diagnostics"]["void"] is True
    assert doc["diagnostics"]["kappa_inv"] is None


@pytest.mark.parametrize("argv, theta", [
    (["put-laplace", "--theta", "400", "--strike", "0.04"], "400"),
    (["put-price", "--maturity", "0.02", "--strike", "0.04"], "138.629"),
    # the remainder integral of H is not finite: a diagnostic, not bad input
    (["put-laplace", "--theta", "1e300", "--strike", "0.04"], "1e+300"),
])
def test_non_finite_put_exits_three(tmp_path, monkeypatch, capsys, argv,
                                    theta):
    # H overflows at these transform arguments; the NaN it leads to must not
    # be written as a result
    _in_tmp(tmp_path, monkeypatch)
    with np.errstate(all="ignore"):
        assert run(argv) == 3
    assert f"theta = {theta}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_thinned_mid_band_overflow_exits_three(tmp_path, monkeypatch, capsys):
    # about 2e10 mid-band jumps a step: a diagnostic, not an allocation error
    _in_tmp(tmp_path, monkeypatch)
    assert run(["simulate", "--scheme", "thinned", "--y", "1e-8",
                "--horizon", "0.01"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical diagnostic failure: mid-band overflow")
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


_PSI_POWER = "mechanism.psi: return a * q + 0.5 * s * s * q * q - power(sz * q"
_KERNEL_VAR = "sim.__init__: var = params.sigma ** 2 + sz ** 2"
_OVERFLOWS = [
    # a float power past the largest float: Psi's (sigma_z q)^alpha, and
    # the thinned and LOU kernels' sigma_z ** 2, named by the line
    (["stationary", "--pmax", "1e300"], "float overflow in " + _PSI_POWER),
    (["boundary", "--sigma-z", "1e300"], "float overflow in " + _PSI_POWER),
    (["simulate", "--scheme", "thinned", "--sigma-z", "1e300"],
     "float overflow in " + _KERNEL_VAR),
    (["simulate", "--scheme", "lou", "--sigma-z", "1e300"],
     "float overflow in " + _KERNEL_VAR),
    (["bond", "--sigma-z", "1e300"], "float overflow in " + _PSI_POWER),
    # a root-scheme path whose rate overflows
    (["simulate", "--sigma", "1e300"],
     "the path left the floats: overflow encountered in multiply"),
    (["simulate", "--sigma-z", "1e300"],
     "the path left the floats: overflow encountered in multiply"),
]


@pytest.mark.parametrize("argv, message", _OVERFLOWS, ids=[
    "-".join(a.strip("-") for a in argv) for argv, _ in _OVERFLOWS])
def test_overflow_exits_three(tmp_path, monkeypatch, capsys, argv, message):
    # one stderr line that says what overflowed and no file, neither a
    # traceback (OverflowError) nor a CSV of NaN rows reported as success
    _in_tmp(tmp_path, monkeypatch)
    affine._flow.cache_clear()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical diagnostic failure: " + message)
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    assert affine._flow.cache_info().currsize == 0


def test_unstable_put_exits_three(tmp_path, monkeypatch, capsys):
    # 4 Stehfest terms are 12.7 % away from 2; the price is not written
    _in_tmp(tmp_path, monkeypatch)
    assert run(["put-price", "--maturity", "1", "--strike", "0.04",
                "--n-terms", "4"]) == 3
    err = capsys.readouterr().err
    assert "n=4 gives 0.0109" in err and "n=2 gives 0.0123" in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exits_two(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_yield_result_json(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["yield", "--kappa", "1"]) == 0
    doc = json.loads((tmp_path / "yield_result.json").read_text())
    assert doc["value"] > 0.0


def test_jump_expectation_result(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["jump-expectation", "--y-bar", "0.1"] + JUMP_FLAGS) == 0
    doc = json.loads((tmp_path / "jump_expectation_result.json").read_text())
    assert doc["value"] == pytest.approx(doc["survival_route"])
    assert doc["route_gap"] == pytest.approx(
        abs(doc["survival_route"] - doc["density_route"])
        / abs(doc["density_route"]))
    assert doc["route_gap"] < 1e-4


def test_jump_survival_curve(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["jump-survival", "--y-bar", "0.1", "--tmax", "10",
                "--points", "21"] + JUMP_FLAGS) == 0
    arr = np.loadtxt(tmp_path / "jump_survival.csv", delimiter=",",
                     skiprows=1)
    assert arr[0, 1] == pytest.approx(1.0)
    assert np.all(np.diff(arr[:, 1]) <= 1e-12)


def test_measure_change_result(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["measure-change", "--eta", "0.5", "--theta", "0.2"]) == 0
    doc = json.loads((tmp_path / "measure_change_result.json").read_text())
    assert doc["jump_spec"]["variant"] == "tempered"


def test_boundary_result(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["boundary"]) == 0
    doc = json.loads((tmp_path / "boundary_result.json").read_text())
    assert doc["classification"] in ("inaccessible", "accessible")


def test_fig3_preset_columns(tmp_path, monkeypatch):
    _in_tmp(tmp_path, monkeypatch)
    assert run(["fig3", "--tmax", "2", "--points", "3"]) == 0
    header = (tmp_path / "fig3.csv").read_text().splitlines()[0]
    assert header == "T,alpha_1.2,alpha_1.5,alpha_2.0,cir"


def test_fig1_fig2_share_driver(tmp_path, monkeypatch):
    # fig2 short rates are built from the same stable paths as fig1, so with
    # the default seed both runs must be reproducible
    _in_tmp(tmp_path, monkeypatch)
    assert run(["fig1", "--dt", "1e-2", "--horizon", "0.5"]) == 0
    assert run(["fig2", "--dt", "1e-2", "--horizon", "0.5"]) == 0
    z = np.loadtxt(tmp_path / "fig1.csv", delimiter=",", skiprows=1)
    r = np.loadtxt(tmp_path / "fig2.csv", delimiter=",", skiprows=1)
    assert z.shape == r.shape
    assert np.all(r[:, 1:] >= 0.0)


def _fig2_rate_numpy(alpha, dt, dB, dz):
    # the NumPy-scalar loop fig2 ran before its Python-float one
    a, b, sig, sz = (FIG12_PARAMS[k] for k in ("a", "b", "sigma", "sigma_z"))
    r = np.empty(dz.size + 1)
    r[0] = FIG12_PARAMS["r0"]
    for k in range(dz.size):
        rp = max(r[k], 0.0)
        r[k + 1] = max(r[k] + a * (b - rp) * dt + sig * np.sqrt(rp) * dB[k]
                       + sz * rp ** (1.0 / alpha) * dz[k], 0.0)
    return r


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.2])
def test_fig2_rate_equals_numpy_scalar_loop(alpha):
    dt, n = 1e-3, 20_000
    rng = np.random.default_rng(3)
    dB = rng.normal(0.0, np.sqrt(dt), n)
    dz = sample_stable_increment(StableSpec(alpha=alpha), dt, rng, size=n)
    np.testing.assert_array_equal(_fig2_rate(alpha, dt, dB, dz),
                                  _fig2_rate_numpy(alpha, dt, dB, dz))


@pytest.mark.parametrize("argv", [
    ["bond"], ["stationary"], ["jump-survival"], ["jump-counter", "--p", "1"],
    ["fig3"], ["fig4"], ["fig5"]], ids=lambda argv: argv[0])
def test_zero_points_exits_two(tmp_path, monkeypatch, capsys, argv):
    _in_tmp(tmp_path, monkeypatch)
    assert run(argv + ["--points", "0"]) == 2
    assert "--points" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _nan_psi(q, params, spec):
    return float("nan")


def _nan_truncated_psi(params, y):
    return lambda q: float("nan")


# what each module's solve is made to fail on: a Psi that is NaN
# everywhere (psi itself for the Riccati flow, the function the jump laws
# bind from truncated_psi), since a NaN error norm rejects every step
# until the step falls below 10 ulp of t
_SOLVERS = {"affine": ("psi", _nan_psi),
            "jumps": ("truncated_psi", _nan_truncated_psi)}


@pytest.mark.parametrize("module, argv", [
    ("affine", ["bond", "--tmax", "5", "--points", "6"]),
    ("jumps", ["jump-survival", "--tmax", "5", "--points", "6"] + JUMP_FLAGS),
    ("jumps", ["jump-counter", "--p", "1", "--tmax", "5", "--points", "6"]
     + JUMP_FLAGS),
])
def test_failed_solve_exits_three(tmp_path, monkeypatch, capsys, module, argv):
    _in_tmp(tmp_path, monkeypatch)
    name, fake = _SOLVERS[module]
    monkeypatch.setattr(f"alphacir.{module}.{name}", fake)
    affine._flow.cache_clear()       # no flow of an earlier test is reused
    try:
        assert run(argv) == 3
    finally:
        affine._flow.cache_clear()   # nor is the failed one kept
    err = capsys.readouterr().err
    assert err.startswith("numerical diagnostic failure:")
    assert len(err.strip().splitlines()) == 1


def test_hawkes_overflow_guard_exits_three(tmp_path, monkeypatch, capsys):
    from alphacir import sim

    _in_tmp(tmp_path, monkeypatch)
    monkeypatch.setattr(sim, "_HAWKES_MAX_ROUNDS", 1)
    assert run(["hawkes-limit", "--n-paths", "10"]) == 3
    assert "overflow guard" in capsys.readouterr().err


def test_hawkes_path_overflow_guard_exits_three(tmp_path, monkeypatch, capsys):
    # the single path's thinning loop has the batch loop's bound: a path
    # short of n * horizon after that many proposals fails, and nothing is
    # written
    from alphacir import sim

    _in_tmp(tmp_path, monkeypatch)
    monkeypatch.setattr(sim, "_HAWKES_MAX_ROUNDS", 10)
    assert run(["simulate", "--scheme", "hawkes"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical diagnostic failure:")
    assert "overflow guard" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, ode", [
    (["bond"], "Riccati flow"), (["yield", "--kappa", "10"], "Riccati flow"),
    (["fig3"], "Riccati flow"), (["jump-survival"], "jump-law ODE"),
    (["jump-expectation"], "jump-law ODE"),
], ids=["bond", "yield", "fig3", "jump-survival", "jump-expectation"])
def test_flow_step_bound_exits_two(tmp_path, monkeypatch, capsys, argv, ode):
    # each of these solves takes more than 50 steps (of a Riccati flow) or
    # step attempts (of a jump-law ODE)
    _in_tmp(tmp_path, monkeypatch)
    monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", 50)
    affine._flow.cache_clear()       # no flow of an earlier test is reused
    try:
        assert run(argv) == 2
    finally:
        affine._flow.cache_clear()   # nor is the cut-short one kept
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: the {ode} needs more than 50")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# The run envelope of every subcommand at tiny sizes: exit code, the files
# written and the sidecar's (command, params, config, seed).  The values were
# recorded from the CLI before its commands shared one envelope in run(); the
# seed is None for the subcommands that draw nothing and take no --seed.
ENVELOPE = {
    "simulate-root": (
        ["simulate", "--scheme", "root", "--dt", "1e-2", "--horizon", "1",
         "--seed", "3"], 0, {"simulate.csv", "simulate.json"},
        ("simulate", DEFAULT_PARAMS, {"dt": 0.01, "horizon": 1.0,
                                      "scheme": "root", "y": None, "seed": 3},
         3)),
    "simulate-thinned": (
        ["simulate", "--scheme", "thinned", "--dt", "5e-3", "--horizon", "2"]
        + JUMP_FLAGS, 0, {"simulate.csv", "simulate.json"},
        ("simulate", JUMP_PARAMS, {"dt": 0.005, "horizon": 2.0,
                                   "scheme": "thinned", "y": 1.0, "seed": 0},
         0)),
    "simulate-lou": (
        ["simulate", "--scheme", "lou", "--seed", "2", "--dt", "1e-2",
         "--horizon", "20"] + JUMP_FLAGS,
        0, {"simulate.csv", "simulate.json", "simulate_events.csv"},
        ("simulate", JUMP_PARAMS, {"dt": 0.01, "horizon": 20.0,
                                   "scheme": "lou", "y": 1.0, "seed": 2}, 2)),
    "simulate-hawkes": (
        ["simulate", "--scheme", "hawkes", "--horizon", "0.5", "--n-agents",
         "5"], 0, {"simulate.csv", "simulate.json"},
        ("simulate", DEFAULT_PARAMS, {"scheme": "hawkes", "horizon": 0.5,
                                      "n_agents": 5, "seed": 0}, 0)),
    "bond": (
        ["bond", "--tmax", "5", "--points", "6"], 0, {"bond.csv", "bond.json"},
        ("bond", DEFAULT_PARAMS, {"tmax": 5.0, "points": 6}, None)),
    "yield": (
        ["yield", "--kappa", "1"], 0, {"yield.json", "yield_result.json"},
        ("yield", DEFAULT_PARAMS, {"kappa": 1.0, "rate": 0.05}, None)),
    "yield-rate-out": (
        ["yield", "--kappa", "2", "--rate", "0.03", "--out", "y2"], 0,
        {"y2.json", "y2_result.json"},
        ("yield", DEFAULT_PARAMS, {"kappa": 2.0, "rate": 0.03}, None)),
    "put-laplace": (
        ["put-laplace", "--theta", "1", "--strike", "0.04"], 0,
        {"put_laplace.json", "put_laplace_result.json"},
        ("put-laplace", DEFAULT_PARAMS, {"theta": 1.0, "kappa": 1.0,
                                         "K": 0.04}, None)),
    "put-laplace-void": (
        ["put-laplace", "--theta", "1", "--strike", "0.005"], 0,
        {"put_laplace.json", "put_laplace_result.json"},
        ("put-laplace", DEFAULT_PARAMS, {"theta": 1.0, "kappa": 1.0,
                                         "K": 0.005}, None)),
    "put-laplace-nan": (
        ["put-laplace", "--theta", "400", "--strike", "0.04"], 3, set(), None),
    "put-price": (
        ["put-price", "--maturity", "1", "--strike", "0.04", "--n-terms", "6"],
        0, {"put_price.json", "put_price_result.json"},
        ("put-price", DEFAULT_PARAMS, {"T": 1.0, "kappa": 1.0, "K": 0.04,
                                       "n_terms": 6}, None)),
    "stationary": (
        ["stationary", "--pmax", "5", "--points", "4"], 0,
        {"stationary.csv", "stationary.json"},
        ("stationary", DEFAULT_PARAMS, {"pmax": 5.0, "points": 4}, None)),
    "boundary": (
        ["boundary"], 0, {"boundary.json", "boundary_result.json"},
        ("boundary", DEFAULT_PARAMS, {}, None)),
    "measure-change": (
        ["measure-change", "--eta", "0.5", "--theta", "0.2"], 0,
        {"measure_change.json", "measure_change_result.json"},
        ("measure-change", DEFAULT_PARAMS, {"eta": 0.5, "theta": 0.2},
         None)),
    "jump-survival": (
        ["jump-survival", "--tmax", "5", "--points", "6"] + JUMP_FLAGS, 0,
        {"jump_survival.csv", "jump_survival.json"},
        ("jump-survival", JUMP_PARAMS, {"y_bar": 0.1, "tmax": 5.0,
                                        "points": 6}, None)),
    "jump-counter": (
        ["jump-counter", "--p", "1", "--tmax", "5", "--points", "6"]
        + JUMP_FLAGS, 0, {"jump_counter.csv", "jump_counter.json"},
        ("jump-counter", JUMP_PARAMS, {"p": 1.0, "y_bar": 0.1, "tmax": 5.0,
                                       "points": 6}, None)),
    "jump-expectation": (
        ["jump-expectation", "--y-bar", "0.1"] + JUMP_FLAGS, 0,
        {"jump_expectation.json", "jump_expectation_result.json"},
        ("jump-expectation", JUMP_PARAMS, {"y_bar": 0.1}, None)),
    "hawkes-limit": (
        ["hawkes-limit", "--n-paths", "20", "--horizon", "0.5", "--n-agents",
         "5", "--seed", "4"], 0,
        {"hawkes_limit.json", "hawkes_limit_result.json"},
        ("hawkes-limit", None, {"a": 0.1, "b": 0.3, "sigma_z": 0.3,
                                "horizon": 0.5, "n_agents": 5, "n_paths": 20},
         4)),
    "fig1": (
        ["fig1", "--horizon", "0.5", "--dt", "1e-2"], 0,
        {"fig1.csv", "fig1.json"},
        ("fig1", None, {**FIG12, "dt": 0.01, "horizon": 0.5}, 0)),
    "fig2": (
        ["fig2", "--horizon", "0.5", "--dt", "1e-2", "--seed", "7"], 0,
        {"fig2.csv", "fig2.json"},
        ("fig2", None, {**FIG12, "dt": 0.01, "horizon": 0.5}, 7)),
    "fig3": (
        ["fig3", "--tmax", "2", "--points", "3"], 0, {"fig3.csv", "fig3.json"},
        ("fig3", None, {**FIG3, "tmax": 2.0, "points": 3}, None)),
    "fig4": (
        ["fig4", "--tmax", "5", "--points", "6"], 0, {"fig4.csv", "fig4.json"},
        ("fig4", None, {**FIG45, "y_bar": 0.1, "tmax": 5.0, "points": 6},
         None)),
    "fig5": (
        ["fig5", "--points", "2", "--alpha-min", "1.5", "--alpha-max", "1.6"],
        0, {"fig5.csv", "fig5.json"},
        ("fig5", None, {**FIG45, "y_bar": 0.1, "alpha_min": 1.5,
                        "alpha_max": 1.6, "points": 2}, None)),
    "selfcheck": (["selfcheck", "--n-paths", "500"], 0, set(), None),
    "bond-invalid": (["bond", "--tmax", "-1"], 2, set(), None),
    "simulate-invalid": (["simulate", "--dt", "0"], 2, set(), None),
}


@pytest.mark.parametrize("argv, code, files, sidecar",
                         [pytest.param(*case, id=name)
                          for name, case in ENVELOPE.items()])
def test_run_envelope(tmp_path, monkeypatch, capsys, argv, code, files,
                      sidecar):
    _in_tmp(tmp_path, monkeypatch)
    with np.errstate(all="ignore"):     # put-laplace-nan overflows H
        assert run(argv) == code
    assert {p.name for p in tmp_path.iterdir()} == files
    out = capsys.readouterr().out
    if sidecar is None:
        return
    stem = next(f[:-5] for f in files
                if f.endswith(".json") and not f.endswith("_result.json"))
    doc = json.loads((tmp_path / f"{stem}.json").read_text())
    assert (doc["command"], doc["params"], doc["config"], doc["seed"]) \
        == sidecar
    assert list(doc["config"]) == list(sidecar[2])     # the key order too
    result = tmp_path / f"{stem}_result.json"
    if result.exists():
        assert json.loads(out) == json.loads(result.read_text())
    else:
        assert out == ""


@pytest.mark.parametrize("argv", [
    pytest.param(case[0], id=name) for name, case in ENVELOPE.items()
    if case[3] is not None and case[3][3] is None])
def test_seed_refused_where_nothing_is_drawn(tmp_path, monkeypatch, capsys,
                                             argv):
    # --seed is a flag of the five subcommands that draw; the others refuse
    # it as any flag they lack, and write nothing
    _in_tmp(tmp_path, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _outcome(argv, capsys, work):
    """Exit code, stdout, stderr and the bytes of each file in work after
    one run(argv) there, with the sidecar's wall_time_s set to null."""
    work.mkdir()
    os.chdir(work)
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    files = {p.name: re.sub(rb'"wall_time_s": [^\n]*', b'"wall_time_s": null',
                            p.read_bytes())
             for p in work.iterdir()}
    return code, out, err, files


# (first argv, its exit code, second argv, its exit code, a check of the
# second's sidecar) run in one process on the parser run() keeps
SHARED_PARSER = {
    "scheme": (["simulate", "--scheme", "hawkes"], 0,
               ["simulate", "--scheme", "root"], 0,
               lambda doc: list(doc["config"])
               == ["dt", "horizon", "scheme", "y", "seed"]),
    "seed": (["simulate", "--seed", "5"], 0, ["simulate"], 0,
             lambda doc: doc["seed"] == 0),
    "points": (["jump-survival", "--points", "0"], 2, ["jump-survival"], 0,
               lambda doc: doc["config"]["points"] == 301),
    "refused": (["simulate", "--seed", "1"], 0, ["bond", "--seed", "1"], 2,
                None),
}


@pytest.mark.parametrize("first, first_code, second, code, check",
                         [pytest.param(*case, id=name)
                          for name, case in SHARED_PARSER.items()])
def test_shared_parser_leaks_nothing(tmp_path, monkeypatch, capsys, first,
                                     first_code, second, code, check):
    # the second run after the first gives what it gives on a parser built
    # for it alone, byte for byte
    monkeypatch.chdir(tmp_path)
    assert _outcome(first, capsys, tmp_path / "first")[0] == first_code
    parser = cli._PARSER
    shared = _outcome(second, capsys, tmp_path / "shared")
    assert cli._PARSER is parser
    monkeypatch.setattr(cli, "_PARSER", None)
    assert _outcome(second, capsys, tmp_path / "fresh") == shared
    assert shared[0] == code
    if check is not None:
        stem = second[0].replace("-", "_")
        assert check(json.loads(shared[3][stem + ".json"]))


MODEL = ["--a", "--b", "--sigma", "--sigma-z", "--alpha", "--r0"]
# the flags of every subcommand
FLAGS = {
    "simulate": MODEL + ["--out", "--seed", "--scheme", "--dt", "--horizon",
                         "--y", "--n-agents"],
    "bond": MODEL + ["--out", "--tmax", "--points"],
    "yield": MODEL + ["--out", "--kappa", "--rate"],
    "put-laplace": MODEL + ["--out", "--theta", "--kappa", "--strike"],
    "put-price": MODEL + ["--out", "--maturity", "--kappa", "--strike",
                          "--n-terms"],
    "jump-survival": MODEL + ["--out", "--y-bar", "--tmax", "--points"],
    "jump-counter": MODEL + ["--out", "--p", "--y-bar", "--tmax", "--points"],
    "jump-expectation": MODEL + ["--out", "--y-bar"],
    "stationary": MODEL + ["--out", "--pmax", "--points"],
    "boundary": MODEL + ["--out"],
    "hawkes-limit": ["--out", "--seed", "--a", "--b", "--sigma-z",
                     "--horizon", "--n-agents", "--n-paths"],
    "measure-change": MODEL + ["--out", "--eta", "--theta"],
    "fig1": ["--out", "--seed", "--dt", "--horizon"],
    "fig2": ["--out", "--seed", "--dt", "--horizon"],
    "fig3": ["--out", "--tmax", "--points"],
    "fig4": ["--out", "--y-bar", "--tmax", "--points"],
    "fig5": ["--out", "--y-bar", "--alpha-min", "--alpha-max", "--points"],
    "selfcheck": ["--seed", "--n-paths"],
}


def _help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_subcommand(capsys):
    listed = re.search(r"\{([a-z0-9,-]+)\}", _help(capsys, [])).group(1)
    assert listed.split(",") == list(FLAGS)


@pytest.mark.parametrize("name", FLAGS)
def test_help_lists_flags(capsys, name):
    out = _help(capsys, [name])
    listed = re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", out, re.M)
    assert set(listed) == set(FLAGS[name]) | {"--help"}


def test_jump_survival_route_gap_exits_three(tmp_path, monkeypatch, capsys):
    # the second survival route pushed 1e-3 off the curve's own value
    from alphacir import cli
    via_rhat = cli.survival_tau_via_rhat
    monkeypatch.setattr(cli, "survival_tau_via_rhat",
                        lambda *args: via_rhat(*args) + 1e-3)
    _in_tmp(tmp_path, monkeypatch)
    assert run(["jump-survival", "--tmax", "5", "--points", "6"]
               + JUMP_FLAGS) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical diagnostic failure:")
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_selfcheck_failure_exits_three(tmp_path, monkeypatch, capsys):
    # a bond estimate 10 standard errors off fails the 3-SE concordance
    from alphacir import cli
    mc_bond = cli.mc_bond

    def biased(*args, **kwargs):
        est = mc_bond(*args, **kwargs)
        return replace(est, value=est.value + 10.0 * est.std_error)

    monkeypatch.setattr(cli, "mc_bond", biased)
    _in_tmp(tmp_path, monkeypatch)
    assert run(["selfcheck", "--n-paths", "500"]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("selfcheck FAILED: bond ")
    assert err.startswith("numerical diagnostic failure:")
