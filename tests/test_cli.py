import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from alphacir.cli import run, write_sidecar

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


def test_sidecar_schema(tmp_path, bond_params):
    out = tmp_path / "run.json"
    write_sidecar(out, "bond", bond_params(), {"tmax": 10.0}, 7, 0.5, "0.1.0")
    doc = json.loads(out.read_text())
    assert set(doc) == {"command", "params", "config", "seed", "version",
                        "wall_time_s"}
    assert doc["params"]["alpha"] == 1.5


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
])
def test_non_finite_input_exits_two(tmp_path, monkeypatch, argv):
    _in_tmp(tmp_path, monkeypatch)
    assert run(argv) == 2
    for path in tmp_path.iterdir():
        assert "NaN" not in path.read_text() and "Infinity" not in path.read_text()


def test_put_price_result_reports_tail_grids(tmp_path, monkeypatch):
    # the criterion-9 fixture put at the default model flags
    _in_tmp(tmp_path, monkeypatch)
    assert run(["put-price", "--strike", "0.039941", "--maturity", "1"]) == 0
    doc = json.loads((tmp_path / "put_price_result.json").read_text())
    assert doc["price"] == 0.010466419185062768
    assert doc["diagnostics"]["h_tail_grids"] == 65
    assert doc["diagnostics"]["transform_evals"] == 14


def test_put_laplace_void_strike(tmp_path, monkeypatch):
    # the effective strike is negative, so the transform is zero and the
    # diagnostics hold no node data
    _in_tmp(tmp_path, monkeypatch)
    assert run(["put-laplace", "--theta", "1", "--strike", "0.005"]) == 0
    doc = json.loads((tmp_path / "put_laplace_result.json").read_text())
    assert doc["laplace_value"] == 0.0
    assert doc["diagnostics"]["void"] is True


@pytest.mark.parametrize("argv, theta", [
    (["put-laplace", "--theta", "400", "--strike", "0.04"], "400"),
    (["put-price", "--maturity", "0.02", "--strike", "0.04"], "138.629"),
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


def _failed_solve(*args, **kwargs):
    return SimpleNamespace(success=False,
                           message="Required step size is less than spacing "
                                   "between numbers.")


@pytest.mark.parametrize("module, argv", [
    ("affine", ["bond", "--tmax", "5", "--points", "6"]),
    ("jumps", ["jump-survival", "--tmax", "5", "--points", "6"] + JUMP_FLAGS),
    ("jumps", ["jump-counter", "--p", "1", "--tmax", "5", "--points", "6"]
     + JUMP_FLAGS),
])
def test_failed_solve_exits_three(tmp_path, monkeypatch, capsys, module, argv):
    _in_tmp(tmp_path, monkeypatch)
    monkeypatch.setattr(f"alphacir.{module}.solve_ivp", _failed_solve)
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical diagnostic failure:")
    assert len(err.strip().splitlines()) == 1


def test_hawkes_overflow_guard_exits_three(tmp_path, monkeypatch, capsys):
    from alphacir import cli, sim

    def guarded(*args, **kwargs):
        return sim.simulate_hawkes_batch(*args, max_rounds=1, **kwargs)

    _in_tmp(tmp_path, monkeypatch)
    monkeypatch.setattr(cli, "simulate_hawkes_batch", guarded)
    assert run(["hawkes-limit", "--n-paths", "10"]) == 3
    assert "overflow guard" in capsys.readouterr().err


# The run envelope of every subcommand at tiny sizes: exit code, the files
# written and the sidecar's (command, params, config, seed).  The values were
# recorded from the CLI before its commands shared one envelope in run().
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
        ("bond", DEFAULT_PARAMS, {"tmax": 5.0, "points": 6}, 0)),
    "yield": (
        ["yield", "--kappa", "1"], 0, {"yield.json", "yield_result.json"},
        ("yield", DEFAULT_PARAMS, {"kappa": 1.0, "rate": 0.05}, 0)),
    "yield-rate-out": (
        ["yield", "--kappa", "2", "--rate", "0.03", "--out", "y2"], 0,
        {"y2.json", "y2_result.json"},
        ("yield", DEFAULT_PARAMS, {"kappa": 2.0, "rate": 0.03}, 0)),
    "put-laplace": (
        ["put-laplace", "--theta", "1", "--strike", "0.04"], 0,
        {"put_laplace.json", "put_laplace_result.json"},
        ("put-laplace", DEFAULT_PARAMS, {"theta": 1.0, "kappa": 1.0,
                                         "K": 0.04}, 0)),
    "put-laplace-void": (
        ["put-laplace", "--theta", "1", "--strike", "0.005"], 0,
        {"put_laplace.json", "put_laplace_result.json"},
        ("put-laplace", DEFAULT_PARAMS, {"theta": 1.0, "kappa": 1.0,
                                         "K": 0.005}, 0)),
    "put-laplace-nan": (
        ["put-laplace", "--theta", "400", "--strike", "0.04"], 3, set(), None),
    "put-price": (
        ["put-price", "--maturity", "1", "--strike", "0.04", "--n-terms", "6"],
        0, {"put_price.json", "put_price_result.json"},
        ("put-price", DEFAULT_PARAMS, {"T": 1.0, "kappa": 1.0, "K": 0.04,
                                       "n_terms": 6}, 0)),
    "stationary": (
        ["stationary", "--pmax", "5", "--points", "4"], 0,
        {"stationary.csv", "stationary.json"},
        ("stationary", DEFAULT_PARAMS, {"pmax": 5.0, "points": 4}, 0)),
    "boundary": (
        ["boundary"], 0, {"boundary.json", "boundary_result.json"},
        ("boundary", DEFAULT_PARAMS, {}, 0)),
    "measure-change": (
        ["measure-change", "--eta", "0.5", "--theta", "0.2"], 0,
        {"measure_change.json", "measure_change_result.json"},
        ("measure-change", DEFAULT_PARAMS, {"eta": 0.5, "theta": 0.2}, 0)),
    "jump-survival": (
        ["jump-survival", "--tmax", "5", "--points", "6"] + JUMP_FLAGS, 0,
        {"jump_survival.csv", "jump_survival.json"},
        ("jump-survival", JUMP_PARAMS, {"y_bar": 0.1, "tmax": 5.0,
                                        "points": 6}, 0)),
    "jump-counter": (
        ["jump-counter", "--p", "1", "--tmax", "5", "--points", "6"]
        + JUMP_FLAGS, 0, {"jump_counter.csv", "jump_counter.json"},
        ("jump-counter", JUMP_PARAMS, {"p": 1.0, "y_bar": 0.1, "tmax": 5.0,
                                       "points": 6}, 0)),
    "jump-expectation": (
        ["jump-expectation", "--y-bar", "0.1"] + JUMP_FLAGS, 0,
        {"jump_expectation.json", "jump_expectation_result.json"},
        ("jump-expectation", JUMP_PARAMS, {"y_bar": 0.1}, 0)),
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
        ("fig3", None, {**FIG3, "tmax": 2.0, "points": 3}, 0)),
    "fig4": (
        ["fig4", "--tmax", "5", "--points", "6"], 0, {"fig4.csv", "fig4.json"},
        ("fig4", None, {**FIG45, "y_bar": 0.1, "tmax": 5.0, "points": 6}, 0)),
    "fig5": (
        ["fig5", "--points", "2", "--alpha-min", "1.5", "--alpha-max", "1.6"],
        0, {"fig5.csv", "fig5.json"},
        ("fig5", None, {**FIG45, "y_bar": 0.1, "alpha_min": 1.5,
                        "alpha_max": 1.6, "points": 2}, 0)),
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
    result = tmp_path / f"{stem}_result.json"
    if result.exists():
        assert json.loads(out) == json.loads(result.read_text())
    else:
        assert out == ""


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
