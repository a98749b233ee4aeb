import json

import numpy as np
import pytest

from alphacir.cli import run

JUMP_FLAGS = ["--a", "0.1", "--b", "0.1", "--sigma", "0.1", "--sigma-z",
              "0.1", "--r0", "0.2"]


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
    pytest.param(["jump-survival", "--tmax", "nan"], id="jump-survival-tmax"),
    pytest.param(["jump-expectation", "--sigma-z", "nan"],
                 id="jump-expectation-sigma-z"),
    pytest.param(["jump-counter", "--p", "nan"], id="jump-counter-p"),
])
def test_non_finite_input_exits_two(tmp_path, monkeypatch, argv):
    _in_tmp(tmp_path, monkeypatch)
    assert run(argv) == 2
    for path in tmp_path.iterdir():
        assert "NaN" not in path.read_text() and "Infinity" not in path.read_text()


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
