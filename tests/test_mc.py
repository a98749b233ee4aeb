import numpy as np
import pytest

from alphacir.affine import bond_price, joint_laplace
from alphacir.mc import (
    McEstimate,
    mc_bond,
    mc_counter,
    mc_expected_tau,
    mc_laplace,
    mc_lou_first_jump_cdf,
    mc_running_min_put,
    mc_survival,
)
from alphacir.jumps import (
    _mark_threshold,
    counter_laplace,
    expected_tau,
    lou_first_jump_cdf,
)
from alphacir.sim import first_passage_thinned


def test_estimate_within_helper():
    est = McEstimate(value=1.0, std_error=0.1, n_paths=100, estimator="x")
    assert est.within(1.25)
    assert not est.within(1.5)
    assert est.within(1.5, n_se=6.0)


def test_estimate_json():
    est = McEstimate(1.0, 0.1, 100, "x")
    assert est.to_json()["estimator"] == "x"


def test_mc_bond_concordant_at_modest_size(bond_params):
    p = bond_params(alpha=1.5)
    est = mc_bond(p, 1.0, n_paths=20_000, seed=1)
    assert est.within(bond_price(0.0, 1.0, p.r0, p), n_se=4.0)


def test_mc_laplace_concordant(bond_params):
    p = bond_params(alpha=1.2)
    est = mc_laplace(p, 1.0, 1.0, n_paths=20_000, seed=2)
    assert est.within(joint_laplace(p.r0, 1.0, 1.0, 0.0, p), n_se=4.0)


def test_mc_laplace_thinned_concordant(bond_params):
    p = bond_params(alpha=1.2)
    est = mc_laplace(p, 1.0, 1.0, n_paths=20_000, dt=1e-2, seed=8,
                     scheme="thinned", y=1.0)
    assert est.estimator == "mc_laplace[thinned]"
    assert est.within(joint_laplace(p.r0, 1.0, 1.0, 0.0, p), n_se=4.0)


def test_mc_counter_concordant(jump_params):
    p = jump_params(alpha=1.5)
    est = mc_counter(p, 1.0, 0.1, 2.0, n_paths=20_000, seed=3)
    assert est.within(counter_laplace(1.0, 0.1, 2.0, p), n_se=4.0)


def test_mc_survival_grid_alignment(jump_params):
    p = jump_params(alpha=1.5)
    ests = mc_survival(p, 0.1, [1.0, 2.0], n_paths=5000, seed=4)
    assert len(ests) == 2
    assert ests[0].value >= ests[1].value


def test_mc_lou_cdf_concordant(jump_params):
    p = jump_params(alpha=1.5)
    ests = mc_lou_first_jump_cdf(p, 0.1, [1.0], n_paths=20_000, seed=5)
    assert ests[0].within(lou_first_jump_cdf(0.1, 1.0, p), n_se=4.0)


@pytest.mark.parametrize("estimate", [
    lambda p, y_bar: mc_survival(p, y_bar, [1.0], n_paths=10),
    lambda p, y_bar: mc_counter(p, 1.0, y_bar, 1.0, n_paths=10),
    lambda p, y_bar: mc_expected_tau(p, y_bar, n_paths=10),
    lambda p, y_bar: mc_lou_first_jump_cdf(p, y_bar, [1.0], n_paths=10),
], ids=["survival", "counter", "expected_tau", "lou_cdf"])
@pytest.mark.parametrize("sigma_z, y_bar", [(0.0, 0.1), (0.1, float("nan"))],
                         ids=["no-jumps", "nan-threshold"])
def test_mc_jump_estimators_reject_bad_threshold(jump_params, estimate,
                                                  sigma_z, y_bar):
    with pytest.raises(ValueError):
        estimate(jump_params(alpha=1.5, sigma_z=sigma_z), y_bar)


@pytest.mark.parametrize("estimate", [
    lambda p, x: mc_laplace(p, x, 1.0, n_paths=10),
    lambda p, x: mc_counter(p, x, 0.1, 1.0, n_paths=10),
    lambda p, x: mc_running_min_put(p, 0.5, 1.0, x, n_paths=10),
], ids=["laplace", "counter", "running_min_put-K"])
@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_mc_estimators_reject_non_finite_argument(jump_params, estimate, x):
    with pytest.raises(ValueError):
        estimate(jump_params(alpha=1.5), x)


def test_running_min_put_two_forms_identical_paths(bond_params):
    # the yield payoff and the algebraically reduced payoff are the same
    # random variable, so on common paths they agree to rounding
    p = bond_params(alpha=1.5)
    y_form, r_form = mc_running_min_put(p, 0.5, 1.0, 0.039941,
                                        n_paths=2000, dt=1e-3, seed=6)
    assert y_form.value == pytest.approx(r_form.value, rel=1e-10, abs=0.0)
    assert y_form.std_error == pytest.approx(r_form.std_error, rel=1e-8,
                                             abs=0.0)


def test_mc_expected_tau_concordant(jump_params):
    p = jump_params(alpha=1.5)
    est = mc_expected_tau(p, 0.1, n_paths=400, seed=0)
    assert est.within(expected_tau(0.1, p).value, n_se=4.0)


def test_mc_expected_tau_scores_no_path_censored(jump_params):
    # the horizon doubles until every path has jumped, so the estimate is
    # the plain mean of one first-passage run long enough for all of them
    p, dt = jump_params(alpha=1.2), 0.05
    est = mc_expected_tau(p, 0.1, n_paths=400, dt=dt, seed=1)
    fp = first_passage_thinned(p, _mark_threshold(p, 0.1), dt, 6400.0, 400,
                               np.random.default_rng(1))
    assert fp.active.size == 0
    assert est.value == np.mean(fp.first)


def test_mc_expected_tau_warns_when_censored(jump_params):
    # E[tau] is about 46 at the jump fixture, so most paths have not jumped
    # by t = 1; each of them scores the horizon
    with pytest.warns(UserWarning, match=r"92\.0% of paths censored at "
                                         r"horizon 1\.0"):
        est = mc_expected_tau(jump_params(alpha=1.5), 0.1, n_paths=100,
                              horizon=1.0, max_horizon=1.0)
    assert 0.92 <= est.value <= 1.0


@pytest.mark.parametrize("horizons", [
    dict(horizon=0.0), dict(horizon=-1.0), dict(horizon=float("nan")),
    dict(max_horizon=0.0), dict(max_horizon=float("inf")),
], ids=["horizon-0", "horizon-neg", "horizon-nan", "max-0", "max-inf"])
def test_mc_expected_tau_rejects_bad_horizon(jump_params, horizons):
    # the final horizon is the first horizon * 2^k at or past max_horizon:
    # a zero horizon would double forever and an infinite cap has no grid
    with pytest.raises(ValueError, match="horizon"):
        mc_expected_tau(jump_params(alpha=1.5), 0.1, n_paths=10, **horizons)


def test_running_min_put_pinned(bond_params):
    # recorded with the root kernel reading its increments from streams
    # refilled _BLOCK variates at a time; 1e-12 leaves room for last-ulp
    # differences of libm and SIMD math elsewhere while any change of draws
    # shows.  The yield form's strike reads v and int v of the Riccati flow,
    # so a change of the flow's solver moves the values with the same draws
    p = bond_params(alpha=1.5)
    y_form, r_form = mc_running_min_put(p, 0.5, 1.0, 0.039941,
                                        n_paths=2000, dt=1e-3, seed=6)
    pinned = [(y_form.value, 0.006384084424567903),
              (y_form.std_error, 0.0001542605826018609),
              (r_form.value, 0.006384084424567903),
              (r_form.std_error, 0.00015426058260186088)]
    for got, want in pinned:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_running_min_put_void_strike(bond_params):
    p = bond_params(alpha=1.5)
    y_form, r_form = mc_running_min_put(p, 0.5, 1.0, 0.005,
                                        n_paths=2000, dt=1e-3, seed=7)
    assert y_form.value == 0.0 and r_form.value == 0.0


def test_mc_bond_rejects_tiny_batch(bond_params):
    with pytest.raises(ValueError):
        mc_bond(bond_params(), 1.0, n_paths=10)
