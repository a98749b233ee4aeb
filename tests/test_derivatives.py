import numpy as np
import pytest
from scipy.integrate import quad

from alphacir.affine import solve_v
from alphacir.derivatives import (
    PutSpec,
    bond_transform_M,
    effective_strike,
    gaver_stehfest,
    gaver_stehfest_weights,
    h_scale,
    hitting_time_laplace,
    put_laplace,
    put_price,
)
from alphacir.mechanism import root_psi_equals_one

KAPPA = 1.0
STRIKE = 0.039941  # makes the effective strike ~0.03 at the bond fixture
# criterion-9 fixture put (alpha = 1.5, T = 1, 14 Stehfest terms)
FIXTURE_PUT = 0.010466419185062768


def test_gaver_stehfest_weights_sum_to_zero():
    # exact cancellation up to the roundoff of the largest weight
    for n in (8, 14):
        w = [float(x) for x in gaver_stehfest_weights(n)]
        scale = max(abs(x) for x in w)
        assert abs(sum(w)) < 1e-12 * scale


def test_gaver_stehfest_weights_are_a_shared_tuple():
    w = gaver_stehfest_weights(14)
    assert isinstance(w, tuple) and len(w) == 14
    assert gaver_stehfest_weights(14) is w
    assert gaver_stehfest_weights(14, dps=60) is not w


def test_gaver_stehfest_recovers_exponential():
    c = 0.7
    for t in (0.5, 1.0, 3.0):
        val = gaver_stehfest(lambda s: 1.0 / (s + c), t)
        assert val == pytest.approx(np.exp(-c * t), abs=2e-5)


def test_gaver_stehfest_high_precision_mode():
    c = 0.7
    val = gaver_stehfest(lambda s: 1.0 / (s + c), 1.0, n_terms=26, dps=60,
                         high_precision=True)
    assert val == pytest.approx(np.exp(-0.7), abs=1e-9)


def test_effective_strike_matches_curve_algebra(bond_params):
    p = bond_params(alpha=1.5)
    k_bar, nominal = effective_strike(KAPPA, STRIKE, p)
    curve = solve_v(0.0, 1.0, KAPPA, p)
    v_k = curve(KAPPA)
    expect = (KAPPA * STRIKE - p.a * p.b * curve.integral(KAPPA)) / v_k
    assert k_bar == pytest.approx(expect, rel=1e-10)
    assert nominal == pytest.approx(v_k / KAPPA, rel=1e-10)


def test_hitting_ratio_is_one_above_start(bond_params):
    p = bond_params(alpha=1.5)
    assert hitting_time_laplace(p.r0, p.r0, 1.0, p) == 1.0
    assert hitting_time_laplace(p.r0, p.r0 + 0.01, 1.0, p) == 1.0


def test_hitting_ratio_decreases_with_deeper_barrier(bond_params):
    p = bond_params(alpha=1.5)
    vals = [hitting_time_laplace(p.r0, y, 1.0, p)
            for y in (0.04, 0.03, 0.02, 0.01)]
    assert np.all(np.diff(vals) < 0.0)
    assert all(0.0 < v < 1.0 for v in vals)


def test_hitting_ratio_invariant_to_split_point(bond_params):
    p = bond_params(alpha=1.5)
    q1 = root_psi_equals_one(p)
    ref = hitting_time_laplace(p.r0, 0.02, 1.0, p, eps=0.1 * q1)
    alt = hitting_time_laplace(p.r0, 0.02, 1.0, p, eps=0.02 * q1)
    assert alt == pytest.approx(ref, rel=1e-7)


def test_h_scale_decreasing_in_state(bond_params):
    p = bond_params(alpha=1.5)
    hs = [h_scale(1.0, x, None, p) for x in (0.01, 0.05, 0.2)]
    assert np.all(np.diff(hs) < 0.0)
    assert all(h > 0.0 for h in hs)


def test_bond_transform_matches_direct_time_integral(bond_params):
    # M(theta, y) = int_0^inf e^{-theta u} B_y(0, u) du with the bond started
    # at the barrier level y
    p = bond_params(alpha=1.5)
    theta, y = 1.0, 0.1
    curve = solve_v(0.0, 1.0, 60.0, p)

    def integrand(u):
        return np.exp(-theta * u - y * curve(u)
                      - p.a * p.b * curve.integral(u))

    direct, _ = quad(integrand, 0.0, 60.0, epsabs=1e-13, epsrel=1e-11,
                     limit=300)
    assert bond_transform_M(theta, y, p) == pytest.approx(direct, rel=1e-8)


def test_put_laplace_monotone_in_strike(bond_params):
    p = bond_params(alpha=1.5)
    vals = [put_laplace(1.0, KAPPA, k, p.r0, p)
            for k in (0.035, 0.039941, 0.045)]
    assert np.all(np.diff(vals) > 0.0)


def test_put_laplace_void_when_effective_strike_negative(bond_params):
    p = bond_params(alpha=1.5)
    val, diag = put_laplace(1.0, KAPPA, 0.005, p.r0, p, with_diagnostics=True)
    assert val == 0.0
    assert diag["void"]


def test_put_laplace_completely_monotone_start(bond_params):
    p = bond_params(alpha=1.5)
    vals = np.array([put_laplace(th, KAPPA, STRIKE, p.r0, p)
                     for th in (0.5, 1.0, 1.5, 2.0)])
    d1 = np.diff(vals)
    assert np.all(d1 < 0.0)
    assert np.all(np.diff(d1) > 0.0)  # convex


@pytest.mark.slow
def test_put_price_inversion_is_stable(bond_params):
    p = bond_params(alpha=1.5)
    price, diag = put_price(1.0, KAPPA, STRIKE, p.r0, p,
                            with_diagnostics=True)
    assert 0.0 < price < diag["kbar"]
    assert diag["stability_gap"] < 1e-4


def test_put_price_fixture_value(bond_params):
    # the 14-term Stehfest sum amplifies one-ulp noise in Psi to ~4e-9, so
    # this pins the rounding of the whole transform pipeline
    p = bond_params(alpha=1.5)
    price, diag = put_price(1.0, KAPPA, STRIKE, p.r0, p, with_diagnostics=True)
    assert price == pytest.approx(FIXTURE_PUT, rel=1e-9)
    assert diag["transform_evals"] == 14


def test_put_price_evaluates_each_abscissa_once(bond_params):
    # the n - 2 stability check reuses the n-term abscissae k <= n - 2
    p = bond_params(alpha=1.5)
    _, diag = put_price(0.5, KAPPA, 0.035, p.r0, p, n_terms=8,
                        with_diagnostics=True)
    assert diag["transform_evals"] == 8


@pytest.mark.parametrize("field", ["T", "kappa", "K", "theta", "r0"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_put_rejects_non_finite_input(bond_params, field, bad):
    p = bond_params(alpha=1.5)
    args = {"T": 1.0, "kappa": KAPPA, "K": STRIKE, "theta": 1.0, "r0": p.r0}
    args[field] = bad
    if field != "T":
        with pytest.raises(ValueError, match="finite"):
            put_laplace(args["theta"], args["kappa"], args["K"], args["r0"], p)
    if field != "theta":
        with pytest.raises(ValueError, match="finite"):
            put_price(args["T"], args["kappa"], args["K"], args["r0"], p)
        with pytest.raises(ValueError, match="finite"):
            PutSpec(kappa=args["kappa"], strike=args["K"],
                    maturity=args["T"], r0=args["r0"])
