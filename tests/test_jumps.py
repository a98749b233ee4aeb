import numpy as np
import pytest
from scipy.integrate import trapezoid

from alphacir import jumps
from alphacir.jumps import (
    counter_laplace,
    expected_tau,
    lou_first_jump_cdf,
    survival_curve,
    survival_tau,
    survival_tau_via_rhat,
    tail_asymptotics,
)
from alphacir.stable import big_jump_mass

Y_BAR = 0.1


def test_survival_ode_evaluation_count(jump_params):
    # the RK45 path of a jump-law solve: any change to its right side (the
    # truncated psi) moves the number of evaluations
    p = jump_params(alpha=1.5)
    y = Y_BAR / p.sigma_z
    nu = big_jump_mass(p.alpha, y)
    assert jumps._solve_l(p, y, lambda l: nu, 30.0).nfev == 752


def test_counter_laplace_degenerate_points(jump_params):
    p = jump_params(alpha=1.5)
    assert counter_laplace(0.0, Y_BAR, 5.0, p) == 1.0
    assert counter_laplace(1.0, Y_BAR, 0.0, p) == 1.0


def test_counter_laplace_decreasing_in_p(jump_params):
    p = jump_params(alpha=1.5)
    vals = [counter_laplace(q, Y_BAR, 5.0, p) for q in (0.0, 0.5, 1.0, 3.0)]
    assert np.all(np.diff(vals) < 0.0)


def test_counter_laplace_large_p_approaches_survival(jump_params):
    # e^{-p N_t} -> 1{N_t = 0} = 1{tau > t} as p grows
    p = jump_params(alpha=1.5)
    surv = survival_tau(Y_BAR, 5.0, p)
    assert counter_laplace(40.0, Y_BAR, 5.0, p) == pytest.approx(surv,
                                                                 rel=1e-4)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_counter_laplace_array_matches_scalar_solves(jump_params, alpha):
    # one solve to the largest time read at every time against one solve
    # per time; over these cases the worst gap is 2.8e-12 (alpha 1.2, p 2)
    p = jump_params(alpha=alpha)
    ts = np.array([0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0])
    for q in (0.5, 2.0):
        vals = counter_laplace(q, Y_BAR, ts, p)
        assert vals.shape == ts.shape and vals[0] == 1.0
        for t, v in zip(ts, vals):
            assert v == pytest.approx(counter_laplace(q, Y_BAR, t, p), rel=1e-8)
    np.testing.assert_array_equal(counter_laplace(0.0, Y_BAR, ts, p), 1.0)


def test_survival_two_route_identity(jump_params):
    for alpha in (1.2, 1.5, 1.9):
        p = jump_params(alpha=alpha)
        for t in (1.0, 5.0, 10.0):
            s1 = survival_tau(Y_BAR, t, p)
            s2 = survival_tau_via_rhat(Y_BAR, t, p)
            assert abs(s1 - s2) < 1e-6


def test_survival_curve_monotone_and_bounded(jump_params):
    p = jump_params(alpha=1.5)
    grid = np.linspace(0.0, 30.0, 61)
    curve = survival_curve(Y_BAR, grid, p)
    s = curve.derived
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(s) <= 1e-12)
    assert np.all((s >= 0.0) & (s <= 1.0))


# accuracy fingerprint at JUMP_SET, alpha = 1.5: the values the benchmark
# reference holds, pinned here so the unit suite guards them too
def test_expected_tau_fingerprint(jump_params):
    est = expected_tau(Y_BAR, jump_params(alpha=1.5))
    assert est.value == pytest.approx(46.48148388822062, rel=1e-9)


# route 1 solves its ODE once per call; the pinned values, at points whose
# quadrature horizons are 2048, 4096 and 8192, are those of the earlier
# horizon-doubling route 1
@pytest.mark.parametrize("alpha, y_bar, value", [
    (1.25, 0.08, 41.89793620761006),
    (1.6, 0.12, 65.29855315121148),
    (1.1, 0.12, 136.22490688878798),
])
def test_expected_tau_one_solve(jump_params, monkeypatch, alpha, y_bar, value):
    from alphacir import jumps

    solve_l, calls = jumps._solve_l, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_l(*args, **kwargs)

    monkeypatch.setattr(jumps, "_solve_l", counted)
    est = expected_tau(y_bar, jump_params(alpha=alpha))
    assert len(calls) == 1
    assert est.value == pytest.approx(value, rel=1e-10)


def test_expected_tau_rejects_zero_immigration(jump_params, monkeypatch):
    # with b = 0 the survival stays above exp(-l* r0), so E[tau] is infinite
    from alphacir import jumps

    def no_solve(*args, **kwargs):
        raise AssertionError("expected_tau solved before rejecting b = 0")

    monkeypatch.setattr(jumps, "_solve_l", no_solve)
    with pytest.raises(ValueError, match="a \\* b > 0"):
        expected_tau(Y_BAR, jump_params(alpha=1.5, b=0.0))


def test_survival_fingerprint(jump_params):
    assert survival_tau(Y_BAR, 5.0, jump_params(alpha=1.5)) == pytest.approx(
        0.7615298761120577, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jump_laws_reject_non_finite_input(jump_params, bad):
    p = jump_params(alpha=1.5)
    calls = [
        lambda: survival_curve(Y_BAR, [0.0, bad], p),
        lambda: survival_curve(bad, [1.0], p),
        lambda: survival_tau(Y_BAR, bad, p),
        lambda: survival_tau(bad, 0.0, p),
        lambda: survival_tau_via_rhat(Y_BAR, bad, p),
        lambda: counter_laplace(bad, Y_BAR, 0.0, p),
        lambda: counter_laplace(1.0, Y_BAR, bad, p),
        lambda: counter_laplace(1.0, bad, 1.0, p),
        lambda: expected_tau(bad, p),
        lambda: lou_first_jump_cdf(Y_BAR, bad, p),
        lambda: tail_asymptotics(bad, Y_BAR, p),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_expected_tau_routes_agree(jump_params):
    p = jump_params(alpha=1.5)
    est = expected_tau(Y_BAR, p)
    assert est.survival_route == pytest.approx(est.density_route, rel=1e-4)
    assert est.value > 0.0


def test_expected_tau_consistent_with_survival_integral(jump_params):
    # E[tau] = int_0^inf P(tau > t) dt; probe the partial integral at t=30
    p = jump_params(alpha=1.2)
    est = expected_tau(Y_BAR, p)
    grid = np.linspace(0.0, 30.0, 301)
    partial = trapezoid(survival_curve(Y_BAR, grid, p).derived, grid)
    assert partial < est.value


def test_lou_first_jump_cdf_formula(jump_params):
    p = jump_params(alpha=1.5)
    nu = big_jump_mass(p.alpha, Y_BAR / p.sigma_z)
    for t in (0.5, 1.0, 2.0):
        assert lou_first_jump_cdf(Y_BAR, t, p) == pytest.approx(
            1.0 - np.exp(-nu * p.r0 * t), rel=1e-12)


def test_tail_asymptotics_fields(jump_params):
    p = jump_params(alpha=1.5)
    ta = tail_asymptotics(5.0, Y_BAR, p)
    nu = big_jump_mass(p.alpha, Y_BAR / p.sigma_z)
    assert ta.m_lambda == pytest.approx(nu * p.r0 * 5.0, rel=1e-12)
    # the state-fed jump counter sits below the frozen-rate one here because
    # r0 > b, so the rate drifts down from its start
    assert ta.m_r < ta.m_lambda
    assert ta.r_bound >= 0.0


def test_jump_law_requires_jump_component():
    from alphacir.mechanism import ModelParams
    p = ModelParams(a=0.1, b=0.1, sigma=0.1, sigma_z=0.0, alpha=2.0, r0=0.2)
    with pytest.raises(ValueError):
        survival_tau(Y_BAR, 1.0, p)
