import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import trapezoid

from alphacir import affine, jumps
from alphacir.jumps import (
    counter_laplace,
    expected_tau,
    lou_first_jump_cdf,
    survival_curve,
    survival_tau,
    survival_tau_via_rhat,
    tail_asymptotics,
)
from alphacir.mechanism import ModelParams
from alphacir.stable import big_jump_laplace_tail, big_jump_mass
from oracles import solve_l_ivp, solve_l_loop

Y_BAR = 0.1


def test_survival_ode_evaluation_count(jump_params, monkeypatch):
    # the RK45 path of a jump-law solve: any change to its right side (the
    # truncated psi) moves the number of evaluations.  Its 752 calls are 2
    # to start and 6 for each of 125 step attempts, so the step bound
    # passes it at 125 and refuses it at 124, as it refuses a survival curve
    p = jump_params(alpha=1.5)
    y = Y_BAR / p.sigma_z
    nu = big_jump_mass(p.alpha, y)
    assert jumps._solve_l(p, y, lambda l: nu, 30.0).nfev == 752
    monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", 125)
    assert jumps._solve_l(p, y, lambda l: nu, 30.0).nfev == 752
    monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", 124)
    match = "jump-law ODE needs more than 124 steps"
    with pytest.raises(ValueError, match=match):
        jumps._solve_l(p, y, lambda l: nu, 30.0)
    with pytest.raises(ValueError, match=match):
        survival_curve(Y_BAR, [0.0, 30.0], p)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("law", ["survival", "counter"])
def test_solve_l_takes_solve_ivp_steps(jump_params, alpha, law):
    # the float stepper against one solve_ivp RK45 run of the same ODE: the
    # same steps and evaluations, step ends that drift only by rounding in
    # the error estimate, and the same l and int l to t = 30
    p = jump_params(alpha=alpha)
    y = Y_BAR / p.sigma_z
    nu = big_jump_mass(alpha, y)
    if law == "survival":
        def source(l):
            return nu
    else:                 # the counter Laplace source at p = 1
        def source(l):
            return nu - math.exp(-1.0) * big_jump_laplace_tail(
                l * p.sigma_z, y, alpha)
    sol, ref = jumps._solve_l(p, y, source, 30.0), solve_l_ivp(p, y, source, 30.0)
    assert sol.nfev == ref.nfev and len(sol.t) == len(ref.t)
    np.testing.assert_allclose(sol.t, ref.t, rtol=1e-5, atol=0.0)
    ts = np.concatenate((np.linspace(0.01, 30.0, 3000), ref.t[1:]))
    np.testing.assert_allclose(sol.sol(ts), ref.sol(ts), rtol=1e-13, atol=0.0)


def _jump_sources(p, y):
    """The survival source nu(y) and the counter Laplace source at p = 1."""
    nu = big_jump_mass(p.alpha, y)

    def counter(l):
        return nu - math.exp(-1.0) * big_jump_laplace_tail(
            l * p.sigma_z, y, p.alpha)
    return {"survival": lambda l: nu, "counter": counter}


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("law", ["survival", "counter"])
def test_solve_l_equals_loop_form(jump_params, alpha, law):
    # the stepper with its stage, solution and error sums written out against
    # the same stepper summing them in loops: the same floating-point
    # operations in the same order, so the same steps and stages bit for bit
    p = jump_params(alpha=alpha)
    y = Y_BAR / p.sigma_z
    source = _jump_sources(p, y)[law]
    sol, ref = jumps._solve_l(p, y, source, 30.0), solve_l_loop(p, y, source, 30.0)
    assert sol.nfev == ref.nfev and np.array_equal(sol.t, ref.t)
    ts = np.concatenate((np.linspace(0.0, 30.0, 3001), ref.t))
    assert np.array_equal(sol.sol(ts), ref.sol(ts))


def test_solve_l_equals_loop_form_with_cut(jump_params):
    # E[tau]'s solve at the fixture, stopped where its survival falls
    # through 1e-12: the same stop time from the same dense output
    p = jump_params(alpha=1.5)
    y = Y_BAR / p.sigma_z
    ab = p.a * p.b

    def cut(l, big_l):
        return -l * p.r0 - ab * big_l - math.log(1e-12)
    source = _jump_sources(p, y)["survival"]
    sol = jumps._solve_l(p, y, source, 2.0 ** 24, cut=cut)
    ref = solve_l_loop(p, y, source, 2.0 ** 24, cut=cut)
    assert sol.nfev == ref.nfev and np.array_equal(sol.t, ref.t)
    ts = np.concatenate((np.linspace(0.0, sol.t[-1], 4001), ref.t))
    assert np.array_equal(sol.sol(ts), ref.sol(ts))


# the changed solver under random models: a jump law must come back finite,
# in [0, 1] and nonincreasing in t, or be refused with ValueError (bad input,
# too many steps) or RuntimeError (a failed solve).  At p 2.4e-32 the
# counter's l is far below the solve's atol, and the law came out above 1
# (first example) and rising in t (second)
unit = st.floats(min_value=0.01, max_value=1.0)


@settings(max_examples=300, deadline=None)
@example(alpha=1.5, a=0.5, b=1.0, sigma=1.0, sigma_z=0.9375, r0=0.0,
         y_bar=0.5, p=2.4482764731786953e-32, t_max=5.0)
@example(alpha=1.5, a=0.5, b=1.0, sigma=1.0, sigma_z=0.9375, r0=1.0,
         y_bar=0.5, p=2.4482764731786953e-32, t_max=2.0)
@given(alpha=st.floats(min_value=1.05, max_value=1.95), a=unit, b=unit,
       sigma=unit, sigma_z=unit, r0=st.floats(min_value=0.0, max_value=1.0),
       y_bar=st.floats(min_value=0.02, max_value=0.5),
       p=st.floats(min_value=0.0, max_value=5.0),
       t_max=st.floats(min_value=0.0, max_value=30.0))
def test_jump_laws_fuzz(alpha, a, b, sigma, sigma_z, r0, y_bar, p, t_max):
    params = ModelParams(a=a, b=b, sigma=sigma, sigma_z=sigma_z, alpha=alpha,
                         r0=r0)
    ts = np.linspace(0.0, t_max, 11)
    for law in (lambda: survival_curve(y_bar, ts, params),
                lambda: counter_laplace(p, y_bar, ts, params)):
        try:
            vals = law()
        except (ValueError, RuntimeError):
            continue
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 0.0)


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
    s = survival_curve(Y_BAR, grid, p)
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
    partial = trapezoid(survival_curve(Y_BAR, grid, p), grid)
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
