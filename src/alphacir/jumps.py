"""Laws of large jumps: the counter of jumps above a threshold, the first
large-jump time tau, its expectation, and tail comparisons with the locally
equivalent Levy-OU benchmark.

Thresholds are quoted in rate space (ybar); the corresponding jump-mark
threshold is y = ybar / sigma_z.  All exponents solve ODEs of the form

    l'(t) = (big-jump source term) - Psi_trunc(l(t)),   l(0) = 0,

where Psi_trunc is the truncated branching mechanism at level y, in
closed form.  The ODE right side calls the float function that
mechanism.truncated_psi binds once per solve, which equals mechanism.psi
bit for bit without its per-call dispatch.  The source is
nu(y) = C_alpha y^(-alpha) for the survival law, and
int_y^inf (1 - exp(-p - l sigma_z z)) mu_alpha(dz) for the counter
Laplace.

_solve_l integrates [l, int l] on the package's one ODE driver,
affine._dormand_prince, a Dormand-Prince 5(4) stepper on Python floats
with the tableau and step rules of scipy's RK45, so it takes the steps
scipy's RK45 driver takes, up to rounding in the error estimate, without
that driver's per-step array work; a test checks it against such a run.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.optimize import brentq

from . import affine
from .affine import _Steps, _dormand_prince
from .mechanism import (JumpSpec, ModelParams, fixed_point_truncated, psi,
                        truncated_drift, truncated_level, truncated_psi)
from .stable import (_check_alpha, _check_input, big_jump_laplace_tail,
                     big_jump_mass)


_ROUTE_TOL = 1e-3      # largest relative gap of the two E[tau] routes
_EPS = np.finfo(float).eps


def _mark_threshold(params: ModelParams, y_bar: float) -> float:
    """The jump-mark threshold y = ybar / sigma_z, after checking that the
    model has jumps and that ybar is finite and positive."""
    _check_alpha(params.alpha, allow_two=False)
    if params.sigma_z <= 0.0:
        raise ValueError("jump analytics need sigma_z > 0")
    _check_input("y_bar", y_bar, "positive")
    return y_bar / params.sigma_z


def _solve_l(params: ModelParams, y: float, source, t_max: float, cut=None):
    """Integrate [l, int l] with l' = source(l) - Psi_trunc(l), l(0) = 0,
    from 0 to t_max on affine._dormand_prince, and return its
    affine._Steps.  The right side evaluates Psi_trunc by the function
    truncated_psi binds here, not by psi.  A failed step raises
    RuntimeError, and a solve past affine._MAX_FLOW_STEPS step attempts
    ValueError.  With cut(l, int l) given, the solve stops after the first
    step where cut falls from >= 0 to <= 0, at the crossing that brentq
    finds on that step's dense output (xtol 4 eps, as scipy's RK45 driver
    locates a terminal event)."""
    psi_y = truncated_psi(params, y)

    def rhs(l):
        l = 0.0 if l < 0.0 else l
        return source(l) - psi_y(l)

    steps, g = [], None if cut is None else cut(0.0, 0.0)
    for step, state, nfev in _dormand_prince(rhs, 0.0, t_max, "jump-law ODE"):
        steps.append(step)
        if cut is not None:
            g_old, g = g, cut(*state)
            if g_old >= 0.0 >= g:
                sol = _Steps(steps, nfev)
                sol.t[-1] = brentq(lambda s: cut(*sol.sol(s)), sol.t[-2],
                                   step[0], xtol=4 * _EPS, rtol=4 * _EPS)
                return sol
    return _Steps(steps, nfev)


def _affine_exponent(l, big_l, params: ModelParams):
    """exp(-l r0 - a b L) from the dense output [l, L = int_0^t l] at t."""
    return np.exp(-l * params.r0 - params.a * params.b * big_l)


def _jump_law(params: ModelParams, y: float, source, t):
    """exp(-l(t) r0 - a b int_0^t l) for l' = source(l) - Psi_trunc(l),
    l(0) = 0, at the times t: 1 at t = 0, and elsewhere read from one
    solve to the largest time.  A scalar t gives a float, an array t an
    array; source None is the law that is 1 at every time.

    The law is a probability or a Laplace transform of a count, so it is
    returned capped at 1 and as its running minimum in increasing t.  This
    moves only noise: the solve holds l and int l to atol 1e-12, and where
    l itself is about that small (the counter law at p below about 1e-11)
    the law came out up to 3e-11 above 1 and rising in t by up to 4e-12."""
    _check_input("t", t, "nonnegative")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    scalar = np.ndim(t) == 0
    vals = np.ones_like(ts)
    live = ts > 0.0
    if source is not None and np.any(live):
        sol = _solve_l(params, y, source, float(ts.max()))
        vals[live] = _affine_exponent(
            *sol.sol(float(t) if scalar else ts[live]), params)
        order = np.argsort(ts, kind="stable")
        vals[order] = np.minimum.accumulate(np.minimum(vals[order], 1.0))
    return float(vals[0]) if scalar else vals


def counter_laplace(p: float, y_bar: float, t, params: ModelParams):
    """E[exp(-p * J_t)] for the counter J of rate jumps larger than ybar;
    the source of its exponent ODE is nu(y) - e^(-p) int_y^inf
    exp(-l sigma_z z) mu_alpha(dz), and at p = 0 the law is exactly 1.
    t may be an array of times.  The law comes back capped at 1 and
    nonincreasing in t, but l, which is O(p), is held only to the absolute
    atol 1e-12: below p of about 1e-11 the gap 1 - E[exp(-p J_t)] is solver
    noise of up to 3e-11, with no relative accuracy."""
    y = _mark_threshold(params, y_bar)
    _check_input("p", p, "nonnegative")
    nu, e_p = big_jump_mass(params.alpha, y), math.exp(-p)

    def source(l):
        return nu - e_p * big_jump_laplace_tail(l * params.sigma_z, y,
                                                params.alpha)
    return _jump_law(params, y, source if p > 0.0 else None, t)


def survival_curve(y_bar: float, t_grid, params: ModelParams):
    """P(tau_ybar > t) at the times t_grid, from the limiting (p -> inf)
    ODE l' = nu(y) - Psi_trunc(l)."""
    y = _mark_threshold(params, y_bar)
    nu = big_jump_mass(params.alpha, y)
    return _jump_law(params, y, lambda l: nu, t_grid)


def survival_tau(y_bar: float, t: float, params: ModelParams) -> float:
    """P(tau_ybar > t): no rate jump larger than ybar up to t."""
    return float(survival_curve(y_bar, [t], params)[0])


def survival_tau_via_rhat(y_bar: float, t: float, params: ModelParams) -> float:
    """Alternative route: Laplace functional of the integrated auxiliary
    process (truncated mechanism, same immigration) at rate nu(y):
    P(tau > t) = E[exp(-nu(y) int_0^t rhat_s ds)]."""
    y = _mark_threshold(params, y_bar)
    _check_input("t", t, "nonnegative")
    nu = big_jump_mass(params.alpha, y)
    return affine.joint_laplace(params.r0, t, 0.0, nu, params,
                                JumpSpec.truncated(y))


class ExpectedTau(NamedTuple):
    value: float              # primary route (time integral of the survival)
    survival_route: float
    density_route: float      # u-integral against 1/F with endpoint substitution


class RouteDisagreement(RuntimeError):
    """The two analytic routes to E[tau] differ beyond tolerance; a loud
    signal of a convention or quadrature error."""


def expected_tau(y_bar: float, params: ModelParams) -> ExpectedTau:
    """E[tau_ybar] by two independent routes; the survival-integral route is
    the returned value, and routes further apart than _ROUTE_TOL relative
    raise RouteDisagreement.  Needs a b > 0: else S(t) = P(tau > t) tends to
    exp(-l* r0) > 0 and E[tau] is infinite.

    Route 1 is Simpson's rule for S on linspace(0, t_max, 4001) from one ODE
    solve, which a cut stops at the time t_e where log S =
    -l r0 - a b int l falls through log 1e-12 (or which ends at 2**24); t_max
    is the least power of two >= max(t_e, 1).  Past t_e, where l has settled
    at l*, S is the closed-form tail S(t_e) exp(-a b l* (t - t_e))."""
    y = _mark_threshold(params, y_bar)
    ab = params.a * params.b
    if ab <= 0.0:
        raise ValueError("expected_tau needs a * b > 0: E[tau] is infinite")
    nu = big_jump_mass(params.alpha, y)
    l_star = fixed_point_truncated(params, y)

    # route 1: one solve, stopped where the survival falls through 1e-12
    def survival_cut(l, big_l):
        return -l * params.r0 - ab * big_l - math.log(1e-12)
    sol = _solve_l(params, y, lambda l: nu, 2.0 ** 24, cut=survival_cut)
    t_e = float(sol.t[-1])
    t_max = 2.0 ** max(0, math.ceil(math.log2(t_e)))
    ts = np.linspace(0.0, t_max, 4001)
    surv = _affine_exponent(*sol.sol(np.minimum(ts, t_e)), params) * np.exp(
        -ab * l_star * np.maximum(ts - t_e, 0.0))
    primary = float(simpson(surv, x=ts))

    # route 2: int_0^{l*} F(u)^{-1} exp(-u r0 - int_0^u a b s/F(s) ds) du with
    # the integrable endpoint handled by u = l*(1 - e^{-s}).  The substituted
    # integrand decays only like exp(-a b l* s / F'(l*)), so the region where
    # F(u) = nu - Psi(u) cancels catastrophically still carries mass; beyond
    # u/l* = 1 - 1e-7 the exact exponential tail exp(-l* r0 - inner)/(a b l*)
    # is added in closed form.
    s_cut = -np.log(1e-7)
    s = np.linspace(1e-9, s_cut, 6001)
    u = l_star * (-np.expm1(-s))
    du_ds = l_star * np.exp(-s)
    f_of_u = np.maximum(nu - psi(u, params, JumpSpec.truncated(y)), 1e-300)
    inner = cumulative_trapezoid(ab * u / f_of_u * du_ds, s, initial=0.0)
    outer = du_ds / f_of_u * np.exp(-u * params.r0 - inner)
    secondary = float(simpson(outer, x=s))
    secondary += float(np.exp(-l_star * params.r0 - inner[-1]) / (ab * l_star))

    if abs(primary - secondary) > _ROUTE_TOL * max(abs(primary), 1e-12):
        raise RouteDisagreement(
            f"expected_tau routes disagree: {primary} vs {secondary}")
    return ExpectedTau(primary, primary, secondary)


def lou_first_jump_cdf(y_bar: float, t: float, params: ModelParams) -> float:
    """P(first jump of the locally equivalent Levy-OU above ybar <= t)
    = 1 - exp(-nu(ybar/sigma_z) r0 t); the arrival is Poisson with the
    frozen-state intensity."""
    y = _mark_threshold(params, y_bar)
    _check_input("t", t, "nonnegative")
    nu = big_jump_mass(params.alpha, y)
    return float(-np.expm1(-nu * params.r0 * t))


class TailAsymptotics(NamedTuple):
    m_lambda: float   # large-threshold tail of the LOU maximal jump
    m_r: float        # large-threshold tail of the branching model's maximal jump
    r_bound: float    # finite-threshold upper bound for P(tau^r <= t)


def tail_asymptotics(t: float, y_bar: float, params: ModelParams) -> TailAsymptotics:
    """Asymptotic tail probabilities of the maximal jump up to t and the
    explicit upper bound; all three scale like nu(ybar/sigma_z)."""
    y = _mark_threshold(params, y_bar)
    _check_input("t", t, "nonnegative")
    nu = big_jump_mass(params.alpha, y)
    a, b, r0 = params.a, params.b, params.r0
    m_lambda = nu * r0 * t
    m_r = nu * (b * t + (r0 - b) * (-np.expm1(-a * t)) / a)
    a_t = truncated_drift(params, y)
    b_t = truncated_level(params, y)
    r_bound = nu * (b_t * t + (r0 - b_t) * (-np.expm1(-a_t * t)) / a_t)
    return TailAsymptotics(float(m_lambda), float(m_r), float(r_bound))
