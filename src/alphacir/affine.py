"""Generalized Riccati solutions and the exponential-affine transforms built
on them: joint Laplace functionals, zero-coupon bonds, yields, stationary law.

Everything reduces to the flow v of

    v'(t) = theta - Psi(v(t)),   v(0) = xi,

plus the integral of Phi(v) = a*b*v along the flow.  The bond exponent uses
(xi, theta) = (0, 1); v is then the inverse of f(t) = int_0^t dx/(1-Psi(x)),
increasing toward the root x0 of Psi(q) = 1.  The flow is computed by an
adaptive Runge-Kutta rather than by inverting f, which is numerically fragile
near x0.

Each (xi, theta, params, spec) has one RK45 run with no end, stepped on
demand and kept in an lru_cache keyed on the params with r0 = 0 (v does
not depend on r0).  RK45 (Dormand-Prince, with the step-size
control of Hairer, Norsett & Wanner, Solving ODEs I, II.4) is deterministic
in its state, so a run to a horizon H takes the same steps as that run
until a step's first attempt would pass H and be clipped.  solve_v(.., H)
therefore shares those steps and re-runs only the tail with the end at H.
Two traps: a step that was rejected and then accepted can end before H
although its first attempt passed H, so the test is on the first attempt;
and RK45's initial step depends on the interval length, so a short H may
pick another first step, and then nothing is shared.

The curve of a cut is a view of its steps: each step carries its
solver state, its dense output and int_0 v up to both of its ends, and
int_0^t v is the step's cum plus one 12-point Gauss rule on [lo, t].
Every cut equals one solve_ivp run to H bit for bit: grid, values, dense
output, and the integral of Gauss pieces summed in step order.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.integrate import RK45, OdeSolution, quad

from .mechanism import JumpSpec, ModelParams, phi, psi
from .stable import _check_input

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)
_RTOL, _ATOL = 1e-10, 1e-12
# steps of one flow or cut (scipy's RK45), and step attempts of one
# jump-law solve (the float Dormand-Prince stepper jumps._solve_l, which
# takes RK45's steps): the step size is stability-limited, so a far horizon
# (bond --tmax 1e9, jump-survival --tmax 1e9) would step for ever.  The
# bond set at alpha 1.2 takes 3323 steps to t = 1e4; each step keeps its
# state and dense output.
_MAX_FLOW_STEPS = 2 ** 16


class _Step:
    """One accepted RK45 step [lo, hi] of a Riccati flow: the solver state
    at hi (y, f and the next step size h_abs), the dense output, cum =
    int_0^lo v and end = int_0^hi v, the step's piece by 12-point Gauss
    added to cum.  memo keeps quantities built on the step (see cached)."""

    __slots__ = ("lo", "hi", "y", "f", "h_abs", "dense", "cum", "end", "memo")

    def __init__(self, solver, before: list):
        self.lo, self.hi = solver.t_old, solver.t
        self.y, self.f, self.h_abs = solver.y, solver.f, solver.h_abs
        self.dense = solver.dense_output()
        self.cum = before[-1].end if before else 0.0
        self.end = float(self.integral(np.array([self.hi]))[0])
        self.memo = {}

    def integral(self, t: np.ndarray) -> np.ndarray:
        """int_0^t v for points t in [lo, hi]: cum plus 12-point Gauss on
        [lo, t].  The nodes of all t are evaluated as one sorted group, so
        that a point rounds alike alone and in an array; at t = hi the
        result is end."""
        mid, half = 0.5 * (t + self.lo), 0.5 * (t - self.lo)
        nodes = (mid[:, None] + half[:, None] * _GAUSS_X).ravel()
        order = np.argsort(nodes)
        vals = np.empty_like(nodes)
        vals[order] = self.dense(nodes[order])[0]
        vals = vals.reshape(t.size, _GAUSS_X.size)
        return self.cum + half * np.array([np.dot(_GAUSS_W, row) for row in vals])

    def cached(self, fn):
        """fn(self), computed once per step: a step shared by many cuts of
        its flow is evaluated once."""
        if fn not in self.memo:
            self.memo[fn] = fn(self)
        return self.memo[fn]


def _check_steps(steps: list) -> None:
    """Refuse a step past _MAX_FLOW_STEPS of one flow or cut."""
    if len(steps) >= _MAX_FLOW_STEPS:
        raise ValueError(f"the Riccati flow needs more than {_MAX_FLOW_STEPS} "
                         "steps to reach the horizon")


def _first_reach(t: float, h_abs: float) -> float:
    """Where a step's first attempt from t ends: RK45 raises h_abs to ten
    ulps of t."""
    return t + max(h_abs, 10.0 * abs(np.nextafter(t, np.inf) - t))


class OdeCurve:
    """The solution v(.) of v' = theta - Psi(v), v(0) = xi, on [0, grid[-1]],
    read from its RK45 steps: v by their dense output, int_0^t v by the
    step that holds t (_Step.integral).

    The first `shared` steps belong to the flow of (xi, theta, params, spec)
    that the curve was cut from, and so to every other cut of that flow."""

    def __init__(self, steps: list, shared: int, params: ModelParams):
        self.steps, self.shared, self.params = steps, shared, params
        self.grid = np.array([0.0] + [st.hi for st in steps])
        self._sol = OdeSolution(self.grid, [st.dense for st in steps])

    def _check(self, t: np.ndarray) -> None:
        """The curve is solved on [0, grid[-1]] only; NaN fails both bounds."""
        if not np.all((t >= 0.0) & (t <= self.grid[-1])):
            raise ValueError(f"t outside the curve's [0, {self.grid[-1]}]")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        self._check(t)
        out = self._sol(t)[0]
        return float(out) if out.ndim == 0 else out

    def integral(self, t):
        """int_0^t v(s) ds; t may be an array, the result then has its
        shape.  A step boundary belongs to the step it starts, the horizon
        to the last step."""
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        self._check(flat)
        i = np.minimum(np.searchsorted(self.grid, flat, side="right") - 1,
                       len(self.steps) - 1)
        out = np.empty_like(flat)
        for k in np.unique(i):
            at = i == k
            out[at] = self.steps[k].integral(flat[at])
        return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


class _Flow:
    """The RK45 run of v' = theta - Psi(v) from v(0) = xi with no end,
    stepped on demand.  RK45 is deterministic in (t, y, f, h_abs), so a run
    to a horizon H takes the flow's steps until a step's first attempt
    would pass H; cut(H) shares those and re-runs only the rest."""

    def __init__(self, xi: float, theta: float, params: ModelParams,
                 spec: JumpSpec):
        def rhs(_t, v):
            return [theta - psi(max(v[0], 0.0), params, spec)]

        self.rhs, self.xi, self.params = rhs, xi, params
        self.solver = RK45(rhs, 0.0, [xi], np.inf, rtol=_RTOL, atol=_ATOL)
        self.h0 = self.solver.h_abs
        self.steps = []

    def _advance(self) -> None:
        """Take the flow's next step; a failed step raises RuntimeError, and
        a step past _MAX_FLOW_STEPS ValueError."""
        _check_steps(self.steps)
        message = self.solver.step()
        if self.solver.status == "failed":
            raise RuntimeError(f"Riccati flow failed: {message}")
        self.steps.append(_Step(self.solver, self.steps))

    def cut(self, horizon: float) -> OdeCurve:
        """The flow over [0, horizon], equal bit for bit to an RK45 run to
        horizon.  A shorter interval can change RK45's first step; then
        nothing is shared.  A cut of more than _MAX_FLOW_STEPS steps raises
        ValueError."""
        solver = RK45(self.rhs, 0.0, [self.xi], horizon, rtol=_RTOL, atol=_ATOL)
        steps, t = [], 0.0
        if solver.h_abs == self.h0:
            reach = _first_reach(0.0, self.h0)
            while t < horizon and reach <= horizon:
                if len(steps) == len(self.steps):
                    self._advance()
                last = self.steps[len(steps)]
                steps.append(last)
                t, reach = last.hi, _first_reach(last.hi, last.h_abs)
            solver.t, solver.y, solver.f, solver.h_abs = (
                last.hi, last.y, last.f, last.h_abs)
        shared = len(steps)
        while t < horizon:           # the tail, clipped at the horizon
            _check_steps(steps)
            message = solver.step()
            if solver.status == "failed":
                raise RuntimeError(f"Riccati flow failed: {message}")
            steps.append(_Step(solver, steps))
            t = solver.t
        return OdeCurve(steps, shared, self.params)


def _without_r0(params: ModelParams) -> ModelParams:
    """The cache key of the quantities that do not depend on r0 (v here, H
    and M in derivatives): one model at two initial rates shares them."""
    return replace(params, r0=0.0)


@lru_cache(maxsize=64)
def _flow(xi: float, theta: float, params: ModelParams, spec: JumpSpec) -> _Flow:
    return _Flow(xi, theta, params, spec)


def solve_v(xi: float, theta: float, horizon: float, params: ModelParams,
            spec: JumpSpec = JumpSpec.full()) -> OdeCurve:
    """Flow of v' = theta - Psi(v) from v(0) = xi over [0, horizon], cut
    from the shared flow of (xi, theta, params, spec).  A cut that raises
    (a failed step, or one past _MAX_FLOW_STEPS) empties the flow cache, so
    that no failed or cut-short flow is kept with its steps."""
    _check_input("xi", xi, "nonnegative")
    _check_input("theta", theta, "nonnegative")
    _check_input("horizon", horizon, "positive")
    try:
        return _flow(xi, theta, _without_r0(params), spec).cut(float(horizon))
    except BaseException:
        _flow.cache_clear()
        raise


def joint_laplace(x: float, t: float, xi: float, theta: float,
                  params: ModelParams, spec: JumpSpec = JumpSpec.full()) -> float:
    """E_x[exp(-xi r_t - theta int_0^t r_s ds)]
    = exp(-x v(t,xi,theta) - int_0^t Phi(v(s,xi,theta)) ds)."""
    _check_input("x", x, "nonnegative")
    _check_input("t", t, "nonnegative")
    _check_input("xi", xi, "nonnegative")
    _check_input("theta", theta, "nonnegative")
    if t == 0.0:
        return float(np.exp(-xi * x))
    if xi == 0.0 and theta == 0.0:
        return 1.0
    curve = solve_v(xi, theta, t, params, spec)
    return float(np.exp(-x * curve(t) - params.a * params.b * curve.integral(t)))


def bond_price(t: float, T: float, r_t: float, params: ModelParams) -> float:
    """Zero-coupon price B(t, T) = exp(-r_t v(T-t) - a b int_0^(T-t) v(s) ds),
    the joint Laplace functional at (xi, theta) = (0, 1) over T - t."""
    if T < t:
        raise ValueError(f"maturity T = {T} precedes valuation date t = {t}")
    return joint_laplace(r_t, T - t, 0.0, 1.0, params)


def bond_price_from_curve(curve: OdeCurve, tau: float, r_t: float) -> float:
    """Bond price reusing a precomputed (xi=0, theta=1) curve; tau must lie
    in [0, horizon]."""
    _check_input("r_t", r_t, "nonnegative")
    if tau == 0.0:
        return 1.0
    p = curve.params
    return float(np.exp(-r_t * curve(tau) - p.a * p.b * curve.integral(tau)))


def bond_yield(kappa: float, r_t: float, params: ModelParams) -> float:
    """Constant-maturity yield at the current rate r_t: -ln B(t, t+kappa)/kappa
    = (r_t v(kappa) + a b int_0^kappa v)/kappa, which does not depend on t."""
    _check_input("kappa", kappa, "positive")
    curve = solve_v(0.0, 1.0, kappa, params)
    return yield_from_curve(curve, kappa, r_t)


def yield_from_curve(curve: OdeCurve, kappa: float, r_t):
    """Yield as a function of the current rate; r_t may be an array, each
    entry finite and nonnegative, and kappa must lie in (0, horizon]."""
    _check_input("kappa", kappa, "positive")   # the curve rejects one past its end
    _check_input("r_t", r_t, "nonnegative")
    p = curve.params
    out = (r_t * curve(kappa) + p.a * p.b * curve.integral(kappa)) / kappa
    return float(out) if np.isscalar(r_t) else out


def stationary_laplace(p: float, params: ModelParams) -> float:
    """Laplace transform of the limit law: exp(-int_0^p Phi(q)/Psi(q) dq).

    Phi/Psi extends continuously to 0 with value a*b/Psi'(0+), so the
    quadrature sees no singularity.
    """
    _check_input("p", p, "nonnegative")
    if p == 0.0:
        return 1.0
    limit0 = params.b        # a b / Psi'(0+), with Psi'(0+) = a

    def integrand(q):
        if q < 1e-12:
            return limit0
        return phi(q, params) / psi(q, params)

    val, _ = quad(integrand, 0.0, p, epsabs=1e-13, epsrel=1e-11, limit=200)
    return float(np.exp(-val))
