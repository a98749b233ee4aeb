"""Put option on the running minimum of the constant-maturity bond yield.

Pipeline: the payoff reduces algebraically to a put on the running minimum of
the spot rate with nominal v(kappa)/kappa and strike
Kbar = (kappa K - ab int_0^kappa v)/v(kappa); its Laplace transform in the
maturity is

    L_theta = (v(kappa)/kappa) [int_0^min(Kbar, r0) [H(theta, r0)/H(theta, y)]
                                M(theta, y) dy + (Kbar - r0)+ M(theta, r0)]

since a level y >= r0 is entered at time 0, where the bond restarts from
r0.  H is the scale-type integral

    H_eps(theta, x) = int_{q1}^inf e^{-xz}/(Psi(z)-1)
                      * exp( int_{q1+eps}^z (ab u + theta)/(Psi(u)-1) du ) dz,

q1 the root of Psi(q) = 1, and M(theta, y) the Laplace transform in time of
the bond price started at y.  Prices are recovered by Gaver-Stehfest
inversion, an exact rational sum, with the transform evaluated node-major:
put_price passes every abscissa to one put_laplace call, which evaluates H
at each strike node x (the 64 Gauss nodes below r0, plus r0) for every
theta at once.  The tail grid z = q1 + eps e^s, s in [0, s_hi(x)], and
-x z, log(h/eps), log(Psi(z) - 1) and log h on it (h = z - q1) involve only
the params, eps and x; theta enters H only through beta and the spline R of
the remainder.  The R splines of one params share their knots, so R of all
thetas on a node's grid is one call of a piecewise polynomial with a column
per theta, and the tail is one (n_theta x grid) pass: log-integrand, row
maximum, exp, and scipy's Simpson rule on s, row by row.  Only the thetas
whose integrand has not decayed by the end of the grid run again, on longer
grids they share.  The singular panel's nodes depend on theta only; its Psi
and R are evaluated once per theta, with the spline.

M(theta, .) integrates over v on [0, max(50/(theta + ab x0), 5)], and the
strike uses v on [0, kappa].  All these curves are cuts of the params' one
(xi, theta) = (0, 1) Riccati flow (see affine): the flow's steps up to the
first that reaches the horizon.  M takes 16 Gauss nodes on each of them,
the last cut back to the horizon, and reads v and int v at all the nodes
by one call of the flow's dense output.

The integrand of H has an integrable (z - q1)^(beta - 1) singularity with
beta = (ab q1 + theta)/Psi'(q1); it is made exact by splitting off the
logarithmic part of the inner integral and substituting s = ((z-q1)/eps)^beta
on the first panel.  eps cancels in every exposed ratio; the put uses
the default q1/10, and an invariance test of hitting_time_laplace enforces
the cancellation.

Psi is evaluated on whole node arrays (the H spline grid, the singular
panel, the tail of H).  Its power terms (sigma_z q)^alpha are taken with
libm pow, element by element, and not with np.power: NumPy's SIMD power can
differ from libm by one ulp, and the alternating 14-term Stehfest sum, with
weights up to 1.7e8, turns that into a ~4e-9 relative move of the put.
The array path therefore reproduces the scalar Psi bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicSpline, PPoly

from .affine import _without_r0, solve_v
from .mechanism import ModelParams, psi, psi_prime, root_psi_equals_one
from .stable import _check_input

_GAUSS64_X, _GAUSS64_W = np.polynomial.legendre.leggauss(64)
_GAUSS32_X, _GAUSS32_W = np.polynomial.legendre.leggauss(32)
_GAUSS16_X, _GAUSS16_W = np.polynomial.legendre.leggauss(16)
# the singular panel's nodes t and weights on [0, 1]
_PANEL_T, _PANEL_W = 0.5 * (_GAUSS32_X + 1.0), 0.5 * _GAUSS32_W
# the R spline's log-spaced grid in h = z - q1: its upper end and size
_H_MAX, _H_NODES = 1e9, 4000
# ln 2 to 64 digits, exact as a rational: each Gaver-Stehfest abscissa
# k ln2/t is the float nearest k _LN2/t, and _LN2/t scales the exact sum
_LN2 = Fraction("0.69314718055994530941723212145817656807"
                "55001343602552541206800095")


class _HCache:
    """Per-(theta, params) machinery for H_eps: q1, beta, a spline of the
    smooth remainder R(z) = int_{q1+eps}^z [g(u) - beta/(u - q1)] du with
    g(u) = (ab u + theta)/(Psi(u) - 1), and the x-free factors of the
    singular panel (its nodes z, (Psi(z) - 1)/h and R there).  theta > 0
    and eps > 0 are checked by the callers."""

    def __init__(self, theta: float, params: ModelParams, eps: Optional[float]):
        self.params = params
        self.q1 = root_psi_equals_one(params)
        self.psi1 = psi_prime(self.q1, params)
        ab = params.a * params.b
        self.beta = (ab * self.q1 + theta) / self.psi1
        self.eps = self.q1 / 10.0 if eps is None else eps
        h = np.geomspace(self.q1 * 1e-12, _H_MAX, _H_NODES)
        # integrand g(q1 + h) - beta/h of R; below the cut it is replaced by
        # its limit as h -> 0, where Psi(q1 + h) - 1 loses every digit
        far = h >= 1e-9 * max(self.q1, 1.0)
        d = 1e-5 * max(self.q1, 1.0)      # Psi''(q1) by a central difference
        lo, mid, hi = psi(self.q1 + d * np.array([-1.0, 0.0, 1.0]), params)
        psi2 = (hi - 2.0 * mid + lo) / (d * d)
        s_vals = np.full_like(h, ab / self.psi1
                              - self.beta * psi2 / (2.0 * self.psi1))
        u = self.q1 + h[far]
        s_vals[far] = ((ab * u + theta) / (psi(u, params) - 1.0)
                       - self.beta / h[far])
        r_of_h = cumulative_simpson(s_vals, x=h, initial=0.0)
        if not np.all(np.isfinite(r_of_h)):
            raise RuntimeError(f"H remainder not finite at theta = {theta:g}")
        # shift so that R(q1 + eps) = 0
        shift = np.interp(self.eps, h, r_of_h)
        self._r_spline = CubicSpline(h, r_of_h - shift)
        # panel [q1, q1+eps]: integrand = G(h) h^(beta-1); the substitution
        # h = eps * t^(1/beta) makes the weight exact
        beta, eps = self.beta, self.eps
        hh = eps * _PANEL_T ** (1.0 / beta)
        self.panel_z = self.q1 + hh
        self.panel_ratio = np.full_like(hh, self.psi1)
        far = hh > 1e-13 * self.q1
        self.panel_ratio[far] = (psi(self.panel_z[far], params) - 1.0) / hh[far]
        self.panel_r = self._r_spline(np.clip(hh, h[0], _H_MAX))
        # the weight's factor delta^beta/(beta eps^beta) at delta = eps: not
        # 1/beta, whose rounding differs, and the put reads every bit of H
        self.panel_scale = eps ** beta / beta / eps ** beta


class _HStack:
    """H_eps(theta, x) at every theta of some _HCaches of one params and
    eps, one node x at a time.  Their R splines share their knots, so R of
    every theta is one piecewise polynomial with a column per theta; a
    node's tail is one (n_theta x grid) pass.  grids counts the tail grids
    built."""

    def __init__(self, hcs: list):
        self.q1, self.eps, self.params = hcs[0].q1, hcs[0].eps, hcs[0].params
        self.beta = np.array([hc.beta for hc in hcs])[:, None]
        self._r = PPoly.construct_fast(
            np.stack([hc._r_spline.c for hc in hcs], axis=-1),
            hcs[0]._r_spline.x)
        self._panel = [np.array([getattr(hc, name) for hc in hcs]) for name in
                       ("panel_z", "panel_r", "panel_ratio", "panel_scale")]
        self.grids = 0

    def __call__(self, x: float) -> np.ndarray:
        """H_eps(theta, x) at x >= 0, one entry per theta."""
        z, r, ratio, scale = self._panel
        gg = np.exp(-x * z + r) / ratio
        # a dot product per theta: a matrix-vector product may sum the 32
        # terms in another order
        out = scale * np.array([np.dot(_PANEL_W, row) for row in gg])

        # tail [q1+eps, inf) on z = q1 + eps e^s: the integrand can rise
        # over several decades (power growth from the inner integral) before
        # e^{-xz} wins, so the thetas whose log-integrand has not fallen 60
        # nats below its maximum by the end of the grid run again on a grid
        # 5 longer
        q1, eps, params = self.q1, self.eps, self.params
        s_hi = np.log(max(100.0, 80.0 / max(x, 1e-12)) / eps)
        rows, beta, r_poly = np.arange(out.size), self.beta, self._r
        while True:
            self.grids += 1
            s = np.linspace(0.0, s_hi, 6001)
            z = q1 + eps * np.exp(s)
            h = z - q1
            r_tail = r_poly(np.clip(h, r_poly.x[0], _H_MAX)).T
            log_i = (-x * z + beta * np.log(h / eps) + r_tail
                     - np.log(psi(z, params) - 1.0)) + np.log(h)
            m = np.max(log_i, axis=1)
            done = (log_i[:, -1] < m - 60.0) | (z[-1] > 0.5 * _H_MAX)
            log_i -= m[:, None]
            tails = simpson(np.exp(log_i, out=log_i), x=s, axis=-1)
            out[rows[done]] += np.exp(m[done]) * tails[done]
            if done.all():
                return out
            rows, beta = rows[~done], beta[~done]
            r_poly = PPoly.construct_fast(r_poly.c[..., ~done], r_poly.x)
            s_hi += 5.0


@lru_cache(maxsize=64)
def _cached_h(theta: float, params: ModelParams, eps: Optional[float]) -> _HCache:
    return _HCache(theta, params, eps)


def _h_values(theta, params, eps, *xs) -> list:
    """H_eps(theta, x) at each x, in order; raises RuntimeError when one of
    them is not finite."""
    stack = _HStack([_cached_h(theta, _without_r0(params), eps)])
    values = [float(stack(x)[0]) for x in xs]
    if not np.all(np.isfinite(values)):
        raise RuntimeError(f"H not finite at theta = {theta:g}")
    return values


def hitting_time_laplace(r0: float, y: float, theta: float,
                         params: ModelParams, eps: Optional[float] = None) -> float:
    """E[exp(-theta T_y - int_0^{T_y} r)] for the first entrance time T_y of
    the rate into [0, y]; equals 1 when y >= r0 (immediate entrance)."""
    _check_input("r0", r0, "nonnegative")
    _check_input("y", y, "positive")
    _check_input("theta", theta, "positive")
    if eps is not None:
        _check_input("eps", eps, "positive")
    if y >= r0:
        return 1.0
    h_r0, h_y = _h_values(theta, params, eps, r0, y)
    return h_r0 / h_y


class _MCache:
    """Shared v-curve machinery for M(theta, y) = int_0^inf e^{-theta u}
    B_y(0,u) du: the y-dependence is only exp(-y v(u)), so one curve serves
    every y.  The curve is cut from the (0, 1) flow of the params.  theta > 0
    is checked by the callers."""

    def __init__(self, theta: float, params: ModelParams):
        self.theta, self.params = theta, params
        x0 = root_psi_equals_one(params)
        decay = theta + params.a * params.b * x0
        horizon = max(50.0 / decay, 5.0)
        self.curve = solve_v(0.0, 1.0, horizon, params)
        # composite 16-point Gauss on the solver's own steps, the last cut
        # back to the horizon, read by one call of the dense output
        g = self.curve.grid
        mid, half = 0.5 * (g[1:] + g[:-1]), 0.5 * (g[1:] - g[:-1])
        self.u = (mid[:, None] + half[:, None] * _GAUSS16_X).ravel()
        self.w = (half[:, None] * _GAUSS16_W).ravel()
        self.v_u, self.iv_u = self.curve.values(self.u)

    def value(self, y) -> float:
        ab = self.params.a * self.params.b
        expo = -self.theta * self.u - np.multiply.outer(np.atleast_1d(y), self.v_u) \
            - ab * self.iv_u
        out = np.exp(expo) @ self.w
        return float(out[0]) if np.isscalar(y) else out


@lru_cache(maxsize=64)
def _cached_m(theta: float, params: ModelParams) -> _MCache:
    return _MCache(theta, params)


def bond_transform_M(theta: float, y: float, params: ModelParams) -> float:
    """Laplace transform in time of the bond price with initial rate y."""
    _check_input("theta", theta, "positive")
    _check_input("y", y, "nonnegative")
    return _cached_m(theta, _without_r0(params)).value(float(y))


def effective_strike(kappa: float, K: float, params: ModelParams):
    """Kbar = (kappa K - ab int_0^kappa v)/v(kappa) and the nominal v(kappa)/kappa."""
    _check_input("kappa", kappa, "positive")
    _check_input("K", K, "finite")
    curve = solve_v(0.0, 1.0, kappa, params)
    v_k = curve(kappa)
    k_bar = (kappa * K - params.a * params.b * curve.integral(kappa)) / v_k
    return k_bar, v_k / kappa


def put_laplace(theta, kappa: float, K: float, params: ModelParams,
                with_diagnostics: bool = False):
    """Laplace transform in the maturity of the running-minimum yield put
    started from params.r0.  theta may be a 1-D array; the result then has
    its shape."""
    r0, params = params.r0, _without_r0(params)   # the H and M cache key
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    _check_input("theta", thetas, "positive")
    k_bar, nominal = effective_strike(kappa, K, params)
    diag = {"kbar": k_bar, "void": k_bar <= 0.0}
    vals = np.zeros_like(thetas)
    if k_bar > 0.0:
        stack = _HStack([_cached_h(th, params, None) for th in thetas.tolist()])
        # a level y >= r0 is entered at time 0, where the bond restarts from
        # r0: the Gauss nodes cover [0, min(Kbar, r0)], and the rest of
        # [0, Kbar] adds (Kbar - r0)+ M(theta, r0)
        k_low, k_high = min(k_bar, r0), max(k_bar - r0, 0.0)
        ys, ws = 0.5 * k_low * (_GAUSS64_X + 1.0), 0.5 * k_low * _GAUSS64_W
        if k_low > 0.0:
            # node-major: column 0 of h is r0, the rest the nodes
            h = np.column_stack([stack(x) for x in [r0] + ys.tolist()])
            ratios = h[:, :1] / h[:, 1:]
        else:                               # r0 = 0: the nodes weigh nothing
            ratios = np.zeros((thetas.size, ys.size))
        curves = []
        for i, th in enumerate(thetas.tolist()):
            mc = _cached_m(th, params)
            curves.append(mc.curve)
            vals[i] = nominal * float(np.dot(ws, ratios[i] * mc.value(ys)))
            if k_high > 0.0:
                vals[i] += nominal * k_high * mc.value(r0)
        bad = thetas[~np.isfinite(vals)]
        if bad.size:
            raise RuntimeError(f"put Laplace transform not finite at theta = "
                               f"{', '.join(f'{th:g}' for th in bad)}")
        # the M curves are cut from one flow: the steps of the longest
        diag.update({"q1": stack.q1, "eps": stack.eps, "nodes": ys.size,
                     "h_tail_grids": stack.grids,
                     "riccati_steps": max(len(c.grid) - 1 for c in curves)})
    val = float(vals[0]) if np.ndim(theta) == 0 else vals
    return (val, diag) if with_diagnostics else val


@lru_cache(maxsize=None)
def gaver_stehfest_weights(n_terms: int = 14) -> tuple:
    """Stehfest weights a_k, k = 1..n_terms (n_terms even), as exact
    Fractions.  The tuple is computed once per n_terms and shared."""
    if n_terms % 2:
        raise ValueError(f"n_terms must be even, got {n_terms}")
    m, f = n_terms // 2, math.factorial
    return tuple((-1) ** (k + m) * sum(
        Fraction(j ** m * f(2 * j), f(m - j) * f(j) * f(j - 1) * f(k - j)
                 * f(2 * j - k)) for j in range((k + 1) // 2, min(k, m) + 1))
        for k in range(1, n_terms + 1))


def _stehfest_abscissae(t: float, n_terms: int) -> list:
    """The points theta_k = k ln2/t, k = 1..n_terms, where gaver_stehfest
    calls the transform: each the float nearest the exact rational."""
    ln2_t = _LN2 / Fraction(t)
    return [float(ln2_t * k) for k in range(1, n_terms + 1)]


def gaver_stehfest(transform, t: float, n_terms: int = 14) -> float:
    """Invert a Laplace transform on the real axis at time t.

    The transform is called at the float abscissae and must return finite
    floats; the alternating sum (ln2/t) sum_k a_k L(theta_k) runs exactly
    in rationals and is rounded once."""
    _check_input("t", t, "positive")
    acc = Fraction(0)
    for a_k, theta in zip(gaver_stehfest_weights(n_terms),
                          _stehfest_abscissae(t, n_terms)):
        value = transform(theta)
        _check_input("transform value", value, "finite")
        acc += a_k * Fraction(value)
    return float(acc * _LN2 / Fraction(t))


def put_price(T: float, kappa: float, K: float, params: ModelParams,
              n_terms: int = 14, with_diagnostics: bool = False):
    """Price of the running-minimum yield put started from params.r0, by
    Gaver-Stehfest inversion of put_laplace at the maturity.  Raises
    RuntimeError when the n-term and (n - 2)-term prices differ by more than
    5 % of the price.  The diagnostics' kappa_inv, the inversion's condition
    number (ln2/T) sum_k |a_k L(theta_k)|/|price|, bounds the relative move
    of the price per unit of relative error in the transform values; it is
    None for a price of 0."""
    _check_input("T", T, "positive")
    if n_terms < 4 or n_terms % 2:
        raise ValueError("n_terms must be even and at least 4 (the n - 2 "
                         "check needs two terms)")
    # one put_laplace call at every abscissa of the n-term sum, which the
    # n - 2 check reuses; any other theta raises KeyError
    thetas = _stehfest_abscissae(T, n_terms)
    vals, diag = put_laplace(thetas, kappa, K, params, with_diagnostics=True)
    diag.update({"n_terms": n_terms, "kappa_inv": None})
    if diag["void"]:
        return (0.0, diag) if with_diagnostics else 0.0
    values = dict(zip(thetas, vals.tolist()))
    price = gaver_stehfest(values.__getitem__, T, n_terms=n_terms)
    check = gaver_stehfest(values.__getitem__, T, n_terms=n_terms - 2)
    diag["stability_gap"] = abs(price - check)
    diag["transform_evals"] = len(values)
    if abs(price - check) > 0.05 * max(abs(price), 1e-12):
        raise RuntimeError(f"Gaver-Stehfest inversion unstable: n={n_terms} "
                           f"gives {price}, n={n_terms - 2} gives {check}, "
                           f"a gap above 5 % of the price")
    if price < 0.0 and abs(price) < 1e-12:
        price = 0.0
    if price != 0.0:
        diag["kappa_inv"] = math.log(2.0) / T * sum(
            abs(float(a_k) * v) for a_k, v in
            zip(gaver_stehfest_weights(n_terms), vals.tolist())) / abs(price)
    return (price, diag) if with_diagnostics else price
