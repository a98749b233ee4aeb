"""Put option on the running minimum of the constant-maturity bond yield.

Pipeline: the payoff reduces algebraically to a put on the running minimum of
the spot rate with nominal v(kappa)/kappa and strike
Kbar = (kappa K - ab int_0^kappa v)/v(kappa); its Laplace transform in the
maturity is

    L_theta = (v(kappa)/kappa) int_0^Kbar [H(theta, r0)/H(theta, y)] M(theta, y) dy

where H is the scale-type integral

    H_eps(theta, x) = int_{q1}^inf e^{-xz}/(Psi(z)-1)
                      * exp( int_{q1+eps}^z (ab u + theta)/(Psi(u)-1) du ) dz,

q1 the root of Psi(q) = 1, and M(theta, y) the Laplace transform in time of
the bond price started at y.  Prices are recovered by Gaver-Stehfest
inversion in extended precision, with the transform evaluated node-major:
put_price passes every abscissa to one put_laplace call, which builds the
tail of H once per strike node x (the 64 Gauss nodes below r0, plus r0) and
integrates it for every theta.  That tail grid z = q1 + eps e^s, s in
[0, s_hi(x)], and -x z, log(h/eps), log(Psi(z) - 1) and log h on it
(h = z - q1) involve only the params, eps and x; theta enters H only through
beta and the spline R.

The integrand of H has an integrable (z - q1)^(beta - 1) singularity with
beta = (ab q1 + theta)/Psi'(q1); it is made exact by splitting off the
logarithmic part of the inner integral and substituting s = ((z-q1)/eps)^beta
on the first panel.  eps cancels in every exposed ratio; the default is
q1/10 and an invariance test enforces the cancellation.

Psi is evaluated on whole node arrays (the H spline grid, the singular
panel, the tail of H).  Its power terms (sigma_z q)^alpha are taken with
libm pow, element by element, and not with np.power: NumPy's SIMD power can
differ from libm by one ulp, and the alternating 14-term Stehfest sum, with
weights up to 1.7e8, turns that into a ~4e-9 relative move of the put.
The array path therefore reproduces the scalar Psi bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import mpmath as mp
import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicSpline

from .affine import solve_v
from .mechanism import JumpSpec, ModelParams, psi, psi_prime, root_psi_equals_one

_GAUSS64_X, _GAUSS64_W = np.polynomial.legendre.leggauss(64)
_GAUSS32_X, _GAUSS32_W = np.polynomial.legendre.leggauss(32)
# the R spline's log-spaced grid in h = z - q1: its upper end and size
_H_MAX, _H_NODES = 1e9, 4000


def _check_finite(**values) -> None:
    """Reject NaN or infinite inputs (or array entries) before any solve:
    comparisons with NaN are False, so range checks alone let them through."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PutSpec:
    """Running-minimum yield put: tenor kappa, strike K, maturity T."""

    kappa: float
    strike: float
    maturity: float
    r0: float

    def __post_init__(self):
        _check_finite(kappa=self.kappa, K=self.strike, T=self.maturity,
                      r0=self.r0)
        if self.kappa <= 0.0 or self.maturity <= 0.0:
            raise ValueError("kappa and maturity must be positive")
        if self.r0 < 0.0:
            raise ValueError("r0 must be nonnegative")


class _HCache:
    """Per-(theta, params) machinery for H_eps: q1, beta, and a spline of the
    smooth remainder R(z) = int_{q1+eps}^z [g(u) - beta/(u - q1)] du with
    g(u) = (ab u + theta)/(Psi(u) - 1)."""

    def __init__(self, theta: float, params: ModelParams, eps: Optional[float]):
        if theta <= 0.0:
            raise ValueError("theta must be positive")
        self.theta = theta
        self.params = params
        self.spec = JumpSpec.full()
        self.q1 = root_psi_equals_one(params, self.spec)
        self.psi1 = psi_prime(self.q1, params, self.spec)
        ab = params.a * params.b
        self.beta = (ab * self.q1 + theta) / self.psi1
        self.eps = self.q1 / 10.0 if eps is None else eps
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        h = np.geomspace(self.q1 * 1e-12, _H_MAX, _H_NODES)
        # integrand g(q1 + h) - beta/h of R; below the cut it is replaced by
        # its limit as h -> 0, where Psi(q1 + h) - 1 loses every digit
        far = h >= 1e-9 * max(self.q1, 1.0)
        s_vals = np.full_like(h, ab / self.psi1
                              - self.beta * self._psi_second() / (2.0 * self.psi1))
        u = self.q1 + h[far]
        s_vals[far] = ((ab * u + theta) / (psi(u, params, self.spec) - 1.0)
                       - self.beta / h[far])
        r_of_h = cumulative_simpson(s_vals, x=h, initial=0.0)
        # shift so that R(q1 + eps) = 0
        shift = np.interp(self.eps, h, r_of_h)
        self._r_spline = CubicSpline(h, r_of_h - shift)
        self._h_lo = h[0]

    def _psi_second(self) -> float:
        d = 1e-5 * max(self.q1, 1.0)
        return (psi(self.q1 + d, self.params, self.spec)
                - 2.0 * psi(self.q1, self.params, self.spec)
                + psi(self.q1 - d, self.params, self.spec)) / (d * d)

    def r_smooth(self, h):
        return self._r_spline(np.clip(h, self._h_lo, _H_MAX))

    def h_value(self, x: float, tail: Optional[_HTail] = None) -> float:
        """H_eps(theta, x) for x >= 0 by singular panel plus adaptive tail;
        tail is the shared _HTail at x, built here if not given."""
        q1, beta, eps = self.q1, self.beta, self.eps
        delta = eps
        # panel [q1, q1+delta]: integrand = G(h) h^(beta-1),
        # G(h) = e^{-x(q1+h)+R(h)} * (h/(Psi-1)) * eps^{-beta} * h^{... }
        # substitution h = delta * t^(1/beta) makes the weight exact
        t = 0.5 * (_GAUSS32_X + 1.0)
        wt = 0.5 * _GAUSS32_W
        hh = delta * t ** (1.0 / beta)
        z = q1 + hh
        ratio = np.full_like(hh, self.psi1)
        far = hh > 1e-13 * q1
        ratio[far] = (psi(z[far], self.params, self.spec) - 1.0) / hh[far]
        gg = np.exp(-x * z + self.r_smooth(hh)) / ratio
        panel = (delta ** beta / beta / eps ** beta) * float(np.dot(wt, gg))

        # tail [q1+delta, inf): the integrand can rise over several decades
        # (power growth from the inner integral) before e^{-xz} wins, so a
        # theta whose log-integrand has not fallen 60 nats below its running
        # maximum by the end of the grid gets its own grid, 5 longer.
        shared = tail = _HTail(self, x) if tail is None else tail
        while True:
            log_i = (tail.neg_xz + beta * tail.log_h_eps
                     + self.r_smooth(tail.h) - tail.log_psi1) + tail.log_h
            m = float(np.max(log_i))
            if log_i[-1] < m - 60.0 or tail.z[-1] > 0.5 * _H_MAX:
                break
            tail = _HTail(self, x, tail.s_hi + 5.0)
            shared.grids += 1
        return panel + np.exp(m) * float(simpson(np.exp(log_i - m), x=tail.s))


class _HTail:
    """The theta-independent pieces of the tail of H_eps(., x) (see the
    module docstring).  grids counts the grids built at x, including the own
    grids of the thetas that outrun s_hi."""

    def __init__(self, hc: _HCache, x: float, s_hi: Optional[float] = None):
        q1, eps = hc.q1, hc.eps
        self.s_hi = (np.log(max(100.0, 80.0 / max(x, 1e-12)) / eps)
                     if s_hi is None else s_hi)
        self.s = np.linspace(0.0, self.s_hi, 6001)
        self.z = q1 + eps * np.exp(self.s)
        self.h = self.z - q1
        self.neg_xz = -x * self.z
        self.log_h_eps = np.log(self.h / eps)
        self.log_psi1 = np.log(psi(self.z, hc.params, hc.spec) - 1.0)
        self.log_h = np.log(self.h)
        self.grids = 1


@lru_cache(maxsize=64)
def _cached_h(theta: float, params: ModelParams, eps: Optional[float]) -> _HCache:
    return _HCache(theta, params, eps)


def h_scale(theta: float, x: float, eps: Optional[float],
            params: ModelParams) -> float:
    """The scale-type integral H_eps(theta, x); exposed mainly for tests,
    production code consumes ratios where eps cancels."""
    _check_finite(theta=theta, x=x)
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    cache = _cached_h(theta, params, eps)
    return cache.h_value(x)


def hitting_time_laplace(r0: float, y: float, theta: float,
                         params: ModelParams, eps: Optional[float] = None) -> float:
    """E[exp(-theta T_y - int_0^{T_y} r)] for the first entrance time T_y of
    the rate into [0, y]; equals 1 when y >= r0 (immediate entrance)."""
    _check_finite(r0=r0, y=y, theta=theta)
    if y <= 0.0:
        raise ValueError("level y must be positive")
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if y >= r0:
        return 1.0
    cache = _cached_h(theta, params, eps)
    return cache.h_value(r0) / cache.h_value(y)


class _MCache:
    """Shared v-curve machinery for M(theta, y) = int_0^inf e^{-theta u}
    B_y(0,u) du: the y-dependence is only exp(-y v(u)), so one curve serves
    every y."""

    def __init__(self, theta: float, params: ModelParams):
        if theta <= 0.0:
            raise ValueError("theta must be positive")
        self.theta = theta
        self.params = params
        x0 = root_psi_equals_one(params)
        decay = theta + params.a * params.b * x0
        horizon = max(50.0 / decay, 5.0)
        curve = solve_v(0.0, 1.0, horizon, params)
        # composite 16-point Gauss on the solver's own steps
        g = curve.grid
        xs16, ws16 = np.polynomial.legendre.leggauss(16)
        nodes, weights = [], []
        for lo, hi in zip(g[:-1], g[1:]):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            nodes.append(mid + half * xs16)
            weights.append(half * ws16)
        self.u = np.concatenate(nodes)
        self.w = np.concatenate(weights)
        self.v_u = curve(self.u)
        self.iv_u = curve.integral(self.u)
        self.curve = curve

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
    _check_finite(theta=theta, y=y)
    if y < 0.0:
        raise ValueError("y must be nonnegative")
    return _cached_m(theta, params).value(float(y))


def effective_strike(kappa: float, K: float, params: ModelParams):
    """Kbar = (kappa K - ab int_0^kappa v)/v(kappa) and the nominal v(kappa)/kappa."""
    curve = solve_v(0.0, 1.0, kappa, params)
    v_k = curve(kappa)
    k_bar = (kappa * K - params.a * params.b * curve.integral(kappa)) / v_k
    return k_bar, v_k / kappa


def put_laplace(theta, kappa: float, K: float, r0: Optional[float],
                params: ModelParams, eps: Optional[float] = None,
                with_diagnostics: bool = False):
    """Laplace transform in the maturity of the running-minimum yield put.
    theta may be a 1-D array; the result then has its shape."""
    r0 = params.r0 if r0 is None else r0
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    _check_finite(theta=theta, kappa=kappa, K=K, r0=r0)
    if np.any(thetas <= 0.0):
        raise ValueError("theta must be positive")
    k_bar, nominal = effective_strike(kappa, K, params)
    diag = {"kbar": k_bar, "void": k_bar <= 0.0}
    vals = np.zeros_like(thetas)
    if k_bar > 0.0:
        hcs = [_cached_h(th, params, eps) for th in thetas.tolist()]
        ys = 0.5 * k_bar * (_GAUSS64_X + 1.0)
        ws = 0.5 * k_bar * _GAUSS64_W
        below = ys < r0
        # node-major: column 0 of h is r0, the rest the nodes below r0
        h = np.empty((thetas.size, 1 + np.count_nonzero(below)))
        grids = 0
        for j, x in enumerate([r0] + ys[below].tolist()):
            tail = _HTail(hcs[0], x)
            h[:, j] = [hc.h_value(x, tail) for hc in hcs]
            grids += tail.grids
        ratios = np.ones((thetas.size, ys.size))
        ratios[:, below] = h[:, :1] / h[:, 1:]
        for i, th in enumerate(thetas.tolist()):
            m_vals = _cached_m(th, params).value(ys)
            vals[i] = nominal * float(np.dot(ws, ratios[i] * m_vals))
        bad = thetas[~np.isfinite(vals)]
        if bad.size:
            raise RuntimeError(f"put Laplace transform not finite at theta = "
                               f"{', '.join(f'{th:g}' for th in bad)}")
        diag.update({"q1": hcs[0].q1, "eps": hcs[0].eps, "nodes": ys.size,
                     "h_tail_grids": grids})
    val = float(vals[0]) if np.ndim(theta) == 0 else vals
    return (val, diag) if with_diagnostics else val


def gaver_stehfest_weights(n_terms: int = 14, dps: int = 40) -> tuple:
    """Stehfest weights a_k, k = 1..n_terms (n_terms even), as mpmath floats.
    The tuple is computed once per (n_terms, dps) and shared."""
    if n_terms % 2:
        raise ValueError("n_terms must be even")
    return _stehfest_weights(n_terms, dps)


@lru_cache(maxsize=None)
def _stehfest_weights(n_terms: int, dps: int) -> tuple:
    with mp.workdps(dps):
        m = n_terms // 2
        out = []
        for k in range(1, n_terms + 1):
            s = mp.mpf(0)
            for j in range((k + 1) // 2, min(k, m) + 1):
                s += (mp.mpf(j) ** m * mp.factorial(2 * j)
                      / (mp.factorial(m - j) * mp.factorial(j)
                         * mp.factorial(j - 1) * mp.factorial(k - j)
                         * mp.factorial(2 * j - k)))
            out.append((-1) ** (k + m) * s)
        return tuple(out)


def _stehfest_abscissae(t: float, n_terms: int, dps: int = 40) -> tuple:
    """ln2/t and the points theta_k = k ln2/t, k = 1..n_terms, where
    gaver_stehfest calls the transform, as mpmath numbers at dps digits."""
    with mp.workdps(dps):
        ln2_t = mp.log(2) / t
        return ln2_t, [ln2_t * k for k in range(1, n_terms + 1)]


def gaver_stehfest(transform, t: float, n_terms: int = 14, dps: int = 40,
                   high_precision: bool = False) -> float:
    """Invert a Laplace transform on the real axis at time t.

    By default the transform is called with a float argument and only the
    alternating accumulation runs in extended precision.  With
    high_precision=True the transform receives an mpmath argument and must
    tolerate it; that mode exists for transforms with closed forms (the
    inversion error is then pure Stehfest truncation, which shrinks with
    n_terms instead of being drowned by float evaluation noise).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    weights = gaver_stehfest_weights(n_terms, dps)
    ln2_t, thetas = _stehfest_abscissae(t, n_terms, dps)
    with mp.workdps(dps):
        acc = mp.mpf(0)
        for a_k, theta in zip(weights, thetas):
            if high_precision:
                acc += a_k * transform(theta)
            else:
                acc += a_k * mp.mpf(transform(float(theta)))
        return float(acc * ln2_t)


def put_price(T: float, kappa: float, K: float, r0: Optional[float],
              params: ModelParams, n_terms: int = 14,
              eps: Optional[float] = None,
              with_diagnostics: bool = False):
    """Price of the running-minimum yield put by Gaver-Stehfest inversion of
    put_laplace at the maturity."""
    _check_finite(T=T)
    if T <= 0.0:
        raise ValueError("maturity must be positive")
    if n_terms < 4 or n_terms % 2:
        raise ValueError("n_terms must be even and at least 4 (the n - 2 "
                         "check needs two terms)")
    # one put_laplace call at every abscissa of the n-term sum, which the
    # n - 2 check reuses; any other theta raises KeyError
    thetas = [float(th) for th in _stehfest_abscissae(T, n_terms)[1]]
    vals, diag = put_laplace(thetas, kappa, K, r0, params, eps=eps,
                             with_diagnostics=True)
    diag["n_terms"] = n_terms
    if diag["void"]:
        return (0.0, diag) if with_diagnostics else 0.0
    values = dict(zip(thetas, vals.tolist()))
    price = gaver_stehfest(values.__getitem__, T, n_terms=n_terms)
    check = gaver_stehfest(values.__getitem__, T, n_terms=n_terms - 2)
    diag["stability_gap"] = abs(price - check)
    diag["transform_evals"] = len(values)
    if abs(price - check) > 0.05 * max(abs(price), 1e-12):
        warnings.warn(f"Gaver-Stehfest inversion unstable: n={n_terms} gives "
                      f"{price}, n={n_terms - 2} gives {check}")
    if price < 0.0 and abs(price) < 1e-12:
        price = 0.0
    return (price, diag) if with_diagnostics else price
