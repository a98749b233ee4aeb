"""Spectrally positive alpha-stable increments and Levy-measure utilities.

The jump driver Z has Levy measure

    mu_alpha(dz) = -dz / (cos(pi*alpha/2) * Gamma(-alpha) * z^(1+alpha)),   1 < alpha < 2,

concentrated on z > 0, and unit-time Laplace transform
E[exp(-q Z_1)] = exp(-q^alpha / cos(pi*alpha/2)).  At alpha = 2 the driver
degenerates to sqrt(2) times a Brownian motion and the jump measure is
undefined (pole of Gamma(-alpha)); callers must special-case the diffusion.

All thresholds here live in z-space (the jump mark), not in rate space: a
jump of the rate has size sigma_z * z, so a rate-space threshold ybar
corresponds to z-threshold ybar / sigma_z.

The measure integrals of the truncated mechanism are closed forms in the
upper incomplete gamma function: the big-jump Laplace tail is
K c^alpha Gamma(-alpha, c y), and the compensated small-jump integral is the
full-measure value K Gamma(-alpha) c^alpha less that tail and its
compensator.  Gamma(-alpha, x) comes from scipy's gammaincc by recurrence.
Below c y = 1 the small-jump closed form cancels, so its power series is
summed there instead.

The constants of the measure truncated at y (K y^-alpha, the series
coefficients, Gamma(-alpha), ...) are built once per (alpha, y) by the
cached _truncation, as Python floats, which big_jump_mean, the two
integrals and the truncated mechanism's psi, psi_prime and truncated_psi
all read.  A scalar argument to the small-jump integral evaluates only the
branch it falls in, in _small_jump_at, which truncated_psi calls too.  The
series is summed by Horner's rule, written out as one expression, which
takes only * and +; these round the same on a float as on an array
element, so a float below the cut stays a float and still equals an array
element bit for bit.  The closed form needs exp and a power, where
NumPy's SIMD loops may differ from libm by one ulp, so a scalar above the
cut goes through them on a one-element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammaincc
from scipy.special import gamma as gamma_fn


# the range each rule of _check_input adds to finiteness, on a float or an array
_IN_RANGE = {"finite": None, "nonnegative": lambda v: v >= 0.0,
             "positive": lambda v: v > 0.0}


def _check_input(name: str, value, rule: str) -> None:
    """The input rule of every public entry point of the package: value, a
    number or an array, must be finite in every entry, and then, by rule,
    nonnegative or positive; else ValueError names the input and its first
    bad entry.  Finiteness comes first because NaN fails every comparison,
    so a range check alone lets it through, and it would come back as a
    NaN result."""
    in_range = _IN_RANGE[rule]
    if isinstance(value, (int, float)):
        ok = math.isfinite(value) and (in_range is None or in_range(value))
    else:
        v = np.asarray(value, dtype=float)
        good = np.isfinite(v)
        if in_range is not None:
            good &= in_range(v)
        ok = good.all()
        if not ok:
            value = float(v[~good][0])
    if not ok:
        rule = "finite" if in_range is None else f"finite and {rule}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_alpha(alpha: float, allow_two: bool = True) -> None:
    hi_ok = alpha <= 2.0 if allow_two else alpha < 2.0
    if not (1.0 < alpha and hi_ok):
        bound = "(1, 2]" if allow_two else "(1, 2)"
        raise ValueError(f"alpha must be in {bound}, got {alpha}")


@dataclass(frozen=True)
class StableSpec:
    """Tail index of the driver; scale convention is fixed by the Laplace
    transform exp(-dt * q^alpha / cos(pi*alpha/2)) for an increment over dt."""

    alpha: float

    def __post_init__(self):
        _check_alpha(self.alpha)


def levy_density_coefficient(alpha: float) -> float:
    """K with mu_alpha(dz) = K * z^(-1-alpha) dz.

    Equals -1 / (cos(pi*alpha/2) * Gamma(-alpha)); by the reflection formula
    also (2/pi) * sin(pi*alpha/2) * Gamma(alpha + 1).
    """
    _check_alpha(alpha, allow_two=False)
    return -1.0 / (np.cos(np.pi * alpha / 2.0) * gamma_fn(-alpha))


def tail_constant(alpha: float) -> float:
    """C_alpha = (2/pi) * Gamma(alpha) * sin(pi*alpha/2), the big-jump mass scale."""
    _check_alpha(alpha, allow_two=False)
    return (2.0 / np.pi) * gamma_fn(alpha) * np.sin(np.pi * alpha / 2.0)


def levy_density(z, alpha: float):
    """Density of mu_alpha at z > 0; z may be an array."""
    _check_input("z", z, "positive")
    z = np.asarray(z, dtype=float)
    return levy_density_coefficient(alpha) * z ** (-1.0 - alpha)


def big_jump_mass(alpha: float, y: float) -> float:
    """nu(y) = mu_alpha((y, inf)) = C_alpha * y^(-alpha), a Python float;
    a threshold so small that nu(y) is not a finite float raises
    ValueError."""
    _check_alpha(alpha, allow_two=False)
    _check_input("threshold y", y, "positive")
    try:
        nu = float(tail_constant(alpha)) * y ** (-alpha)
    except OverflowError:
        nu = math.inf
    if not math.isfinite(nu):
        raise ValueError(f"threshold y = {y} is too small: nu(y) overflows")
    return nu


def big_jump_mean(alpha: float, y: float) -> float:
    """Theta(alpha, y) = int_y^inf z mu_alpha(dz)
    = (2/pi) * alpha * Gamma(alpha-1) * sin(pi*alpha/2) * y^(1-alpha)."""
    return _truncation(alpha, y).theta


# x below which the small-jump integral is summed as its series in k = 2..20:
# past k = 20 the terms are below x^2 / 20! < 1e-18 of the first
_SERIES_CUT = 1.0


class _Truncation(NamedTuple):
    """Constants of mu_alpha truncated at the jump mark y."""

    alpha: float
    k: float              # K
    k_y: float            # K y^(-alpha)
    y_1ma: float          # y^(1-alpha)
    theta: float          # Theta(alpha, y) = K y^(1-alpha) / (alpha-1)
    series: tuple         # (-1)^k / (k! (k-alpha)), k = 20 down to 2, for Horner
    gamma_neg: float      # Gamma(-alpha)
    gamma_2ma: float      # Gamma(2-alpha)
    inv_alpha: float      # 1/alpha
    alpha_m1: float       # alpha-1


# typed: y**(-alpha) rounds through NumPy for a NumPy-scalar alpha or y and
# through libm for floats, so each keeps an entry of its own
@lru_cache(maxsize=64, typed=True)
def _truncation(alpha: float, y: float) -> _Truncation:
    """The constants at (alpha, y), after checking both."""
    big_jump_mass(alpha, y)     # C_alpha < K < 1, so K y^(-alpha) is finite
    k = float(levy_density_coefficient(alpha))
    y_1ma = y ** (1.0 - alpha)
    series = tuple(float((-1.0) ** j / math.factorial(j) / (j - alpha))
                   for j in range(20, 1, -1))
    return _Truncation(float(alpha), k, float(k * y ** (-alpha)), float(y_1ma),
                       float(k * y_1ma / (alpha - 1.0)), series,
                       float(gamma_fn(-alpha)), float(gamma_fn(2.0 - alpha)),
                       float(1.0 / alpha), float(alpha - 1.0))


def _scaled_upper_gammas(tr: _Truncation, x):
    """(x^alpha Gamma(-alpha, x), x^(alpha-1) Gamma(1-alpha, x)) for x >= 0.

    Two recurrence steps Gamma(s, x) = (Gamma(s+1, x) - x^s e^(-x)) / s
    down from Gamma(2-alpha, x) = gammaincc(2-alpha, x) Gamma(2-alpha),
    scaled so that both stay finite at x = 0 (values 1/alpha, 1/(alpha-1)).
    Each step cancels about log10(x) digits for large x, where the values
    are below exp(-x)."""
    e = np.exp(-x)
    g1 = (e - x ** tr.alpha_m1 * (gammaincc(2.0 - tr.alpha, x)
                                  * tr.gamma_2ma)) / tr.alpha_m1
    return (e - x * g1) / tr.alpha, g1


def _small_jump_series(x, tr: _Truncation):
    """f(x) of the small-jump integral by its series, for 0 <= x < 1, by
    Horner's rule: x^2 (c_2 + x (c_3 + ... + x c_20)), written out as one
    expression from c_20 down.  x may be a float or an array; each element
    of an array rounds as the float would."""
    (c20, c19, c18, c17, c16, c15, c14, c13, c12, c11, c10, c9, c8, c7, c6,
     c5, c4, c3, c2) = tr.series
    return ((((((((((((((((((c20 * x + c19) * x + c18) * x + c17) * x + c16)
                         * x + c15) * x + c14) * x + c13) * x + c12) * x + c11)
                    * x + c10) * x + c9) * x + c8) * x + c7) * x + c6) * x + c5)
               * x + c4) * x + c3) * x + c2) * x * x


def _small_jump_closed(x: np.ndarray, tr: _Truncation) -> np.ndarray:
    """f(x) of the small-jump integral in closed form, for x >= 1."""
    return (x ** tr.alpha * tr.gamma_neg - _scaled_upper_gammas(tr, x)[0]
            + tr.inv_alpha - x / tr.alpha_m1)


def small_jump_compensated_integral(q, y: float, alpha: float, sigma_z: float):
    """int_0^y (exp(-q*sigma_z*z) - 1 + q*sigma_z*z) mu_alpha(dz), for q >= 0.

    q may be a NumPy array; the result then has its shape and equals the
    scalar value element for element.  With x = q*sigma_z*y the integral is
    K y^(-alpha) f(x), where in closed form

        f(x) = x^alpha (Gamma(-alpha) - Gamma(-alpha, x)) + 1/alpha - x/(alpha-1)

    and, expanding the integrand, f(x) = sum_{k>=2} (-x)^k / (k! (k-alpha)).
    f(x) ~ x^2 / (2 (2-alpha)) as x -> 0 while the closed-form terms stay of
    order one, so the closed form loses about 2*log10(1/x) digits (1e-8
    relative at x = 1e-4); below x = 1 the series is summed instead.
    """
    return _small_jump_integral(q, y, sigma_z, _truncation(alpha, y))


def _small_jump_at(x: float, tr: _Truncation) -> float:
    """K y^(-alpha) f(x) for a float x = q*sigma_z*y >= 0: the series below
    the cut, the closed form on a one-element array above it.  A NaN x
    falls to the closed form, which returns NaN."""
    if x < _SERIES_CUT:
        return tr.k_y * _small_jump_series(x, tr)
    return float(tr.k_y * _small_jump_closed(np.array([x]), tr)[0])


def _small_jump_integral(q, y: float, sigma_z: float, tr: _Truncation):
    """small_jump_compensated_integral from the constants tr at (alpha, y)."""
    if isinstance(q, float):
        if q < 0.0:
            raise ValueError("q must be nonnegative")
        return _small_jump_at(q * sigma_z * y, tr)
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0):
        raise ValueError("q must be nonnegative")
    x = q * sigma_z * y
    f = np.empty_like(x)
    low = x < _SERIES_CUT
    f[low] = _small_jump_series(x[low], tr)
    f[~low] = _small_jump_closed(x[~low], tr)
    out = tr.k_y * f
    return float(out) if out.ndim == 0 else out


def big_jump_laplace_tail(c: float, y: float, alpha: float) -> float:
    """int_y^inf exp(-c*z) mu_alpha(dz) = K c^alpha Gamma(-alpha, c*y), for
    c >= 0; at c = 0 it is nu(y)."""
    tr = _truncation(alpha, y)
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    g0, _ = _scaled_upper_gammas(tr, c * y)
    return float(tr.k_y * g0)


def sample_stable_increment(spec: StableSpec, dt: float, rng: np.random.Generator,
                            size: int):
    """Draw size increments Z_{t+dt} - Z_t, zero mean, spectrally positive.

    Uses the Chambers-Mallows-Stuck transform for S_alpha(dt^(1/alpha), 1, 0)
    in the 1-parametrization; for alpha > 1 that law already has mean zero.
    alpha = 2 is Gaussian with variance 2*dt.
    """
    _check_input("dt", dt, "positive")
    alpha = spec.alpha
    if alpha == 2.0:
        return rng.normal(0.0, np.sqrt(2.0 * dt), size=size)

    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    tb = np.tan(np.pi * alpha / 2.0)          # beta = 1
    b = np.arctan(tb) / alpha
    s = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
    x = (s * np.sin(alpha * (u + b)) / np.cos(u) ** (1.0 / alpha)
         * (np.cos(u - alpha * (u + b)) / w) ** ((1.0 - alpha) / alpha))
    return dt ** (1.0 / alpha) * x


def sample_pareto_tail(alpha: float, y: float, rng: np.random.Generator, size=None):
    """Jump marks above y under the normalized tail of mu_alpha: z = y * U^(-1/alpha)."""
    _check_alpha(alpha, allow_two=False)
    _check_input("y", y, "positive")
    u = rng.random(size)
    return y * u ** (-1.0 / alpha)


def sample_truncated_band(alpha: float, lo: float, hi: float,
                          rng: np.random.Generator, size=None):
    """Jump marks in (lo, hi) under mu_alpha restricted and normalized (inverse cdf)."""
    _check_alpha(alpha, allow_two=False)
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    u = rng.random(size)
    ratio = (lo / hi) ** alpha
    return lo * (1.0 - u * (1.0 - ratio)) ** (-1.0 / alpha)


def truncated_second_moment(alpha: float, eps: float) -> float:
    """int_0^eps z^2 mu_alpha(dz) = K * eps^(2-alpha) / (2-alpha)."""
    _check_alpha(alpha, allow_two=False)
    _check_input("eps", eps, "positive")
    return levy_density_coefficient(alpha) * eps ** (2.0 - alpha) / (2.0 - alpha)
