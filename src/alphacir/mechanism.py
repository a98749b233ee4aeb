"""Branching mechanism Psi, immigration rate Phi, roots and parameter transforms.

The short rate is characterized as a branching-with-immigration process whose
Laplace exponents are built from

    Psi(q)  = a q + sigma^2 q^2 / 2 - sigma_z^alpha q^alpha / cos(pi*alpha/2)
    Phi(q)  = a b q

with variants: truncated at a z-space threshold y (big jumps removed, their
compensator kept as extra drift) and exponentially tempered with rate theta.
Every variant has a closed form; the truncated one is

    Psi_trunc(q) = Psi(q) + nu(y) - K (sigma_z q)^alpha Gamma(-alpha, sigma_z q y)

(see the stable module for how it is evaluated).  psi and psi_prime take a
scalar or a NumPy array.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .stable import (
    _check_alpha,
    _scaled_upper_gammas,
    _truncation,
    big_jump_mass,
    big_jump_mean,
    small_jump_compensated_integral,
)

FULL = "full"
TRUNCATED = "truncated"
TEMPERED = "tempered"


@dataclass(frozen=True)
class ModelParams:
    """Model quintuple (a, b, sigma, sigma_z, alpha) plus the initial rate r0.

    a: mean-reversion speed (1/time), strictly positive
    b: long-run level (rate units)
    sigma: diffusion volatility
    sigma_z: jump scale
    alpha: tail index in (1, 2]
    r0: initial short rate
    """

    a: float
    b: float
    sigma: float
    sigma_z: float
    alpha: float
    r0: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.sigma, self.sigma_z,
                                       self.alpha, self.r0))):
            raise ValueError("model parameters must be finite")
        if self.a <= 0.0:
            raise ValueError("mean-reversion speed a must be > 0")
        if self.b < 0.0 or self.sigma < 0.0 or self.sigma_z < 0.0 or self.r0 < 0.0:
            raise ValueError("b, sigma, sigma_z, r0 must be nonnegative")
        _check_alpha(self.alpha)

    @property
    def is_diffusion(self) -> bool:
        """True when there is no jump component (alpha = 2 or sigma_z = 0)."""
        return self.alpha == 2.0 or self.sigma_z == 0.0

    @property
    def sigma_eff(self) -> float:
        """Effective CIR volatility: sqrt(sigma^2 + 2 sigma_z^2) at alpha = 2."""
        if self.alpha == 2.0:
            return float(np.sqrt(self.sigma ** 2 + 2.0 * self.sigma_z ** 2))
        return self.sigma

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "sigma": self.sigma,
                "sigma_z": self.sigma_z, "alpha": self.alpha, "r0": self.r0}

    @classmethod
    def from_json(cls, obj) -> "ModelParams":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(a=obj["a"], b=obj["b"], sigma=obj["sigma"],
                   sigma_z=obj["sigma_z"], alpha=obj["alpha"],
                   r0=obj.get("r0", 0.0))


@dataclass(frozen=True)
class JumpSpec:
    """Which jump mechanism is in force.

    variant 'full': the complete stable measure.
    variant 'truncated': jumps above the z-space threshold y removed, their
        compensator absorbed into the drift.
    variant 'tempered': measure exp(-theta*z) mu_alpha(dz); theta = 0
        coincides with 'full'.
    """

    variant: str = FULL
    y: Optional[float] = None
    theta: Optional[float] = None

    def __post_init__(self):
        if self.variant not in (FULL, TRUNCATED, TEMPERED):
            raise ValueError(f"unknown variant {self.variant!r}")
        if any(v is not None and not math.isfinite(v) for v in (self.y, self.theta)):
            raise ValueError("jump spec y and theta must be finite")
        if self.variant == TRUNCATED and (self.y is None or self.y <= 0.0):
            raise ValueError("truncated variant needs y > 0")
        if self.variant == TEMPERED and (self.theta is None or self.theta < 0.0):
            raise ValueError("tempered variant needs theta >= 0")

    @classmethod
    def full(cls) -> "JumpSpec":
        return cls(FULL)

    @classmethod
    def truncated(cls, y: float) -> "JumpSpec":
        return cls(TRUNCATED, y=y)

    @classmethod
    def tempered(cls, theta: float) -> "JumpSpec":
        return cls(TEMPERED, theta=theta)


@dataclass(frozen=True)
class MechanismReport:
    """Roots of the mechanism: x0 solves Psi(q) = 1 (also written q1 or v*),
    l_star_y solves nu(y) = Psi_trunc(q) for the truncated mechanism."""

    x0: float
    l_star_y: Optional[float] = None


def truncated_drift(params: ModelParams, y: float) -> float:
    """a_tilde = a + sigma_z * Theta(alpha, y): drift after absorbing the
    big-jump compensator."""
    return params.a + params.sigma_z * big_jump_mean(params.alpha, y)


def truncated_level(params: ModelParams, y: float) -> float:
    """b_tilde = a*b / a_tilde; the product a_tilde * b_tilde stays a*b."""
    return params.a * params.b / truncated_drift(params, y)


def _libm_pow(x: np.ndarray, p: float) -> np.ndarray:
    """x**p elementwise through libm pow, as a scalar float ** computes it.
    NumPy's SIMD power may differ by one ulp, which the Stehfest inversion
    of the put amplifies past 1e-9 (see the derivatives module)."""
    flat = map(math.pow, x.ravel().tolist(), itertools.repeat(p))
    return np.fromiter(flat, dtype=float, count=x.size).reshape(x.shape)


def psi(q, params: ModelParams, spec: JumpSpec = JumpSpec.full()):
    """Branching mechanism Psi(q) for q >= 0 in the requested variant.

    q may be a NumPy array; the result then has its shape and equals the
    scalar value element for element."""
    if isinstance(q, np.ndarray):
        if np.any(q < 0.0):
            raise ValueError("q must be nonnegative")
        power = _libm_pow
    else:
        if q < 0.0:
            raise ValueError("q must be nonnegative")
        if q == 0.0:
            return 0.0
        power = pow
    a, s, sz, alpha = params.a, params.sigma, params.sigma_z, params.alpha
    if params.is_diffusion:
        return a * q + 0.5 * params.sigma_eff ** 2 * q * q
    if spec.variant == TRUNCATED:
        return (truncated_drift(params, spec.y) * q + 0.5 * s * s * q * q
                + small_jump_compensated_integral(q, spec.y, alpha, sz))
    cos_a = np.cos(np.pi * alpha / 2.0)
    th = spec.theta
    if spec.variant == FULL or (spec.variant == TEMPERED and th == 0.0):
        return a * q + 0.5 * s * s * q * q - power(sz * q, alpha) / cos_a
    jump = -(power(sz * q + th, alpha) - th ** alpha
             - alpha * th ** (alpha - 1.0) * sz * q) / cos_a
    return a * q + 0.5 * s * s * q * q + jump


def psi_prime(q, params: ModelParams, spec: JumpSpec = JumpSpec.full()):
    """dPsi/dq for q >= 0 in closed form; q may be a NumPy array, as in psi.

    Removing the jumps above y adds sigma_z K (sigma_z q)^(alpha-1)
    Gamma(1-alpha, sigma_z q y) to the full derivative."""
    power = _libm_pow if isinstance(q, np.ndarray) else pow
    a, s, sz, alpha = params.a, params.sigma, params.sigma_z, params.alpha
    if params.is_diffusion:
        return a + params.sigma_eff ** 2 * q
    cos_a = np.cos(np.pi * alpha / 2.0)
    th = spec.theta
    if spec.variant == TEMPERED and th > 0.0:
        return (a + s * s * q
                - (alpha * sz * power(sz * q + th, alpha - 1.0)
                   - alpha * th ** (alpha - 1.0) * sz) / cos_a)
    full = a + s * s * q - alpha * sz ** alpha * power(q, alpha - 1.0) / cos_a
    if spec.variant == TRUNCATED:
        y = spec.y
        tr = _truncation(alpha, y)
        # a scalar q goes through the same NumPy loops as an array element
        _, g1 = _scaled_upper_gammas(tr, np.asarray(q * sz * y, dtype=float))
        return full + sz * tr.k * tr.y_1ma * g1
    return full


def phi(q: float, params: ModelParams) -> float:
    """Immigration rate Phi(q) = a*b*q (identical across variants)."""
    if q < 0.0:
        raise ValueError("q must be nonnegative")
    return params.a * params.b * q


def _root(f) -> float:
    """Root of an increasing f with f(0) < 0: bracket by doubling from q = 1
    until f changes sign, then Brent's method to a few ulp."""
    lo, hi = 0.0, 1.0
    while f(hi) < 0.0:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise ValueError("root bracketing exceeded bound; pathological parameters")
    return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def root_psi_equals_one(params: ModelParams,
                        spec: JumpSpec = JumpSpec.full()) -> float:
    """x0 = q1 with Psi(x0) = 1; unique since Psi is convex increasing with
    Psi(0) = 0 and unbounded."""
    return _root(lambda q: psi(q, params, spec) - 1.0)


def fixed_point_truncated(params: ModelParams, y: float) -> float:
    """l*_y with Psi_trunc(l*) = nu(y); Psi_trunc - nu is negative below the
    root and positive above it."""
    _check_alpha(params.alpha, allow_two=False)
    if params.sigma_z <= 0.0:
        raise ValueError("fixed point needs a jump component (sigma_z > 0)")
    spec = JumpSpec.truncated(y)
    nu = big_jump_mass(params.alpha, y)
    return _root(lambda q: psi(q, params, spec) - nu)


def mechanism_report(params: ModelParams, y: Optional[float] = None) -> MechanismReport:
    x0 = root_psi_equals_one(params)
    lstar = fixed_point_truncated(params, y) if y is not None else None
    return MechanismReport(x0=x0, l_star_y=lstar)


INACCESSIBLE = "inaccessible"
ACCESSIBLE = "accessible"


def boundary_classification(params: ModelParams) -> str:
    """Whether the rate can hit zero.

    alpha in (1,2): inaccessible iff 2ab >= sigma^2 (the jump part never
    forces the boundary; a pure-jump model with ab > 0 never reaches 0).
    alpha = 2: the classical criterion with the effective volatility,
    2ab >= sigma^2 + 2 sigma_z^2.
    """
    if params.alpha == 2.0:
        crit = params.sigma ** 2 + 2.0 * params.sigma_z ** 2
    else:
        crit = params.sigma ** 2
    return INACCESSIBLE if 2.0 * params.a * params.b >= crit else ACCESSIBLE


def change_of_measure(params: ModelParams, eta: float, theta: float):
    """Equivalent-measure parameter transform (exponential tilt of the noise).

    a' = a - sigma*eta - alpha*sigma_z*theta^(alpha-1)/cos(pi*alpha/2),
    b' = a*b/a'; the jump measure becomes tempered with rate theta
    (theta = 0 keeps the full stable measure).  Rejects a' <= 0.
    """
    if theta < 0.0:
        raise ValueError("tempering rate theta must be nonnegative")
    alpha = params.alpha
    tilt = 0.0
    if theta > 0.0 and params.sigma_z > 0.0:
        tilt = (alpha * params.sigma_z * theta ** (alpha - 1.0)
                / np.cos(np.pi * alpha / 2.0))
    a_new = params.a - params.sigma * eta - tilt
    if a_new <= 0.0:
        raise ValueError("transform gives nonpositive mean reversion a'")
    b_new = params.a * params.b / a_new
    new_params = ModelParams(a=a_new, b=b_new, sigma=params.sigma,
                             sigma_z=params.sigma_z, alpha=alpha, r0=params.r0)
    spec = JumpSpec.full() if theta == 0.0 else JumpSpec.tempered(theta)
    return new_params, spec
