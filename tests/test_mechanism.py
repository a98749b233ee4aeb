import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphacir.mechanism import (
    ACCESSIBLE,
    INACCESSIBLE,
    JumpSpec,
    ModelParams,
    boundary_classification,
    change_of_measure,
    fixed_point_truncated,
    phi,
    psi,
    psi_prime,
    root_psi_equals_one,
    truncated_drift,
    truncated_level,
    truncated_psi,
)
from alphacir.stable import big_jump_laplace_tail, big_jump_mass, big_jump_mean

param_draws = st.builds(
    ModelParams,
    a=st.floats(min_value=0.01, max_value=1.0),
    b=st.floats(min_value=0.01, max_value=1.0),
    sigma=st.floats(min_value=0.0, max_value=1.0),
    sigma_z=st.floats(min_value=0.01, max_value=1.0),
    alpha=st.floats(min_value=1.05, max_value=1.95),
    r0=st.floats(min_value=0.0, max_value=1.0),
)


@given(param_draws)
def test_psi_and_phi_vanish_at_zero(p):
    assert psi(0.0, p) == 0.0
    assert phi(0.0, p) == 0.0


@given(param_draws, st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=50)
def test_phi_is_linear(p, q):
    assert phi(q, p) == pytest.approx(p.a * p.b * q, rel=1e-12, abs=0.0)


def test_alpha_two_mechanism_is_quadratic(bond_params):
    p = bond_params(alpha=2.0)
    s_eff2 = p.sigma ** 2 + 2.0 * p.sigma_z ** 2
    for q in (0.1, 1.0, 5.0):
        assert psi(q, p) == pytest.approx(p.a * q + 0.5 * s_eff2 * q * q,
                                          rel=1e-12)


# array psi must round exactly as the scalar path (libm pow): NumPy's SIMD
# power differs by one ulp on a few percent of points, which the Stehfest
# inversion of the put amplifies past 1e-9
Q_GRID = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 1000)))


# the truncated cases put sigma_z q y on both sides of the series cut-off
ARRAY_CASES = pytest.mark.parametrize("alpha, spec, overrides", [
    (1.5, JumpSpec.full(), {}),
    (1.2, JumpSpec.tempered(0.7), {}),
    (1.8, JumpSpec.tempered(0.0), {}),
    (2.0, JumpSpec.full(), {}),
    (1.5, JumpSpec.full(), {"sigma_z": 0.0}),
    (1.5, JumpSpec.truncated(1.0), {}),
    (1.9, JumpSpec.truncated(0.05), {}),
    (1.1, JumpSpec.truncated(0.5), {}),
    (1.25, JumpSpec.truncated(2.0), {}),
    (1.75, JumpSpec.truncated(10.0), {}),
])


@ARRAY_CASES
def test_array_psi_equals_scalar_psi(bond_params, alpha, spec, overrides):
    p = bond_params(alpha=alpha, **overrides)
    scalar = np.array([psi(float(q), p, spec) for q in Q_GRID])
    assert np.array_equal(psi(Q_GRID, p, spec), scalar)
    grid = Q_GRID[1:].reshape(4, -1)
    assert np.array_equal(psi(grid, p, spec), scalar[1:].reshape(4, -1))


@ARRAY_CASES
def test_array_psi_prime_equals_scalar_psi_prime(bond_params, alpha, spec,
                                                 overrides):
    p = bond_params(alpha=alpha, **overrides)
    scalar = np.array([psi_prime(float(q), p, spec) for q in Q_GRID])
    assert np.all(np.isfinite(scalar))
    assert np.array_equal(psi_prime(Q_GRID, p, spec), scalar)
    grid = Q_GRID[1:].reshape(4, -1)
    assert np.array_equal(psi_prime(grid, p, spec), scalar[1:].reshape(4, -1))


def test_truncated_psi_of_float_is_float(bond_params):
    # a float q stays a float through the truncated psi on both sides of
    # the series cut-off at sigma_z q y = 1 (sigma_z = 0.3, y = 1)
    p = bond_params(alpha=1.5)
    for q in (0.0, 1e-3, 3.0, 1e3):
        assert type(psi(q, p, JumpSpec.truncated(1.0))) is float


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_truncated_drift_rejects_non_finite_threshold(bond_params, bad):
    with pytest.raises(ValueError, match="finite and positive"):
        truncated_drift(bond_params(alpha=1.5), bad)


def test_array_psi_rejects_negative(bond_params):
    p = bond_params(alpha=1.5)
    for spec in (JumpSpec.full(), JumpSpec.truncated(1.0)):
        with pytest.raises(ValueError):
            psi(np.array([1.0, -1.0]), p, spec)


# every variant, and the diffusion that psi_prime special-cases
VARIANTS = pytest.mark.parametrize("alpha, spec", [
    (1.5, JumpSpec.full()), (1.5, JumpSpec.truncated(1.0)),
    (1.2, JumpSpec.tempered(0.7)), (1.8, JumpSpec.tempered(0.0)),
    (2.0, JumpSpec.full())])


@VARIANTS
def test_psi_prime_rejects_negative(bond_params, alpha, spec):
    # the full derivative of a negative q was complex, the truncated one NaN
    p = bond_params(alpha=alpha)
    for q in (-1.0, np.array([1.0, -1.0])):
        with pytest.raises(ValueError, match="q must be nonnegative"):
            psi_prime(q, p, spec)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_truncated_psi_equals_psi(jump_params, alpha):
    # sigma_z q y crosses the series cut-off 1 at q = 10 (sigma_z 0.1, y 1)
    p, y = jump_params(alpha=alpha), 1.0
    psi_y, spec = truncated_psi(p, y), JumpSpec.truncated(y)
    for q in (0.0, 1e-12, 0.5, 3.0, 9.999999, 10.0, 10.000001, 42.0, 1e4):
        assert psi_y(q) == psi(q, p, spec)
    assert np.isnan(psi_y(np.nan))
    with pytest.raises(ValueError, match="q must be nonnegative"):
        psi_y(-1e-9)


@given(param_draws, st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=50)
def test_full_minus_truncated_is_big_jump_tail(p, q, y):
    # removing the jumps above y (keeping their compensator as drift) changes
    # the mechanism by exactly the Laplace tail of the removed jumps
    lhs = psi(q, p, JumpSpec.full()) - psi(q, p, JumpSpec.truncated(y))
    rhs = big_jump_laplace_tail(q * p.sigma_z, y, p.alpha) \
        - big_jump_mass(p.alpha, y)
    assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-10)


def test_truncated_drift_and_level(jump_params):
    p = jump_params(alpha=1.5)
    y = 1.0
    a_t = truncated_drift(p, y)
    assert a_t == pytest.approx(p.a + p.sigma_z * big_jump_mean(p.alpha, y),
                                rel=1e-12)
    assert truncated_level(p, y) == pytest.approx(p.a * p.b / a_t, rel=1e-12,
                                                  abs=0.0)


@given(param_draws, st.floats(min_value=0.01, max_value=10.0),
       st.sampled_from([JumpSpec.full(), JumpSpec.truncated(0.5),
                        JumpSpec.truncated(20.0), JumpSpec.tempered(0.3)]))
@settings(max_examples=50)
def test_psi_prime_matches_finite_difference(p, q, spec):
    h = 1e-6 * max(q, 1.0)
    fd = (psi(q + h, p, spec) - psi(q - h, p, spec)) / (2.0 * h)
    assert psi_prime(q, p, spec) == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_root_psi_equals_one(bond_params):
    for alpha in (1.2, 1.5, 2.0):
        p = bond_params(alpha=alpha)
        q1 = root_psi_equals_one(p)
        assert psi(q1, p) == pytest.approx(1.0, abs=1e-10)


def test_fixed_point_truncated(jump_params):
    p = jump_params(alpha=1.5)
    y = 1.0
    l_star = fixed_point_truncated(p, y)
    nu = big_jump_mass(p.alpha, y)
    assert psi(l_star, p, JumpSpec.truncated(y)) == pytest.approx(nu,
                                                                  rel=1e-9)


def test_boundary_classification_cir_rule():
    # with no jumps the origin is inaccessible iff 2ab >= sigma^2
    tight = ModelParams(a=0.1, b=0.3, sigma=0.1, sigma_z=0.0, alpha=2.0,
                        r0=0.05)
    assert boundary_classification(tight) == INACCESSIBLE
    loose = ModelParams(a=0.1, b=0.01, sigma=0.5, sigma_z=0.0, alpha=2.0,
                        r0=0.05)
    assert boundary_classification(loose) == ACCESSIBLE


def test_change_of_measure_tilts_mechanism(bond_params):
    p = bond_params(alpha=1.5)
    new_p, new_spec = change_of_measure(p, eta=0.5, theta=0.2)
    assert new_spec.variant == "tempered"
    assert new_p.a > p.a  # exponential tilting strengthens mean reversion


def test_params_json_round_trip(bond_params):
    p = bond_params(alpha=1.5)
    doc = json.loads(json.dumps(p.to_json()))
    assert ModelParams.from_json(doc) == p


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["a", "b", "sigma", "sigma_z", "alpha", "r0"])
def test_params_reject_non_finite(field, bad):
    fields = dict(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, alpha=1.5, r0=0.05)
    with pytest.raises(ValueError):
        ModelParams(**{**fields, field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jump_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        JumpSpec.truncated(bad)
    with pytest.raises(ValueError):
        JumpSpec.tempered(bad)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(a=-0.1, b=0.3, sigma=0.1, sigma_z=0.3, alpha=1.5, r0=0.05)
    with pytest.raises(ValueError):
        ModelParams(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, alpha=2.5, r0=0.05)
