import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from alphacir.stable import (
    StableSpec,
    big_jump_laplace_tail,
    big_jump_mass,
    big_jump_mean,
    levy_density,
    levy_density_coefficient,
    sample_pareto_tail,
    sample_stable_increment,
    sample_truncated_band,
    small_jump_compensated_integral,
    tail_constant,
    truncated_second_moment,
)
from oracles import (
    big_jump_laplace_tail_quad,
    compensated_small_jump_quad,
    stable_laplace,
)

alphas = st.floats(min_value=1.05, max_value=1.95)
thresholds = st.floats(min_value=0.05, max_value=5.0)


@given(alphas, thresholds)
def test_big_jump_mass_integrates_density(alpha, y):
    direct, _ = quad(lambda z: levy_density(z, alpha), y, np.inf)
    assert big_jump_mass(alpha, y) == pytest.approx(direct, rel=1e-8)


@given(alphas, thresholds)
def test_big_jump_mean_integrates_density(alpha, y):
    direct, _ = quad(lambda z: z * levy_density(z, alpha), y, np.inf)
    assert big_jump_mean(alpha, y) == pytest.approx(direct, rel=1e-8)


def test_tail_constant_consistent_with_density_coefficient():
    # nu(y) = C_alpha y^{-alpha} and the density coefficient K satisfy
    # C_alpha = K / alpha
    for alpha in (1.2, 1.5, 1.8):
        assert tail_constant(alpha) == pytest.approx(
            levy_density_coefficient(alpha) / alpha, rel=1e-12)


@given(alphas, st.floats(min_value=0.1, max_value=20.0),
       st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=40)
def test_compensated_small_jump_integral_matches_quadrature(alpha, q, y):
    ours = small_jump_compensated_integral(q, y, alpha, sigma_z=1.0)
    assert ours == pytest.approx(compensated_small_jump_quad(q, y, alpha, 1.0),
                                 rel=1e-8, abs=1e-14)


@given(alphas, st.floats(min_value=0.1, max_value=10.0), thresholds)
@settings(max_examples=40)
def test_big_jump_laplace_tail_matches_quadrature(alpha, c, y):
    assert big_jump_laplace_tail(c, y, alpha) == pytest.approx(
        big_jump_laplace_tail_quad(c, y, alpha), rel=1e-7, abs=1e-14)


def _mp_levy_integrals(c, y, alpha):
    """60-digit small-jump integral and big-jump Laplace tail at c = q sigma_z,
    from K c^alpha (Gamma(-alpha) - Gamma(-alpha, c y)) + nu(y) - c Theta(y)
    and K c^alpha Gamma(-alpha, c y)."""
    with mp.workdps(60):
        a, c, y = mp.mpf(alpha), mp.mpf(c), mp.mpf(y)
        K = -1 / (mp.cos(mp.pi * a / 2) * mp.gamma(-a))
        tail = K * c ** a * mp.gammainc(-a, c * y)
        small = (K * c ** a * mp.gamma(-a) - tail + K * y ** -a / a
                 - c * K * y ** (1 - a) / (a - 1))
        return float(small), float(tail)


# sigma_z q y runs from 1e-7, where the closed form alone would cancel to a
# few digits, through the series cut-off at 1 to 1e3, where the tail
# underflows to 0 in double precision as its reference does
@pytest.mark.parametrize("q", [1e-6, 1e-3, 1.0, 100.0, 1e4])
def test_levy_integrals_match_mpmath(q):
    alpha, y, sigma_z = 1.5, 1.0, 0.1
    small, tail = _mp_levy_integrals(q * sigma_z, y, alpha)
    assert small_jump_compensated_integral(q, y, alpha, sigma_z) == \
        pytest.approx(small, rel=1e-12, abs=0.0)
    assert big_jump_laplace_tail(q * sigma_z, y, alpha) == \
        pytest.approx(tail, rel=1e-12, abs=0.0)


def test_levy_integrals_take_arrays():
    q = np.array([0.0, 1e-3, 9.0, 10.0, 11.0, 1e4])
    small = small_jump_compensated_integral(q, 1.0, 1.5, 0.1)
    assert small[0] == 0.0
    assert np.array_equal(
        small, [small_jump_compensated_integral(float(v), 1.0, 1.5, 0.1)
                for v in q])
    with pytest.raises(ValueError):
        small_jump_compensated_integral(-q, 1.0, 1.5, 0.1)
    assert big_jump_laplace_tail(0.0, 0.7, 1.5) == pytest.approx(
        big_jump_mass(1.5, 0.7), rel=1e-14)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_increment_sampler_laplace_transform(alpha, rng):
    dt = 1.0
    z = sample_stable_increment(StableSpec(alpha=alpha), dt, rng, size=200_000)
    for q in (0.5, 1.0):
        samples = np.exp(-q * z)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - stable_laplace(q, dt, alpha)) < 4.0 * se


def test_increment_sampler_time_scaling(rng):
    # increments over dt are dt^{1/alpha} copies of unit increments
    alpha, dt, q = 1.5, 0.01, 1.0
    z = sample_stable_increment(StableSpec(alpha=alpha), dt, rng, size=200_000)
    target = stable_laplace(q * dt ** (1.0 / alpha), 1.0, alpha)
    samples = np.exp(-q * z)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - target) < 4.0 * se


def test_pareto_tail_sampler_distribution(rng):
    alpha, y = 1.5, 0.7
    x = sample_pareto_tail(alpha, y, rng, size=200_000)
    assert x.min() >= y
    # exact survival at a few probe points
    for probe in (1.0, 2.0, 5.0):
        emp = np.mean(x > probe)
        exact = (probe / y) ** (-alpha)
        se = np.sqrt(exact * (1 - exact) / x.size)
        assert abs(emp - exact) < 4.0 * se + 1e-12


def test_truncated_band_sampler_second_moment(rng):
    alpha, lo, hi = 1.3, 0.01, 1.0
    x = sample_truncated_band(alpha, lo, hi, rng, size=200_000)
    assert lo <= x.min() and x.max() <= hi
    mass, _ = quad(lambda z: levy_density(z, alpha), lo, hi)
    m2, _ = quad(lambda z: z * z * levy_density(z, alpha), lo, hi)
    se = (x ** 2).std(ddof=1) / np.sqrt(x.size)
    assert abs(np.mean(x ** 2) - m2 / mass) < 4.0 * se


def test_truncated_second_moment_matches_quadrature():
    for alpha, eps in [(1.2, 0.01), (1.5, 0.1), (1.9, 1.0)]:
        direct, _ = quad(lambda z: z * z * levy_density(z, alpha), 0.0, eps)
        assert truncated_second_moment(alpha, eps) == pytest.approx(
            direct, rel=1e-9)


def test_alpha_validation():
    with pytest.raises(ValueError):
        StableSpec(alpha=0.9)
    with pytest.raises(ValueError):
        StableSpec(alpha=2.5)
