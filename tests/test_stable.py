import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from alphacir.stable import (
    StableSpec,
    _small_jump_series,
    _truncation,
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
    small_jump_series_loop,
    stable_laplace,
)

alphas = st.floats(min_value=1.05, max_value=1.95)
thresholds = st.floats(min_value=0.05, max_value=5.0)


@given(alphas, thresholds)
def test_big_jump_mass_integrates_density(alpha, y):
    direct, _ = quad(lambda z: levy_density(z, alpha), y, np.inf)
    assert big_jump_mass(alpha, y) == pytest.approx(direct, rel=1e-8, abs=0.0)


@given(alphas, thresholds)
def test_big_jump_mean_integrates_density(alpha, y):
    direct, _ = quad(lambda z: z * levy_density(z, alpha), y, np.inf)
    assert big_jump_mean(alpha, y) == pytest.approx(direct, rel=1e-8, abs=0.0)


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


# the series side, summed by Horner's rule, over the range of alpha and of
# x = sigma_z q y below the cut at 1 (y = 0.5 and sigma_z = 1 make x exact)
@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
@pytest.mark.parametrize("x", [1e-8, 1e-4, 0.3, 0.999])
def test_small_jump_series_matches_mpmath(alpha, x):
    q, y = 2.0 * x, 0.5
    small, _ = _mp_levy_integrals(q, y, alpha)
    ours = small_jump_compensated_integral(q, y, alpha, 1.0)
    assert type(ours) is float
    assert ours == pytest.approx(small, rel=1e-14, abs=0.0)


# the series written out as one Horner expression against the loop that
# summed it before: the same operations in the same order, so the same bits,
# on a float and on each element of an array, from the smallest subnormal to
# the largest float below the cut
@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
def test_small_jump_series_equals_loop_form(alpha):
    tr = _truncation(alpha, 0.5)
    xs = [0.0, 5e-324, 1e-8, 0.3, 1.0 - 2.0 ** -53]
    for x in xs:
        ours = _small_jump_series(x, tr)
        assert type(ours) is float
        assert ours == small_jump_series_loop(x, tr.series)
    arr = np.array(xs)
    assert np.array_equal(_small_jump_series(arr, tr),
                          small_jump_series_loop(arr, tr.series))
    assert np.array_equal(_small_jump_series(arr, tr),
                          [_small_jump_series(x, tr) for x in xs])


def test_levy_integrals_take_arrays():
    q = np.array([0.0, 1e-3, 9.0, 10.0, 11.0, 1e4])
    small = small_jump_compensated_integral(q, 1.0, 1.5, 0.1)
    assert small[0] == 0.0
    assert np.array_equal(
        small, [small_jump_compensated_integral(float(v), 1.0, 1.5, 0.1)
                for v in q])
    # x = 1 - 2^-53 (series) and x = 1 (closed form) on either side of the cut
    edge = np.array([2.0 - 2.0 ** -52, 2.0])
    for alpha in (1.05, 1.5, 1.95):
        small = small_jump_compensated_integral(edge, 0.5, alpha, 1.0)
        assert np.array_equal(
            small, [small_jump_compensated_integral(float(v), 0.5, alpha, 1.0)
                    for v in edge])
    with pytest.raises(ValueError):
        small_jump_compensated_integral(-q, 1.0, 1.5, 0.1)
    assert big_jump_laplace_tail(0.0, 0.7, 1.5) == pytest.approx(
        big_jump_mass(1.5, 0.7), rel=1e-14)


@pytest.mark.parametrize("bad, match", [
    pytest.param(bad, "finite and positive", id=str(bad))
    for bad in (np.nan, np.inf, 0.0, -1.0)] + [
    # finite and positive, but nu(y) = C_alpha y^(-alpha) is not a float
    pytest.param(1e-300, "too small", id="1e-300")])
def test_measure_functions_reject_bad_threshold(bad, match):
    size = _truncation.cache_info().currsize
    for call in (lambda: big_jump_mass(1.5, bad),
                 lambda: big_jump_mean(1.5, bad),
                 lambda: big_jump_laplace_tail(0.5, bad, 1.5),
                 lambda: small_jump_compensated_integral(1.0, bad, 1.5, 0.1)):
        with pytest.raises(ValueError, match=match):
            call()
    assert _truncation.cache_info().currsize == size


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0], ids=str)
def test_levy_density_rejects_bad_point(bad):
    # a NaN point came back as NaN, a negative one as NaN with a warning
    with pytest.raises(ValueError, match="z must be finite and positive"):
        levy_density(bad, 1.5)
    with pytest.raises(ValueError, match="z must be finite and positive"):
        levy_density(np.array([1.0, bad]), 1.5)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_increment_sampler_laplace_transform(alpha, rng):
    dt = 1.0
    z = sample_stable_increment(StableSpec(alpha=alpha), dt, rng, size=200_000)
    for q in (0.5, 1.0):
        samples = np.exp(-q * z)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - stable_laplace(q, dt, alpha)) < 4.0 * se


@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
def test_increment_sampler_rejects_non_positive_step(rng, dt):
    with pytest.raises(ValueError):
        sample_stable_increment(StableSpec(alpha=1.5), dt, rng, size=4)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_increment_sampler_rejects_infinite_step(rng, alpha):
    # an infinite step would come back as +-inf draws
    with pytest.raises(ValueError, match="finite"):
        sample_stable_increment(StableSpec(alpha=alpha), float("inf"), rng,
                                size=4)


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
