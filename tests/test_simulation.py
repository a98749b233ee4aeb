import io
import tracemalloc

import numpy as np
import pytest
from oracles import root_euler_paths

from alphacir.jumps import lou_first_jump_cdf
from alphacir.mechanism import truncated_drift
from alphacir.sim import (
    _BLOCK,
    _CSV_ROWS,
    _RootStep,
    _ThinnedStep,
    _run,
    Path,
    SimConfig,
    first_large_jump,
    first_passage_thinned,
    simulate_hawkes,
    simulate_hawkes_batch,
    simulate_lou,
    simulate_lou_batch,
    simulate_root,
    simulate_root_batch,
    simulate_thinned,
    simulate_thinned_batch,
    write_csv,
)
from alphacir.stable import (
    StableSpec,
    big_jump_mass,
    sample_stable_increment,
    truncated_second_moment,
)


def test_config_validation(jump_params):
    with pytest.raises(ValueError):
        SimConfig(dt=-1e-3)
    # the thinned and LOU paths need a mark threshold
    with pytest.raises(ValueError, match="threshold"):
        simulate_thinned(jump_params(), SimConfig())
    with pytest.raises(ValueError, match="threshold"):
        simulate_lou(jump_params(), SimConfig())


def test_root_path_shape_and_positivity(bond_params):
    p = bond_params(alpha=1.5)
    config = SimConfig(dt=1e-3, horizon=2.0, seed=4)
    path = simulate_root(p, config)
    assert path.times.shape == path.values.shape == (2001,)
    assert path.values[0] == p.r0
    assert np.all(path.values >= 0.0)


def test_root_scheme_deterministic_given_seed(bond_params):
    p = bond_params(alpha=1.2)
    config = SimConfig(dt=1e-3, horizon=1.0, seed=9)
    a = simulate_root(p, config)
    b = simulate_root(p, config)
    np.testing.assert_array_equal(a.values, b.values)


def test_root_batch_antithetic_pairs_gaussian_only(bond_params):
    # antithetic batches still average to the same law; just check shape
    # bookkeeping and that the two half-batches differ
    p = bond_params(alpha=2.0, sigma_z=0.0)
    rng = np.random.default_rng(0)
    r, integ = simulate_root_batch(p, 1e-3, 1.0, 2000, rng, antithetic=True)
    assert r.shape == integ.shape == (2000,)
    assert not np.allclose(r[:1000], r[1000:])


def test_thinned_records_events_above_threshold(jump_params):
    p = jump_params(alpha=1.2)
    config = SimConfig(dt=1e-3, horizon=20.0, y=0.5, seed=21)
    path = simulate_thinned(p, config)
    assert np.all(path.values >= 0.0)
    for t, size in path.events:
        assert 0.0 < t <= 20.0
        assert size > p.sigma_z * 0.5


def test_thinned_single_path_returns_kernel_events(jump_params):
    # the events are the kernel's own draws: one per big jump it counted,
    # each larger than sigma_z * y and timed strictly inside its step
    p = jump_params(alpha=1.2)
    config = SimConfig(dt=1e-3, horizon=20.0, y=0.5, seed=21)
    path = simulate_thinned(p, config)
    n_ev = simulate_thinned_batch(p, 0.5, 1e-3, 20.0, 1,
                                  np.random.default_rng(21))[3]
    assert len(path.events) == n_ev[0] > 0
    for t, size in path.events:
        assert size > p.sigma_z * 0.5
        k = np.searchsorted(path.times, t) - 1
        assert path.times[k] < t < path.times[k + 1]


def test_root_running_min_matches_kept_paths(bond_params):
    p = bond_params(alpha=1.5)
    r, integ, run_min = simulate_root_batch(p, 1e-3, 0.5, 200,
                                            np.random.default_rng(2),
                                            running_min=True)
    r2, integ2, *_, (out, _) = _run(_RootStep(p, 1e-3, False), p.r0, 0.5,
                                    200, np.random.default_rng(2),
                                    keep_paths=True)
    np.testing.assert_array_equal(run_min, out.min(axis=1))
    np.testing.assert_array_equal(r, r2)
    np.testing.assert_array_equal(integ, integ2)


def _stream_increments(p, dt, n_steps, n, rng, antithetic):
    """The root kernel's draws in their documented order: a normal and a
    stable stream, each refilled _BLOCK at a time at the step that runs it
    dry, the normals before the stable increments; a step takes n // 2
    normals g when antithetic and drives its paths with [g, -g]."""
    m, spec = (n // 2 if antithetic else n), StableSpec(p.alpha)
    gauss, dz = [], []
    for k in range(1, n_steps + 1):
        if len(gauss) * _BLOCK < k * m:
            gauss.append(rng.standard_normal(_BLOCK))
        if len(dz) * _BLOCK < k * n:
            dz.append(sample_stable_increment(spec, dt, rng, size=_BLOCK))
    g = np.concatenate(gauss)[:n_steps * m].reshape(n_steps, m)
    if antithetic:
        g = np.concatenate([g, -g], axis=1)
    return g, np.concatenate(dz)[:n_steps * n].reshape(n_steps, n)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("n, n_steps, antithetic", [
    (1, _BLOCK + 7, False),
    (3, _BLOCK // 3 + 5, False),
    (4, _BLOCK // 2 + 9, True),
], ids=["n1", "n3", "n4_antithetic"])
def test_root_batch_matches_euler_oracle_across_blocks(bond_params, alpha, n,
                                                       n_steps, antithetic):
    # every horizon here runs both streams past a refill, the antithetic
    # one through two stable refills per normal refill
    p, dt = bond_params(alpha=alpha), 1e-3
    r, integ, run_min, *_, (paths, _) = _run(
        _RootStep(p, dt, antithetic), p.r0, n_steps * dt, n,
        np.random.default_rng(17), running_min=True, keep_paths=True)
    incr = _stream_increments(p, dt, n_steps, n, np.random.default_rng(17),
                              antithetic)
    want = root_euler_paths(p, dt, *incr)
    assert paths.shape == (n, n_steps + 1)
    for g, w in zip((r, integ, run_min, paths), want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, antithetic", [
    (1, False), (3000, False), (20_000, False), (64, True),
], ids=["n1", "n3000", "n20000", "n64_antithetic"])
def test_root_batch_draws_a_prefix_of_a_longer_run(bond_params, n, antithetic):
    # the first k steps draw the same variates whatever the horizon
    p, dt = bond_params(alpha=1.5), 1e-2
    r, integ, run_min, *_, (paths, _) = _run(
        _RootStep(p, dt, antithetic), p.r0, 0.2, n, np.random.default_rng(23),
        running_min=True, keep_paths=True)
    *_, (longer, _) = _run(_RootStep(p, dt, antithetic), p.r0, 0.5, n,
                           np.random.default_rng(23), keep_paths=True)
    head = longer[:, :paths.shape[1]]
    np.testing.assert_array_equal(paths, head)
    np.testing.assert_array_equal(r, head[:, -1])
    np.testing.assert_array_equal(run_min, head.min(axis=1))
    np.testing.assert_allclose(
        integ, 0.5 * dt * (head[:, :-1] + head[:, 1:]).sum(axis=1),
        rtol=1e-12)


def test_root_batch_of_no_steps_draws_nothing(bond_params):
    p, rng = bond_params(alpha=1.5), np.random.default_rng(3)
    before = rng.bit_generator.state
    r, integ = simulate_root_batch(p, 1e-3, 0.0, 8, rng)
    assert rng.bit_generator.state == before
    np.testing.assert_array_equal(r, p.r0)
    np.testing.assert_array_equal(integ, 0.0)


def test_first_passage_is_a_prefix_of_a_longer_run(jump_params):
    # the step draws in one order whatever the horizon, so a run to H finds
    # the first-event times of a run to 2H that fall before H
    p = jump_params(alpha=1.5)
    short = first_passage_thinned(p, 1.0, 0.01, 10.0, 500,
                                  np.random.default_rng(11))
    long = first_passage_thinned(p, 1.0, 0.01, 20.0, 500,
                                 np.random.default_rng(11))
    assert short.censored > 0.5
    hit = np.isfinite(short.first)
    np.testing.assert_array_equal(short.first[hit], long.first[hit])
    assert np.all(np.isin(long.active, short.active))
    assert np.any((long.first > 10.0) & (long.first < 20.0))
    assert np.all(np.isinf(long.first[long.active]))


def test_first_passage_shares_the_thinned_step(jump_params):
    # one path draws the same variates in the batch and the first-passage
    # loop until its first event, so both report the same first-event time
    p = jump_params(alpha=1.5)
    hits = 0
    for seed in range(6):
        fp = first_passage_thinned(p, 1.0, 0.01, 20.0, 1,
                                   np.random.default_rng(seed))
        batch = simulate_thinned_batch(p, 1.0, 0.01, 20.0, 1,
                                       np.random.default_rng(seed))
        assert fp.first[0] == batch[2][0]
        hits += np.isfinite(fp.first[0])
    assert hits > 0


def test_first_large_jump_helper():
    path = Path(times=np.arange(3.0), values=np.zeros(3),
                events=[(1.5, 0.2), (0.7, 0.4)])
    assert first_large_jump(path) == 0.7
    assert first_large_jump(Path(np.arange(3.0), np.zeros(3))) is None


def test_thinned_batch_first_event_consistent(jump_params):
    p = jump_params(alpha=1.5)
    rng = np.random.default_rng(3)
    r, integ, first, n_ev = simulate_thinned_batch(p, 1.0, 2e-3, 5.0, 4000,
                                                   rng)
    hit = np.isfinite(first)
    assert np.all(first[hit] <= 5.0)
    assert np.all(n_ev[hit] >= 1)
    assert np.all(n_ev[~hit] == 0)


def test_lou_intensity_not_clamped_at_zero(jump_params):
    # the frozen-coefficient comparison process may go negative; it must not
    # be clipped, that is the point of the comparison.  Its noise does not
    # depend on the state, so one step with the same draws maps -1 and 0.5
    # to values exactly 1.5 (1 - a dt) apart, the first below 0
    p, dt = jump_params(alpha=1.5), 1e-2
    ends = []
    for start in (-1.0, 0.5):
        step = _ThinnedStep(p, 1.0, dt, frozen=True)
        rng = np.random.default_rng(2)
        gap = step.levels(500, rng)
        ends.append(step(np.full(500, start), gap, 0.0, rng)[0])
    assert np.all(ends[0] < 0.0)
    np.testing.assert_allclose(ends[1] - ends[0], 1.5 * (1.0 - p.a * dt),
                               rtol=1e-12)
    # and the batch loop from r0 reaches negative values
    *_, (paths, _) = _run(_ThinnedStep(p, 1.0, dt, frozen=True), p.r0, 30.0,
                          64, np.random.default_rng(2), integral=False,
                          keep_paths=True)
    assert paths.min() < 0.0


def test_lou_single_path_reports_every_jump(jump_params):
    # the LOU path reports each big jump the kernel drew, with its
    # rate-space size, and its earliest event is the batch's first-event time
    p = jump_params(alpha=1.5)
    many = 0
    for seed in range(10):
        config = SimConfig(dt=1e-2, horizon=20.0, seed=seed, y=1.0)
        path = simulate_lou(p, config)
        log = []
        _run(_ThinnedStep(p, 1.0, 1e-2, frozen=True), p.r0, 20.0, 1,
             np.random.default_rng(seed), integral=False, events=log)
        _, first = simulate_lou_batch(p, 1.0, 1e-2, 20.0, 1,
                                      np.random.default_rng(seed))
        assert path.events == [(t, size) for _, t, size in log]
        assert all(size > p.sigma_z * 1.0 for _, size in path.events)
        if path.events:
            assert path.events[0][0] == first_large_jump(path) == first[0]
        else:
            assert np.isinf(first[0])
        many += len(path.events) > 1
    assert many > 0


@pytest.mark.parametrize("frozen", [False, True], ids=["thinned", "lou"])
def test_thinned_step_one_step_law(jump_params, frozen):
    # one step from a fixed r with the big jumps switched off (levels of
    # +inf): mean ab dt - a_tilde r dt, variance
    # (sigma^2 + sigma_z^2 int_0^y z^2 mu) r dt.  A narrow step leaves part
    # of each stream behind, so the wide steps after it, each over more
    # paths than _BLOCK, cross a refill.  At 16 wide steps a 10 % error in
    # the Gaussian variance is about 6 SE and a 5 % error in the mid-band
    # marks about 9 SE of the mean
    p, y, dt = jump_params(alpha=1.5), 1.0, 1e-2
    step = _ThinnedStep(p, y, dt, frozen=frozen)
    rng = np.random.default_rng(31)
    step(np.full(_BLOCK // 2, p.r0), np.full(_BLOCK // 2, np.inf), 0.0, rng)
    n = _BLOCK + _BLOCK // 4
    incr = np.concatenate([
        step(np.full(n, p.r0), np.full(n, np.inf), dt * k, rng)[0] - p.r0
        for k in range(1, 17)])
    mean = (p.a * p.b - truncated_drift(p, y) * p.r0) * dt
    var = ((p.sigma ** 2 + p.sigma_z ** 2 * truncated_second_moment(p.alpha, y))
           * p.r0 * dt)
    dev = incr - incr.mean()
    assert abs(incr.mean() - mean) < 4.0 * incr.std(ddof=1) / np.sqrt(incr.size)
    assert abs(dev.var(ddof=1) - var) < 4.0 * (dev ** 2).std() / np.sqrt(incr.size)


def test_lou_one_step_counts_every_arrival(jump_params):
    # one step of length T with r0 * nu_big * T = 1: the big jumps are
    # Poisson(1) per path, so the mean number of logged events is 1; counting
    # at most one arrival per step would give 1 - exp(-1)
    p = jump_params(alpha=1.2)
    T = 1.0 / (p.r0 * big_jump_mass(p.alpha, 1.0))
    n_paths, log = 4000, []
    _run(_ThinnedStep(p, 1.0, T, frozen=True), p.r0, T, n_paths,
         np.random.default_rng(17), integral=False, events=log)
    counts = np.bincount([i for i, _, _ in log], minlength=n_paths)
    se = counts.std(ddof=1) / np.sqrt(n_paths)
    assert abs(counts.mean() - 1.0) < 4.0 * se
    assert counts.max() > 2


def test_lou_first_event_times_follow_exact_law(jump_params):
    # at dt = 1 a path meets a big jump in most steps (r0 * nu_big = 0.77);
    # the clock still places the first one at its exact exponential time
    p = jump_params(alpha=1.2)
    y_bar = 0.02
    _, first = simulate_lou_batch(p, y_bar / p.sigma_z, 1.0, 2.0, 4000,
                                  np.random.default_rng(5))
    for t in (0.25, 0.5, 1.5):
        hit = first <= t
        se = hit.std(ddof=1) / np.sqrt(hit.size)
        assert abs(hit.mean() - lou_first_jump_cdf(y_bar, t, p)) < 4.0 * se


@pytest.mark.parametrize("frozen", [False, True],
                         ids=["simulate_thinned_batch", "simulate_lou_batch"])
def test_events_lie_in_their_own_step(jump_params, frozen):
    # the event log of the batch loop that both batches run: the first k
    # steps draw the same variates whatever the horizon, so the events a
    # run to (k + 1) dt adds to a run to k dt are those of step k
    p, dt = jump_params(alpha=1.2), 1.0
    logs = []
    for k in range(5):
        logs.append([])
        _run(_ThinnedStep(p, 0.2, dt, frozen=frozen), p.r0, k * dt, 200,
             np.random.default_rng(9), events=logs[-1])
    repeats = 0
    for k in range(4):
        before, after = logs[k], logs[k + 1]
        assert after[:len(before)] == before
        new = after[len(before):]
        assert all(k * dt <= t < (k + 1) * dt for _, t, _ in new)
        repeats += len(new) - len({i for i, _, _ in new})
    assert repeats > 0


@pytest.mark.parametrize("batch", [
    lambda p, *args: simulate_root_batch(p, *args, running_min=True),
    lambda p, *args: simulate_thinned_batch(p, 1.0, *args),
    lambda p, *args: simulate_lou_batch(p, 1.0, *args),
], ids=["simulate_root_batch", "simulate_thinned_batch", "simulate_lou_batch"])
def test_batches_of_no_paths(jump_params, batch):
    out = batch(jump_params(alpha=1.5), 1e-2, 0.1, 0, np.random.default_rng(0))
    assert len(out) >= 2 and all(a.shape == (0,) for a in out)


@pytest.mark.parametrize("batch", [simulate_thinned_batch, simulate_lou_batch])
@pytest.mark.parametrize("y", [np.inf, np.nan, 0.0, -1.0])
def test_jump_kernels_reject_bad_threshold(jump_params, batch, y):
    with pytest.raises(ValueError, match="threshold"):
        batch(jump_params(alpha=1.5), y, 1e-2, 1.0, 4,
              np.random.default_rng(0))


@pytest.mark.parametrize("run", [
    lambda p, rng: simulate_thinned_batch(p, 1e-8, 1e-3, 0.01, 1, rng),
    lambda p, rng: first_passage_thinned(p, 1e-8, 1e-3, 0.01, 1, rng),
    lambda p, rng: simulate_lou_batch(p, 1e-8, 1e-3, 0.01, 1, rng),
], ids=["thinned", "first_passage", "lou"])
def test_mid_band_overflow_raises_before_drawing(bond_params, run):
    # at y = 1e-8 a step of one path at r0 0.05 expects about 2e10 mid-band
    # jumps, whose keys alone would take 160 GB
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="mid-band overflow guard"):
            run(bond_params(alpha=1.5), np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("run", [
    lambda p, dt, h, rng: simulate_root_batch(p, dt, h, 4, rng),
    lambda p, dt, h, rng: simulate_thinned_batch(p, 1.0, dt, h, 4, rng),
    lambda p, dt, h, rng: first_passage_thinned(p, 1.0, dt, h, 4, rng),
    lambda p, dt, h, rng: simulate_lou_batch(p, 1.0, dt, h, 4, rng),
], ids=["root", "thinned", "first_passage", "lou"])
@pytest.mark.parametrize("dt, horizon", [(1e-2, np.inf), (0.0, 1.0),
                                         # 1e15 steps, 7 PiB of time points
                                         (1e-3, 1e12)])
def test_step_count_must_be_finite(jump_params, run, dt, horizon):
    p, rng = jump_params(alpha=1.5), np.random.default_rng(0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="step count"):
            run(p, dt, horizon, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_hawkes_rescaled_mean_near_limit():
    rng = np.random.default_rng(8)
    lam = simulate_hawkes_batch(0.1, 0.3, 0.3, 1.0, 50, 20_000, rng)
    target = 0.3 * (1.0 - np.exp(-0.1))
    se = lam.std(ddof=1) / np.sqrt(lam.size)
    assert abs(lam.mean() - target) < 4.0 * se


def test_hawkes_single_path_grid():
    path = simulate_hawkes(0.1, 0.3, 0.3, 1.0, n=10, seed=5)
    assert path.times[0] == 0.0
    assert path.times[-1] == pytest.approx(1.0)
    assert np.all(path.values >= 0.0)


# Pinned outputs of the three jump-step batches at small fixed seeds; 1e-12
# relative leaves room for last-ulp differences of libm and SIMD math on
# other NumPy builds while any change of draws shows.


def _pinned(got, want):
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha, n, antithetic, want", [
    (1.5, 10_000, False,
     [513.79438700175, 25.3077785202398, 438.4131907073979]),
    (1.2, 16_384, True,
     [807.3230390258989, 40.722465830789645, 732.9532099391429]),
    (2.0, 20_000, False,
     [1025.1224489561293, 50.637532621800354, 770.9254434746153]),
    (1.5, 32_768, True,
     [1662.2757397148234, 82.496001505223, 1433.2972625307934]),
])
def test_wide_root_batch_pinned(bond_params, alpha, n, antithetic, want):
    # a root batch of at least _BLOCK paths (2 * _BLOCK antithetic) refills
    # its streams at every step, so it draws each step's normals and then
    # its stable increments in one call each
    r, integ, run_min = simulate_root_batch(
        bond_params(alpha=alpha), 1e-2, 0.05, n, np.random.default_rng(5),
        antithetic=antithetic, running_min=True)
    _pinned([r.sum(), integ.sum(), run_min.sum()], want)


def test_thinned_batch_pinned(jump_params):
    r, integ, first, n_ev = simulate_thinned_batch(
        jump_params(alpha=1.5), 0.5, 1e-2, 10.0, 64, np.random.default_rng(1))
    hit = np.isfinite(first)
    assert (hit.sum(), n_ev.sum()) == (40, 125)
    _pinned([r.sum(), integ.sum(), first[hit].sum()],
            [7.63012192378348, 97.89019257897802, 115.29123802153723])


def test_first_passage_pinned(jump_params):
    st = first_passage_thinned(jump_params(alpha=1.5), 1.0, 1e-2, 20.0, 200,
                               np.random.default_rng(2))
    hit = np.isfinite(st.first)
    assert (hit.sum(), st.active.size) == (90, 110)
    _pinned([st.first[hit].sum()], [599.0616423113764])


def test_lou_batch_pinned(jump_params):
    lam, first = simulate_lou_batch(jump_params(alpha=1.5), 1.0, 1e-2, 20.0,
                                    200, np.random.default_rng(3))
    hit = np.isfinite(first)
    assert hit.sum() == 149
    _pinned([lam.sum(), (lam ** 2).sum(), lam.min(), first[hit].sum()],
            [23.068863297716504, 55.349469870924956, -0.46710552435975083,
             1211.972001975848])


def test_path_csv_round_trip(tmp_path):
    path = Path(times=np.array([0.0, 0.5]), values=np.array([0.1, 0.2]))
    f = tmp_path / "p.csv"
    path.to_csv(f)
    arr = np.loadtxt(f, delimiter=",", skiprows=1)
    np.testing.assert_allclose(arr[:, 1], path.values)


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7e308]


@pytest.mark.parametrize("rows", [0, 1, _CSV_ROWS + 1])
@pytest.mark.parametrize("cols", [2, 5])
def test_write_csv_is_savetxt(tmp_path, rows, cols):
    # 0 rows is the header-only events file; _CSV_ROWS + 1 rows take two
    # format blocks
    arr = np.random.default_rng(rows + cols).standard_normal((rows, cols))
    arr.flat[:min(arr.size, len(_SPECIAL))] = _SPECIAL[:arr.size]
    header = ",".join(f"c{j}" for j in range(cols))
    want = io.BytesIO()
    np.savetxt(want, arr, delimiter=",", header=header, comments="")
    write_csv(tmp_path / "a.csv", header, arr)
    assert (tmp_path / "a.csv").read_bytes() == want.getvalue()


@pytest.mark.parametrize("alpha", [1.2, 1.8])
@pytest.mark.parametrize("single, step, batch", [
    (simulate_root, lambda p, y, dt: _RootStep(p, dt, False),
     lambda p, y, dt, T, rng: simulate_root_batch(p, dt, T, 1, rng)),
    (simulate_thinned, lambda p, y, dt: _ThinnedStep(p, y, dt),
     lambda p, y, dt, T, rng: simulate_thinned_batch(p, y, dt, T, 1, rng)),
    (simulate_lou, lambda p, y, dt: _ThinnedStep(p, y, dt, frozen=True),
     lambda p, y, dt, T, rng: simulate_lou_batch(p, y, dt, T, 1, rng)),
], ids=["root", "thinned", "lou"])
def test_single_path_is_the_batch_at_one_path(jump_params, alpha, single,
                                              step, batch):
    # 17 000 steps run each one-path stream past one _BLOCK refill; the
    # batch loop with the integral keeps the path and logs the jumps that
    # the path shows, and the batch function ends where the path ends
    p, seed = jump_params(alpha=alpha), 11
    config = SimConfig(dt=1e-3, horizon=17.0, y=0.5, seed=seed)
    assert config.horizon / config.dt > _BLOCK
    path = single(p, config)
    log = []
    *_, (paths, times) = _run(step(p, 0.5, 1e-3), p.r0, 17.0, 1,
                              np.random.default_rng(seed), keep_paths=True,
                              events=log)
    np.testing.assert_array_equal(path.times, times)
    np.testing.assert_array_equal(path.values, paths[0])
    assert path.events == [(t, size) for _, t, size in log]
    end = batch(p, 0.5, 1e-3, 17.0, np.random.default_rng(seed))[0]
    assert end.tolist() == [path.values[-1]]
