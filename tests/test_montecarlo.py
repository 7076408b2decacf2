"""Monte Carlo tests: sampler moments, distributional agreement, determinism."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from conftest import CANONICAL, FIG2, scen
from sirlink import (
    McEstimate,
    SirDistribution,
    ber_direct,
    estimate_ber,
    ks_statistic,
    montecarlo,
    sample_sir,
    sir_cdf,
    sir_distribution,
)
from sirlink.montecarlo import BLOCK_SIZE, _block_partial, _blocks

N = 10 ** 6


def inverse_transform_draws(dist, count, seed):
    """Independent construction of the SIR law: invert the closed-form CDF."""
    u = default_rng(seed).uniform(size=count)
    root = u ** (1.0 / dist.shape)
    return root / (dist.beta * (1.0 - root))


def two_sample_ks(a, b):
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


class TestSampleSir:
    def test_unit_median(self):
        draws = sample_sir(default_rng(5), CANONICAL, size=N)
        # F(1) = 1/2 for shape 1, beta 1; median se ~ 1/(2 f(1) sqrt(n))
        assert abs(np.median(draws) - 1.0) < 0.01

    def test_ks_against_closed_form(self):
        draws = sample_sir(default_rng(6), FIG2, size=N)
        assert ks_statistic(draws, sir_distribution(FIG2)) < 0.005

    def test_power_scale_invariance_in_distribution(self):
        base = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5)
        scaled = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5,
                      sigma=7.0, rho=7.0)
        a = sample_sir(default_rng(7), base, size=N)
        b = sample_sir(default_rng(8), scaled, size=N)
        assert two_sample_ks(a, b) < 0.005

    @pytest.mark.parametrize("branches", [1, 4, 7])
    def test_chunked_gammas_keep_one_shot_bits(self, branches):
        # the gammas are drawn and summed in row chunks; the one-shot draw of
        # all of them, then the exponentials, is the same stream, and up to
        # M = 7 numpy's row sum adds left to right as sample_sir does
        scenario = scen(m=3, M=branches, p1=17, p2=10, s=100, t=80, n=3.5, sigma=1.5, rho=2.0)
        size = 3 * montecarlo._GAMMA_ROWS + 5
        rng = default_rng(27)
        signal = rng.gamma(3.0, 1.5 / 3.0, size=(size, branches)).sum(-1)
        c_geom = 10.0 ** ((scenario.p2_dbm - scenario.p1_dbm) / 10.0) \
            * (scenario.s / scenario.t) ** scenario.n
        one_shot = signal / (c_geom * rng.exponential(2.0, size=size))
        assert np.array_equal(sample_sir(default_rng(27), scenario, size), one_shot)

    def test_gammas_sum_left_to_right_past_seven(self):
        # from M = 8 numpy's row sum is pairwise; sample_sir keeps adding the
        # branch columns left to right
        scenario = scen(m=1.5, M=9, p1=17, p2=10, s=100, t=80, n=3.5, sigma=1.5, rho=2.0)
        size = montecarlo._GAMMA_ROWS + 5
        rng = default_rng(29)
        gammas = rng.gamma(1.5, 1.5 / 1.5, size=(size, 9))
        signal = gammas[:, 0].copy()
        for column in gammas.T[1:]:
            signal += column
        assert not np.array_equal(signal, gammas.sum(-1))
        c_geom = 10.0 ** ((scenario.p2_dbm - scenario.p1_dbm) / 10.0) \
            * (scenario.s / scenario.t) ** scenario.n
        left_to_right = signal / (c_geom * rng.exponential(2.0, size=size))
        assert np.array_equal(sample_sir(default_rng(29), scenario, size), left_to_right)


class TestEstimateBer:
    def test_interference_dominated_limit(self):
        # 90 dB power disadvantage: conditional BER pins at ~1/2
        swamped = scen(m=1, M=1, p1=10, p2=100, s=100, t=100, n=2.0)
        estimate = estimate_ber(swamped, 10 ** 5, seed=11)
        assert 0.499 <= estimate.mean <= 0.5
        analytic = ber_direct(sir_distribution(swamped)).value
        assert abs(estimate.mean - analytic) <= 3.0 * estimate.std_error

    def test_matches_direct_route(self):
        estimate = estimate_ber(CANONICAL, N, seed=12)
        analytic = ber_direct(sir_distribution(CANONICAL)).value
        assert abs(estimate.mean - analytic) <= 3.0 * estimate.std_error

    def test_bitwise_determinism(self):
        a = estimate_ber(FIG2, 10 ** 5, seed=13)
        b = estimate_ber(FIG2, 10 ** 5, seed=13)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_frozen_bits(self):
        # values of the 65536-sample block layout and its in-order fold; any
        # change to either changes these bits
        estimate = estimate_ber(FIG2, 10 ** 5, seed=13)
        assert estimate.mean == 0.002109810213258005
        assert estimate.std_error == 2.7710899228513585e-05

    def test_block_schedule_independence(self):
        # folding out-of-order-computed block partials in index order must
        # reproduce the sequential estimate bit for bit
        parts = [(block[0], *_block_partial(FIG2, 14, None, block))
                 for block in reversed(_blocks(3 * 65536 + 17))]
        n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
        for _, count, mean, m2 in sorted(parts):
            delta = mean - mean_acc
            total = n_acc + count
            mean_acc += delta * count / total
            m2_acc += m2 + delta * delta * n_acc * count / total
            n_acc = total
        reference = estimate_ber(FIG2, 3 * 65536 + 17, seed=14)
        assert mean_acc == reference.mean

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_count_keeps_bits(self, monkeypatch, workers):
        # values taken from the single-threaded block loop this pool replaced;
        # a short switch interval makes the workers interleave
        monkeypatch.setattr(montecarlo, "WORKERS", workers)
        samples = 3 * 65536 + 17
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            estimate = estimate_ber(FIG2, samples, seed=14)
            draws = np.empty(samples)
            with_draws = estimate_ber(FIG2, samples, seed=14, out=draws)
        finally:
            sys.setswitchinterval(interval)
        assert (estimate.mean, estimate.std_error) == (0.002128999602062179, 1.97129040749607e-05)
        assert with_draws == estimate
        blocks = [sample_sir(default_rng(SeedSequence(14, spawn_key=(i,))), FIG2,
                             size=min(BLOCK_SIZE, samples - start))
                  for i, start in enumerate(range(0, samples, BLOCK_SIZE))]
        assert np.array_equal(draws, np.concatenate(blocks))
        assert ks_statistic(draws, sir_distribution(FIG2)) == 0.0014256987422021083

    def test_memory_stays_per_block(self, monkeypatch):
        # two workers hold a few blocks each; the whole draw would be 32 blocks
        monkeypatch.setattr(montecarlo, "WORKERS", 2)
        block_bytes = BLOCK_SIZE * 8
        tracemalloc.start()
        try:
            estimate_ber(FIG2, 32 * BLOCK_SIZE, seed=19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4 * block_bytes

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            estimate_ber(FIG2, 999, seed=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            estimate_ber(FIG2, 1000, seed=-1)
        with pytest.raises(ValueError):
            estimate_ber(FIG2, 1000, seed=2 ** 64)
        estimate_ber(FIG2, 1000, seed=2 ** 64 - 1)

    def test_blocks_draw_different_sirs(self):
        # each block draws on its own SeedSequence child of the run's seed
        draws = np.empty(2 * BLOCK_SIZE)
        estimate_ber(FIG2, 2 * BLOCK_SIZE, seed=99, out=draws)
        assert np.intersect1d(draws[:BLOCK_SIZE], draws[BLOCK_SIZE:]).size == 0

    @pytest.mark.parametrize("out", [np.empty(BLOCK_SIZE - 1), np.empty(BLOCK_SIZE + 1),
                                     np.empty(BLOCK_SIZE, dtype=np.float32),
                                     np.empty((BLOCK_SIZE, 1)), [0.0] * BLOCK_SIZE,
                                     np.broadcast_to(0.0, (BLOCK_SIZE,))],
                             ids=["short", "long", "float32", "2d", "list", "read-only"])
    def test_out_rejected_before_drawing(self, monkeypatch, out):
        drawn = []
        monkeypatch.setattr(montecarlo, "sample_sir", lambda *args, **kw: drawn.append(kw))
        with pytest.raises(ValueError, match="out must be"):
            estimate_ber(FIG2, BLOCK_SIZE, seed=20, out=out)
        assert drawn == []

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.1, std_error=-1.0)


def full_ks(ordered, dist):
    """KS statistic of sorted draws with the law evaluated at every draw."""
    n = ordered.size
    cdf = np.asarray(sir_cdf(dist, ordered))
    steps = np.arange(1, n + 1, dtype=float)
    steps /= n
    gap = steps - cdf
    d_plus = gap.max()
    steps -= 1.0 / n
    np.subtract(cdf, steps, out=gap)
    return max(d_plus.item(), gap.max().item())


class TestBoundedKs:
    # ks_statistic evaluates the law only where the statistic's maximum can
    # lie; its value must be the full evaluation's, bit for bit
    @pytest.mark.parametrize("n", [1, 2, 10 ** 4, 200003, 1 << 21])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("shape", [0.5, 1.0, 4.0, 36.0, 320.0])
    def test_exact_against_full_evaluation(self, shape, scale, n):
        law = SirDistribution(shape=shape, beta=0.8)
        ordered = np.sort(inverse_transform_draws(law, n, seed=(int(2 * shape), n)))
        dist = SirDistribution(shape=shape, beta=0.8 * scale)
        assert ks_statistic(ordered, dist) == full_ks(ordered, dist)

    def test_exact_with_ties(self):
        ordered = np.repeat([0.05, 0.3, 1.0, 2.5, 7.0], [3, 70001, 1, 90000, 40000])
        for dist in (SirDistribution(shape=2.0, beta=1.0), SirDistribution(shape=36.0, beta=0.1)):
            assert ks_statistic(ordered, dist) == full_ks(ordered, dist)

    def test_nan_draw_gives_nan(self):
        dist = SirDistribution(shape=4.0, beta=0.8)
        draws = np.append(inverse_transform_draws(dist, 10 ** 5, seed=30), np.nan)
        assert math.isnan(full_ks(np.sort(draws), dist))
        assert math.isnan(ks_statistic(draws, dist))
        assert math.isnan(ks_statistic(np.sort(draws), dist))  # sorted, ending in NaN

    def test_sorted_input_takes_no_copy(self):
        # 2**21 draws are 32 blocks; the statistic's own temporaries stay
        # under half a block, so a sorted copy would show in the peak
        dist = SirDistribution(shape=4.0, beta=0.8)
        ordered = np.sort(inverse_transform_draws(dist, 1 << 21, seed=33))
        tracemalloc.start()
        try:
            ks = ks_statistic(ordered, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * BLOCK_SIZE * 8
        assert ks == ks_statistic(ordered[::-1].copy(), dist) == full_ks(ordered, dist)

    @pytest.mark.parametrize("n, swap", [(3 * BLOCK_SIZE, BLOCK_SIZE - 1),
                                         (2 * BLOCK_SIZE + 1, 2 * BLOCK_SIZE - 1)],
                             ids=["block-edge", "last-pair"])
    def test_one_swapped_pair_sorts_a_copy(self, n, swap):
        # pairs the order scan compares across a block edge and last
        dist = SirDistribution(shape=4.0, beta=0.8)
        ordered = np.sort(inverse_transform_draws(dist, n, seed=34))
        swapped = ordered.copy()
        swapped[[swap, swap + 1]] = swapped[[swap + 1, swap]]
        assert swapped[swap] > swapped[swap + 1]
        before = swapped.copy()
        tracemalloc.start()
        try:
            ks = ks_statistic(swapped, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak >= swapped.nbytes  # the sorted copy
        assert ks == ks_statistic(ordered, dist)
        assert np.array_equal(swapped, before)

    def test_margin_covers_cdf_rounding(self):
        # sir_cdf is not monotone to the last bit: where beta*y crosses 512,
        # just above a shape-320 law's median, 1 + beta*y rounds, and over
        # 2**20 consecutive doubles the cdf falls by up to 172 eps here.
        # ks_statistic's margin, (8*shape + 16)*eps, must cover that.
        dist = SirDistribution(shape=320.0, beta=0.8)
        ys = (np.array(512.0 / dist.beta).view(np.int64)
              + np.arange(-(1 << 19), 1 << 19)).view(np.float64)
        cdf = sir_cdf(dist, ys)
        assert abs(cdf[0] - 0.5) < 0.05
        fall = np.max(np.maximum.accumulate(cdf) - cdf)
        assert 0.0 < fall <= (8.0 * dist.shape + 16.0) * np.finfo(float).eps

    def test_evaluates_a_fraction_of_the_draws(self, monkeypatch):
        evaluated = []

        def counted(dist, y):
            evaluated.append(y.size)
            return sir_cdf(dist, y)

        monkeypatch.setattr(montecarlo, "sir_cdf", counted)
        dist = sir_distribution(FIG2)
        ordered = np.sort(sample_sir(default_rng(31), FIG2, size=N))
        assert ks_statistic(ordered, dist) == full_ks(ordered, dist)
        assert sum(evaluated) < N // 10


class TestKsStatistic:
    def test_inverse_transform_within_critical_value(self):
        dist = sir_distribution(FIG2)
        draws = inverse_transform_draws(dist, N, seed=15)
        assert ks_statistic(draws, dist) < 1.95 / math.sqrt(N)

    def test_single_sample_at_median(self):
        dist = SirDistribution(shape=1.0, beta=1.0)
        assert ks_statistic([1.0], dist) == pytest.approx(0.5, abs=1e-12)

    def test_mismatched_beta_detected(self):
        dist = sir_distribution(FIG2)
        doubled = SirDistribution(shape=dist.shape, beta=2.0 * dist.beta)
        # closed-form gap oracle: the two CDFs differ by > 0.05 somewhere
        ys = np.geomspace(1e-3, 1e3, 2000)
        gap = np.max(np.abs(np.asarray(sir_cdf(dist, ys))
                            - np.asarray(sir_cdf(doubled, ys))))
        assert gap > 0.05
        draws = sample_sir(default_rng(16), FIG2, size=10 ** 5)
        assert ks_statistic(draws, doubled) > 0.05

    def test_physical_vs_inverse_transform_routes(self):
        dist = sir_distribution(FIG2)
        physical = sample_sir(default_rng(17), FIG2, size=N)
        inverted = inverse_transform_draws(dist, N, seed=18)
        assert two_sample_ks(physical, inverted) < 0.005

    def test_input_left_unsorted(self):
        dist = sir_distribution(FIG2)
        draws = sample_sir(default_rng(28), FIG2, size=3 * BLOCK_SIZE + 11)
        before = draws.copy()
        ks = ks_statistic(draws, dist)
        assert np.array_equal(draws, before)
        draws.sort()
        assert ks == ks_statistic(draws, dist)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], SirDistribution(shape=1.0, beta=1.0))
