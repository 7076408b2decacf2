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
from sirlink.montecarlo import BLOCK_SIZE, _block_partial, _blocks, estimate_with_draws

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

    @pytest.mark.parametrize("branches", [1, 4])
    def test_chunked_gammas_keep_one_shot_bits(self, branches):
        # the gammas are drawn and summed in row chunks; the one-shot draw of
        # all of them, then the exponentials, is the same stream
        scenario = scen(m=3, M=branches, p1=17, p2=10, s=100, t=80, n=3.5, sigma=1.5, rho=2.0)
        size = 3 * montecarlo._GAMMA_ROWS + 5
        rng = default_rng(27)
        signal = rng.gamma(3.0, 1.5 / 3.0, size=(size, branches)).sum(-1)
        c_geom = 10.0 ** ((scenario.p2_dbm - scenario.p1_dbm) / 10.0) \
            * (scenario.s / scenario.t) ** scenario.n
        one_shot = signal / (c_geom * rng.exponential(2.0, size=size))
        assert np.array_equal(sample_sir(default_rng(27), scenario, size), one_shot)


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
            with_draws, draws = estimate_with_draws(FIG2, samples, seed=14)
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
        _, draws = estimate_with_draws(FIG2, 2 * BLOCK_SIZE, seed=99)
        assert np.intersect1d(draws[:BLOCK_SIZE], draws[BLOCK_SIZE:]).size == 0

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.1, std_error=-1.0, samples=10, seed=0)
        with pytest.raises(ValueError):
            McEstimate(mean=0.1, std_error=0.0, samples=0, seed=0)


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
        assert ks == montecarlo._ks_sorted(draws, dist)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], SirDistribution(shape=1.0, beta=1.0))
