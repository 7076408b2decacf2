"""Monte Carlo tests: sampler moments, distributional agreement, determinism."""

import math

import numpy as np
import pytest

from conftest import CANONICAL, FIG2, scen
from sirlink import (
    McEstimate,
    RngStream,
    SirDistribution,
    ber_direct,
    estimate_ber,
    gamma_variate,
    ks_statistic,
    sample_sir,
    sir_cdf,
    sir_distribution,
)
from sirlink.montecarlo import _block_draws, _block_partials

N = 10 ** 6


def inverse_transform_draws(dist, count, seed):
    """Independent construction of the SIR law: invert the closed-form CDF."""
    u = RngStream(seed).generator.uniform(size=count)
    root = u ** (1.0 / dist.shape)
    return root / (dist.beta * (1.0 - root))


def two_sample_ks(a, b):
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


class TestRngStream:
    def test_determinism(self):
        a = RngStream(99).generator.uniform(size=5)
        b = RngStream(99).generator.uniform(size=5)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        root = RngStream(99)
        a = root.substream(0).generator.uniform(size=5)
        b = root.substream(1).generator.uniform(size=5)
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        a = RngStream(99).substream(3).generator.uniform(size=5)
        b = RngStream(99).substream(3).generator.uniform(size=5)
        assert np.array_equal(a, b)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2 ** 64)
        RngStream(2 ** 64 - 1)


class TestGammaVariate:
    def test_unit_shape_is_exponential(self):
        draws = gamma_variate(RngStream(1), 1.0, 1.0, size=N)
        se = draws.std(ddof=1) / math.sqrt(N)
        assert abs(draws.mean() - 1.0) < 5.0 * se

    def test_branch_power_normalization(self):
        # shape m, scale sigma/m keeps the mean branch power at sigma
        draws = gamma_variate(RngStream(2), 3.0, 1.0 / 3.0, size=N)
        se = draws.std(ddof=1) / math.sqrt(N)
        assert abs(draws.mean() - 1.0) < 5.0 * se

    def test_half_shape_variance(self):
        draws = gamma_variate(RngStream(3), 0.5, 1.0, size=N)
        variance = draws.var(ddof=1)
        # var(sample variance) ~ (mu4 - sigma^4)/n with mu4 = 3k(k+2) = 3.75
        se_var = math.sqrt((3.75 - 0.25) / N)
        assert abs(variance - 0.5) < 5.0 * se_var

    def test_scalar_draw(self):
        value = gamma_variate(RngStream(4), 2.0, 0.5)
        assert isinstance(value, float) and value > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_variate(RngStream(0), 0.4, 1.0)
        with pytest.raises(ValueError):
            gamma_variate(RngStream(0), 1.0, 0.0)


class TestSampleSir:
    def test_unit_median(self):
        draws = sample_sir(RngStream(5), CANONICAL, size=N)
        # F(1) = 1/2 for shape 1, beta 1; median se ~ 1/(2 f(1) sqrt(n))
        assert abs(np.median(draws) - 1.0) < 0.01

    def test_ks_against_closed_form(self):
        draws = sample_sir(RngStream(6), FIG2, size=N)
        assert ks_statistic(draws, sir_distribution(FIG2)) < 0.005

    def test_power_scale_invariance_in_distribution(self):
        base = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5)
        scaled = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5,
                      sigma=7.0, rho=7.0)
        a = sample_sir(RngStream(7), base, size=N)
        b = sample_sir(RngStream(8), scaled, size=N)
        assert two_sample_ks(a, b) < 0.005

    def test_combined_branch_power_mean(self):
        # E[sum of branch powers] = M * sigma
        sigma, branches = 1.5, 3
        draws = gamma_variate(RngStream(9), 2.0, sigma / 2.0, size=(N, branches))
        total = draws.sum(axis=1)
        se = total.std(ddof=1) / math.sqrt(N)
        assert abs(total.mean() - branches * sigma) < 5.0 * se

    def test_scalar_draw(self):
        value = sample_sir(RngStream(10), FIG2)
        assert isinstance(value, float) and value > 0.0


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
        parts = sorted(_block_partials(_block_draws(FIG2, 3 * 65536 + 17, seed=14)),
                       reverse=True)
        n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
        for _, count, mean, m2 in sorted(parts):
            delta = mean - mean_acc
            total = n_acc + count
            mean_acc += delta * count / total
            m2_acc += m2 + delta * delta * n_acc * count / total
            n_acc = total
        reference = estimate_ber(FIG2, 3 * 65536 + 17, seed=14)
        assert mean_acc == reference.mean

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            estimate_ber(FIG2, 999, seed=0)

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
        draws = sample_sir(RngStream(16), FIG2, size=10 ** 5)
        assert ks_statistic(draws, doubled) > 0.05

    def test_physical_vs_inverse_transform_routes(self):
        dist = sir_distribution(FIG2)
        physical = sample_sir(RngStream(17), FIG2, size=N)
        inverted = inverse_transform_draws(dist, N, seed=18)
        assert two_sample_ks(physical, inverted) < 0.005

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], SirDistribution(shape=1.0, beta=1.0))
