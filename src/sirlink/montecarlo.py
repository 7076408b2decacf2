"""Stochastic oracle: sample the physical fading model directly and estimate BER.

Nothing here touches the closed-form SIR density or the analytical BER
integral, so agreement between this module and the analytical engine
validates both.  The estimator is semi-analytic: it averages the closed-form
conditional error probability over sampled fading states instead of
simulating individual bits, which is the same expectation with orders of
magnitude less variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc as _erfc_vec

from .channel import Scenario, SirDistribution, sir_cdf

# Samples are drawn in fixed-size blocks, one derived sub-stream per block,
# and block statistics are folded in block order.  Any scheduling of blocks
# across workers therefore reproduces the single-worker result exactly.
BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error; reproducible from the seed."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


class RngStream:
    """Deterministic random stream with derivable independent sub-streams.

    The sub-stream rule: stream (seed, key) spawns child (seed, key + (index,)),
    realized through numpy's SeedSequence spawn keys.  Each stream is
    single-owner; derive one per worker or per block, never share.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        seed = int(seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be an unsigned 64-bit value, got {seed}")
        self.seed = seed
        self._spawn_key = tuple(_spawn_key)
        self.generator = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=self._spawn_key))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self._spawn_key + (int(index),))


def gamma_variate(rng: RngStream, shape: float, scale: float, size=None):
    """Draw from Gamma(shape, scale); the law of a squared Nakagami amplitude.

    shape >= 0.5 covers the supported fading range; non-integer shape is
    handled by the generator's rejection sampler.
    """
    if not shape >= 0.5:
        raise ValueError(f"shape must be >= 0.5, got {shape}")
    if not scale > 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    out = rng.generator.gamma(shape, scale, size=size)
    return float(out) if size is None else out


def _interferer_power(rng: RngStream, rho: float, size=None):
    """Squared Rayleigh interferer amplitude: exponential with mean rho, never 0."""
    out = rng.generator.exponential(rho, size=size)
    if size is None:
        while out == 0.0:  # float underflow; probability ~2**-53 per draw
            out = float(rng.generator.exponential(rho))
        return out
    while True:
        zero = out == 0.0
        if not zero.any():
            return out
        out[zero] = rng.generator.exponential(rho, size=int(zero.sum()))


def sample_sir(rng: RngStream, scenario: Scenario, size=None):
    """Draw the combined SIR from the physical model.

    The combined signal power is the sum of M independent Gamma(m, sigma/m)
    branch powers; the interference power is the geometric link factor times
    an exponential of mean rho.  Returns a float when size is None.
    """
    m = scenario.fading.m
    sigma = scenario.fading.sigma
    branches = scenario.branches
    link = scenario.link
    c_geom = 10.0 ** ((link.p2_dbm - link.p1_dbm) / 10.0) * (link.s / link.t) ** link.n

    branch_shape = (branches,) if size is None else (size, branches)
    signal = gamma_variate(rng, m, sigma / m, size=branch_shape).sum(axis=-1)
    interference = c_geom * _interferer_power(rng, scenario.interferer.rho, size=size)
    out = signal / interference
    return float(out) if size is None else out


def _block_draws(scenario: Scenario, samples: int, seed: int):
    """SIR draws in block order; block i comes from sub-stream i of the seed."""
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    root = RngStream(seed)
    return (sample_sir(root.substream(index), scenario, size=min(BLOCK_SIZE, samples - start))
            for index, start in enumerate(range(0, samples, BLOCK_SIZE)))


def _block_partials(blocks):
    """Yield (block_index, count, mean, sum_sq_dev) of conditional BER per block of SIRs."""
    for index, sirs in enumerate(blocks):
        p = 0.5 * _erfc_vec(np.sqrt(sirs))
        mean = float(p.mean())
        yield index, sirs.size, mean, float(np.sum((p - mean) ** 2))


def _fold(blocks, seed: int) -> McEstimate:
    """Fold the conditional BER of SIR blocks, in block order, into one estimate."""
    n_acc = 0
    mean_acc = 0.0
    m2_acc = 0.0
    for _, count, mean, m2 in _block_partials(blocks):
        delta = mean - mean_acc
        total = n_acc + count
        mean_acc += delta * count / total
        m2_acc += m2 + delta * delta * n_acc * count / total
        n_acc = total
    variance = m2_acc / (n_acc - 1) if n_acc > 1 else 0.0
    return McEstimate(mean=mean_acc,
                      std_error=math.sqrt(variance / n_acc),
                      samples=n_acc,
                      seed=int(seed))


def estimate_ber(scenario: Scenario, samples: int, seed: int) -> McEstimate:
    """Semi-analytic BER estimate: average conditional BER over sampled SIRs.

    Unbiased for the analytical BER integral.  Identical (seed, samples)
    reproduce the mean bit-for-bit.  Blocks are drawn and folded one at a
    time, so memory stays O(block) at any sample count.
    """
    return _fold(_block_draws(scenario, samples, seed), seed)


def estimate_with_draws(scenario: Scenario, samples: int, seed: int):
    """estimate_ber's estimate, same bits, with the SIRs it averaged in one array."""
    draws = np.concatenate(list(_block_draws(scenario, samples, seed)))
    return _fold(np.split(draws, range(BLOCK_SIZE, samples, BLOCK_SIZE)), seed), draws


def ks_statistic(samples, dist: SirDistribution) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the sample set and the SIR law."""
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n == 0:
        raise ValueError("samples must be non-empty")
    cdf = np.asarray(sir_cdf(dist, arr))
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    return max(d_plus, d_minus)
