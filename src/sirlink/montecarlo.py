"""Stochastic oracle: sample the physical fading model directly and estimate BER.

Nothing here touches the closed-form SIR density or the analytical BER
integral, so agreement between this module and the analytical engine
validates both.  The estimator is semi-analytic: it averages the closed-form
conditional error probability over sampled fading states instead of
simulating individual bits, which is the same expectation with orders of
magnitude less variance.

Draws come from numpy Generators, and this module alone derives seeds: block
i of a run on seed s draws on SeedSequence(s, spawn_key=(i,)), and
derived_seed gives the per-row seeds of validate.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import erfc as _erfc_vec

from .channel import Scenario, SirDistribution, sir_cdf

# Samples are drawn in fixed-size blocks, one derived sub-stream per block,
# and block statistics are folded in block order.  Any scheduling of blocks
# across workers therefore reproduces the single-worker result exactly.
BLOCK_SIZE = 1 << 16

# sample_sir draws the branch gammas this many rows at a time.
_GAMMA_ROWS = 1 << 13

# Blocks and KS chunks run on a thread pool of one worker per CPU this process
# may use, one pool per call; numpy's samplers and ufunc loops release the GIL.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


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


def _interferer_power(rng: np.random.Generator, rho: float, size: int):
    """Squared Rayleigh interferer amplitude: exponential with mean rho, never 0."""
    out = rng.exponential(rho, size=size)
    while True:
        zero = out == 0.0  # float underflow; probability ~2**-53 per draw
        if not zero.any():
            return out
        out[zero] = rng.exponential(rho, size=int(zero.sum()))


def sample_sir(rng: np.random.Generator, scenario: Scenario, size: int):
    """Draw size combined SIRs from the physical model.

    The combined signal power is the sum of M independent Gamma(m, sigma/m)
    branch powers (squared Nakagami amplitudes); the interference power is
    the geometric link factor times an exponential of mean rho.
    """
    m, sigma = scenario.m, scenario.sigma
    c_geom = 10.0 ** ((scenario.p2_dbm - scenario.p1_dbm) / 10.0) \
        * (scenario.s / scenario.t) ** scenario.n

    # numpy draws gammas one after another in C order, so row chunks summed
    # straight into signal use the stream as one (size, M) draw would.
    signal = np.empty(size)
    for start in range(0, size, _GAMMA_ROWS):
        stop = min(start + _GAMMA_ROWS, size)
        np.sum(rng.gamma(m, sigma / m, size=(stop - start, scenario.M)),
               axis=-1, out=signal[start:stop])
    interference = _interferer_power(rng, scenario.rho, size)
    interference *= c_geom
    signal /= interference
    return signal


def _blocks(samples: int) -> list:
    """(index, start, stop) of every block of a samples-long draw, in block order."""
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    return [(index, start, min(start + BLOCK_SIZE, samples))
            for index, start in enumerate(range(0, samples, BLOCK_SIZE))]


def _block_partial(scenario: Scenario, seed: int, out, block) -> tuple:
    """(count, mean, sum_sq_dev) of conditional BER over one block of SIRs.

    Block (index, start, stop) is drawn on SeedSequence(seed, spawn_key=(index,));
    when out is an array, the draws are also stored in out[start:stop].
    """
    index, start, stop = block
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    p = sample_sir(rng, scenario, size=stop - start)
    if out is not None:
        out[start:stop] = p
    # conditional BER, then its squared deviations, in the draws' own array
    np.sqrt(p, out=p)
    _erfc_vec(p, out=p)
    p *= 0.5
    mean = float(p.mean())
    p -= mean
    np.square(p, out=p)
    return p.size, mean, float(np.sum(p))


def _fold(partials, seed: int) -> McEstimate:
    """Fold per-block (count, mean, sum_sq_dev) partials, in block order, into one estimate."""
    n_acc = 0
    mean_acc = 0.0
    m2_acc = 0.0
    for count, mean, m2 in partials:
        delta = mean - mean_acc
        total = n_acc + count
        mean_acc += delta * count / total
        m2_acc += m2 + delta * delta * n_acc * count / total
        n_acc = total
    variance = m2_acc / (n_acc - 1) if n_acc > 1 else 0.0
    return McEstimate(mean=mean_acc,
                      std_error=math.sqrt(variance / n_acc),
                      samples=n_acc,
                      seed=seed)


def _estimate(scenario: Scenario, samples: int, seed: int, out=None) -> McEstimate:
    """Draw the blocks on the pool and fold their partials as they come, in block order."""
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an unsigned 64-bit value, got {seed}")
    blocks = _blocks(samples)
    with ThreadPoolExecutor(WORKERS) as pool:
        return _fold(pool.map(partial(_block_partial, scenario, seed, out), blocks), seed)


def derived_seed(master: int, *key: int) -> int:
    """A 64-bit seed derived from master and key, e.g. one per grid row."""
    return int(np.random.SeedSequence(master, spawn_key=key).generate_state(1, np.uint64)[0])


def estimate_ber(scenario: Scenario, samples: int, seed: int) -> McEstimate:
    """Semi-analytic BER estimate: average conditional BER over sampled SIRs.

    Unbiased for the analytical BER integral.  Identical (seed, samples)
    reproduce the mean bit-for-bit.  Workers keep only their current block,
    so memory stays O(WORKERS * block) at any sample count.
    """
    return _estimate(scenario, samples, seed)


def estimate_with_draws(scenario: Scenario, samples: int, seed: int):
    """estimate_ber's estimate, same bits, with the SIRs it averaged in one array.

    The array is the caller's to keep or overwrite: 8 bytes per sample, on top
    of the few blocks each worker holds while it draws.
    """
    draws = np.empty(samples)
    return _estimate(scenario, samples, seed, draws), draws


def _ks_chunk(ordered, dist: SirDistribution, bounds) -> tuple:
    """The two one-sided KS maxima over ordered[start:stop] of a sorted sample."""
    start, stop = bounds
    n = ordered.size
    cdf = np.asarray(sir_cdf(dist, ordered[start:stop]))
    steps = np.arange(start + 1, stop + 1, dtype=float)
    steps /= n
    gap = steps - cdf
    d_plus = gap.max()
    steps -= 1.0 / n
    np.subtract(cdf, steps, out=gap)
    return d_plus, gap.max()


def _ks_sorted(ordered, dist: SirDistribution) -> float:
    """ks_statistic of a non-empty sample already sorted ascending."""
    n = ordered.size
    # Elementwise arithmetic per chunk and an exact max: the same bits as one
    # pass over the whole sorted array.
    chunks = [(start, min(start + BLOCK_SIZE, n)) for start in range(0, n, BLOCK_SIZE)]
    with ThreadPoolExecutor(WORKERS) as pool:
        maxima = np.array(list(pool.map(partial(_ks_chunk, ordered, dist), chunks)))
    d_plus, d_minus = np.max(maxima, axis=0).tolist()
    return max(d_plus, d_minus)


def ks_statistic(samples, dist: SirDistribution) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the sample set and the SIR law.

    Sorts a copy of samples; the caller's array is left as it was.
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    if ordered.size == 0:
        raise ValueError("samples must be non-empty")
    return _ks_sorted(ordered, dist)
