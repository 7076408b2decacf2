"""Stochastic oracle: sample the physical fading model directly and estimate BER.

Nothing here touches the closed-form SIR density or the analytical BER
integral, so agreement between this module and the analytical engine
validates both.  The estimator is semi-analytic: it averages the closed-form
conditional error probability over sampled fading states instead of
simulating individual bits, which is the same expectation with orders of
magnitude less variance.

Draws come from numpy Generators, and this module alone derives seeds: block
i of a run on seed s draws on SeedSequence(s, spawn_key=(i,)), and
derived_seed gives the per-row seeds of validate.  ks_statistic evaluates the
closed-form cdf only at spaced sorted draws and where a rounding-aware bound
says the statistic's maximum can lie, which gives the full evaluation's bits.
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

# ks_statistic evaluates the law at every this-many-th sorted draw, and between
# two of them only where the statistic's maximum can lie.
_KS_RUN = 64

# Blocks run on a thread pool of one worker per CPU this process may use, one
# pool per call; numpy's samplers and ufunc loops release the GIL.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error; reproducible from the seed."""

    mean: float
    std_error: float

    def __post_init__(self):
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be >= 0")


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
    the geometric link factor times an exponential of mean rho.  Branch
    powers add left to right, as numpy's row sum does for M <= 7 (for M >= 8
    it sums pairwise, so rng.gamma(...).sum(-1) differs in the last bits).
    """
    m, sigma = scenario.m, scenario.sigma
    c_geom = 10.0 ** ((scenario.p2_dbm - scenario.p1_dbm) / 10.0) \
        * (scenario.s / scenario.t) ** scenario.n

    # numpy draws gammas one after another in C order, so row chunks of one
    # reused buffer use the stream as one (size, M) draw would, and
    # standard_gamma times sigma/m is rng.gamma(m, sigma/m) bit for bit.
    signal = np.empty(size)
    rows = min(size, _GAMMA_ROWS)
    try:
        gammas = np.empty((rows, scenario.M))
    except (MemoryError, ValueError):  # numpy refuses a size it cannot allocate or index
        raise MemoryError(f"{rows} draws of {scenario.M} branch gammas need "
                          f"{8 * rows * scenario.M} bytes, more than this process "
                          "can allocate") from None
    for start in range(0, size, _GAMMA_ROWS):
        stop = min(start + _GAMMA_ROWS, size)
        chunk = gammas[:stop - start]
        rng.standard_gamma(m, out=chunk)
        chunk *= sigma / m
        total = signal[start:stop]
        total[:] = chunk[:, 0]
        for column in chunk.T[1:]:
            total += column
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


def _fold(partials) -> McEstimate:
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
    return McEstimate(mean=mean_acc, std_error=math.sqrt(variance / n_acc))


def derived_seed(master: int, *key: int) -> int:
    """A 64-bit seed derived from master and key, e.g. one per grid row."""
    return int(np.random.SeedSequence(master, spawn_key=key).generate_state(1, np.uint64)[0])


def estimate_ber(scenario: Scenario, samples: int, seed: int, out=None) -> McEstimate:
    """Semi-analytic BER estimate: average conditional BER over sampled SIRs.

    Unbiased for the analytical BER integral.  Identical (seed, samples)
    reproduce the mean bit-for-bit.  Workers keep only their current block,
    so memory stays O(WORKERS * block) at any sample count.  When out, a
    writable float64 array of samples entries, is given, the SIRs averaged
    are also stored there in draw order.
    """
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an unsigned 64-bit value, got {seed}")
    blocks = _blocks(samples)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == (samples,) and out.flags.writeable):
        raise ValueError(f"out must be a writable float64 array of {samples} entries")
    with ThreadPoolExecutor(WORKERS) as pool:
        return _fold(pool.map(partial(_block_partial, scenario, seed, out), blocks))


def _ks_terms(ordered, dist: SirDistribution, index) -> tuple:
    """Largest KS gap, fl(i/n), fl(i/n) - fl(1/n) and cdf at sorted indices, rank i = index + 1."""
    steps = (index + 1) / ordered.size
    low = steps - 1.0 / ordered.size
    cdf = sir_cdf(dist, ordered[index])
    return max(np.max(steps - cdf), np.max(cdf - low)), steps, low, cdf


def ks_statistic(samples, dist: SirDistribution) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the sample set and the SIR law.

    Sorts a copy of samples unless they are already ascending; the caller's
    array is left as it was.  The statistic is the largest gap D+ = fl(i/n) -
    c_i or D- = c_i - (fl(i/n) - fl(1/n)) over ranks i, c_i = sir_cdf at the
    i-th smallest draw.  The law is evaluated at every _KS_RUN-th draw (the
    knots), and between knots of ranks a < b only when the run's bound
    reaches a gap already found, so the result is a full evaluation's to the bit.

    Bound: t = fl(beta*y) never falls as y rises, and with k the shape and
    u = eps/2, c = (t/(1+t))**k * (1+h)**k * (1+p), |h| <= 2u/(1-u) from the
    ratio's two roundings and |p| <= 8u (pow within 4 ulp: glibc's is within
    1, numpy's AVX-512 SVML loops within 4; below 2**-1022 the error is far
    smaller).  So for ranks j <= i, c_j - c_i <= (1+h)**k*(1+8u) -
    (1-h)**K*(1-8u) <= 2.2*K*eps + 8*eps, K = max(k, 1), as e**x - 1 <=
    1.14*x for x <= 1/4, while k*eps <= 1/8; past that the margin exceeds 1
    and covers any gap.  With monotone rounding and eps/2 for the bound's own
    difference, the run's D+ are at most fl(fl(b/n) - c_a) + margin and its
    D- at most fl(c_b - (fl(a/n) - fl(1/n))) + margin, margin = (8*k + 16)*eps.
    A NaN draw sorts last and makes the statistic NaN.
    """
    ordered = np.asarray(samples, dtype=float)
    if ordered.size == 0:
        raise ValueError("samples must be non-empty")
    for start in range(0, ordered.size - 1, BLOCK_SIZE):  # one block's pairs at a time
        chunk = ordered[start:start + BLOCK_SIZE + 1]
        if not np.all(chunk[:-1] <= chunk[1:]):  # a fall or a NaN: sort a copy
            ordered = np.sort(ordered)
            break
    n = ordered.size
    if np.isnan(ordered[-1]):
        return math.nan
    margin = (8.0 * dist.shape + 16.0) * np.finfo(float).eps
    inner = np.arange(1, _KS_RUN)
    group = BLOCK_SIZE // (16 * _KS_RUN)  # runs whose terms take under half a block
    # any gap is a floor for the statistic; one from draws spread over the
    # whole sample prunes the first blocks' runs as well as the last ones'
    best = _ks_terms(ordered, dist, np.linspace(0, n - 1, 4096, dtype=np.int64))[0]
    for start in range(0, n, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, n - 1)
        knots = np.append(np.arange(start, stop, _KS_RUN), stop)
        gap, steps, low, cdf = _ks_terms(ordered, dist, knots)
        best = max(best, gap)
        bound = np.maximum(steps[1:] - cdf[:-1], cdf[1:] - low[:-1])
        bound += margin
        runs = knots[:-1][bound >= best]
        for first in range(0, runs.size, group):
            index = (runs[first:first + group, None] + inner).ravel()
            np.minimum(index, n - 1, out=index)
            best = max(best, _ks_terms(ordered, dist, index)[0])
    return float(best)
