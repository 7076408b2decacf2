"""Average bit-error-rate of the BPSK link, by two independent numerical routes.

The direct route integrates the conditional error probability against the
SIR density, both in log form, over x = log y, where the integrand is smooth
and log-concave, so a plain trapezoid rule converges geometrically
(Trefethen & Weideman, SIAM Review 2014).  It runs as a few numpy calls over
many laws of a grid at once (`ber_batch`) and carries an error bound
relative to the BER, so deep-quiet and high-order laws keep their digits.
The second route integrates by parts first, which turns the integral into
the SIR distribution function weighted by y^(-1/2) e^(-y) - exactly the
generalized Gauss-Laguerre weight - so a fixed 128-node rule evaluates it as
one weighted sum per law, over the same laws at once.  Both run on every
top-level evaluation and must agree, otherwise the evaluation fails loudly.

The tolerance, the rule (scipy's Gauss-Hermite rule folded onto y = x^2,
cached as read-only arrays) and the paper's Gamma(1/2, .) (scipy gammaincc)
live here too.  All functions are pure; the rule cache is the only shared
state and cannot be written, so all are thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy import special

from .channel import Scenario, SirDistribution, sir_cdf, sir_distribution

SQRT_PI = math.sqrt(math.pi)

# Tolerance of every analytical evaluation; nothing outside this module sets
# it.  It is relative only, so a BER of 1e-20 is resolved to the same digits
# as one of 1e-2, and tight enough that Monte Carlo statistical error
# dominates every cross-validation.
DEFAULT_REL_TOL = 1e-10

# Absolute dual-route agreement required by ber() and ber_batch();
# disagreement beyond this signals a route defect for shape >= 1 and moderate
# beta.  The Gauss-Laguerre route cannot resolve the y**(shape-1) endpoint
# kink when shape < 1, nor structure below its smallest node when beta is
# large; ber_direct, with its own error bound, is the route there.
CROSS_CHECK_THRESHOLD = 1e-7

# Order 64 leaves a ~3e-8 route gap in the strongest-interference corner of
# the study grids (shape 12, beta ~ 3.8); 128 restores < 1e-9 everywhere the
# cross-check is meant to hold.  It is also the largest order
# gauss_laguerre_half accepts.
DEFAULT_GL_ORDER = 128

# The direct route's trapezoid rule in x = log y (see _direct).  Its window
# ends where log g lies _FALL below its peak; its coarse step is at most
# _MAX_STEP, where the error is ~exp(-pi^2/0.25) ~ 7e-18.
_FALL = 45.0
_MAX_STEP = 0.25
# A law whose rule needs more nodes is not found, before any array is sized:
# the widest converging law (of the mpmath table, the scan and the sweep laws)
# needs 1105, and far more means _slope's curvature has lost its digits.
_MAX_NODES = 16384
_MAX_NEWTON = 60
_MAX_NEWTON_STEP = 4.0
_EPS = float(np.finfo(float).eps)
_SQRT2 = math.sqrt(2.0)
# log of half the smallest subnormal double: a value below it rounds to 0.0
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)
# Laws per pass of ber_batch.  A longer pass saves little time, but its
# temporaries grow with it: _direct holds ~3 MB at 200 laws, ~0.6 MB at 32.
_PASS_LAWS = 32


class QuadratureError(RuntimeError):
    """Quadrature failed to converge. Carries the best available estimate."""

    def __init__(self, message: str, best_estimate: float = math.nan,
                 error_estimate: float = math.inf):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class CrossCheckError(RuntimeError):
    """The two BER routes disagreed; carries both values."""

    def __init__(self, direct: float, gauss_laguerre: float):
        super().__init__(
            f"BER routes disagree: direct={direct!r}, gauss_laguerre={gauss_laguerre!r}, "
            f"|diff|={abs(direct - gauss_laguerre):.3e} >= {CROSS_CHECK_THRESHOLD:.1e}")
        self.direct = direct
        self.gauss_laguerre = gauss_laguerre


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a convergent quadrature together with its error bound."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.abs_error_estimate >= 0.0:
            raise ValueError("abs_error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


@dataclass(frozen=True)
class BerResult:
    """Analytical BER with its quadrature error bound and dual-route gap."""

    ber: float
    quad_error: float
    route_disagreement: float

    def __post_init__(self):
        if not 0.0 <= self.ber <= 0.5:
            raise ValueError(f"ber must lie in [0, 0.5], got {self.ber}")
        if not self.quad_error >= 0.0:
            raise ValueError("quad_error must be >= 0")
        if not self.route_disagreement >= 0.0:
            raise ValueError("route_disagreement must be >= 0")


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Non-regularized upper incomplete gamma Gamma(a) * gammaincc(a, x); non-increasing in x."""
    if not a > 0.0:
        raise ValueError(f"upper_incomplete_gamma requires a > 0, got {a}")
    if not x >= 0.0:
        raise ValueError(f"upper_incomplete_gamma requires x >= 0, got {x}")
    return math.exp(math.lgamma(a)) * float(special.gammaincc(a, x))


def conditional_ber(gamma: float) -> float:
    """BPSK error probability at a fixed SIR: Gamma(1/2, gamma)/(2*sqrt(pi)) = erfc(sqrt(gamma))/2."""
    if not gamma >= 0.0:
        raise ValueError(f"SIR must be >= 0, got {gamma}")
    return 0.5 * math.erfc(math.sqrt(gamma))


@lru_cache(maxsize=None)
def gauss_laguerre_half(order: int) -> tuple:
    """(nodes, weights) of the generalized Gauss-Laguerre rule for y^(-1/2) * exp(-y).

    Exact for polynomials up to degree 2*order - 1 under the weight.  It is
    the 2*order-node Gauss-Hermite rule folded onto y = x^2: nodes x^2 and
    weights 2w of its positive half, since L_order^(-1/2)(x^2) is
    proportional to H_(2*order)(x).  At 2*order > 150 scipy.special.roots_hermite
    uses its asymptotic algorithm, which, unlike roots_genlaguerre's
    eigenvalue method, needs no scipy.linalg: the 128-node rule builds in a
    few ms without loading its ~7 MB.  Both arrays are cached and read-only,
    so no caller can corrupt the rule every later call shares.
    """
    if not 1 <= order <= DEFAULT_GL_ORDER:
        raise ValueError(f"order must be in [1, {DEFAULT_GL_ORDER}], got {order}")
    x, w = special.roots_hermite(2 * order)
    nodes, weights = x[order:] ** 2, 2.0 * w[order:]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _exp(x):
    # numpy's exp runs a CPU-specific SIMD loop whose last bits differ between
    # hosts; scipy's inverse Box-Cox transform at lambda 0 is libm's exp, so
    # the printed bytes do not depend on the CPU.
    return special.inv_boxcox(x, 0.0)


def _log(x):
    return special.xlogy(1.0, x)  # libm's log, for the same reason as _exp


def _log_g(x, shape, log_beta, log_k):
    """log g(x), with g(x) = erfc(e^(x/2))/2 * y*pdf(y) at y = e^x.

    With u = x + log beta = log(beta*y),
    log(y*pdf(y)) = log k + k*u - (k+1)*log1p(e^u) = log k + (k+1)*log_expit(u) - u.
    Each of these terms stays near the size of log g itself, however large k
    or |log beta|, so their rounding does not cancel down to log BER; and
    e^u is never formed, so beta*y never overflows.
    """
    u = x + log_beta
    return (special.log_ndtr(-_SQRT2 * _exp(0.5 * x)) + log_k
            + (shape + 1.0) * special.log_expit(u) - u)


def _slope(x, shape, log_beta):
    """First and second derivative of log g in x, term by term from _log_g, so neither cancels."""
    z = _exp(0.5 * x)
    zr = z / (SQRT_PI * special.erfcx(z))  # z e^(-z^2) / (sqrt(pi) erfc(z))
    s, rest = special.expit(x + log_beta), special.expit(-(x + log_beta))
    fall = shape + 1.0
    return fall * rest - 1.0 - zr, -zr * (0.5 + zr - z * z) - fall * s * rest


def _peak(shape, beta, log_beta):
    """Near where log g peaks, and its curvature; NaN curvature where not found.

    log g is concave, so its slope falls monotonically and the peak is unique.
    Newton on the slope keeps a bracket from the slope's signs and bisects
    when a step leaves it.  It starts at the root of beta*y^2 + (1+beta)*y = k,
    the peak if erfc(sqrt(y)) fell like e^(-y): y = k for a weak interferer,
    k/beta for a strong one.  A law stops after a step under a quarter of its
    width 1/sqrt(-curvature): the rule needs the peak only to centre its
    window, not to the last bit.
    """
    rise = 1.0 + beta  # divided out term by term, so nothing overflows
    x = _log(2.0 * shape / rise / (1.0 + np.sqrt(1.0 + 4.0 * shape * (beta / rise) / rise)))
    lo, hi = np.full_like(x, -np.inf), np.full_like(x, np.inf)
    curvature = np.full_like(x, np.nan)
    moving = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_NEWTON):
        slope, curv = _slope(x, shape, log_beta)
        lo, hi = np.where(slope > 0.0, x, lo), np.where(slope < 0.0, x, hi)
        new = x + np.maximum(np.minimum(-slope / curv, _MAX_NEWTON_STEP), -_MAX_NEWTON_STEP)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        curvature = np.where(moving, curv, curvature)
        x, moving = np.where(moving, new, x), moving & (np.abs(new - x) * np.sqrt(-curv) > 0.25)
        if not moving.any():
            return x, curvature
    return x, np.where(moving, np.nan, curvature)


def _edges(peak, log_g_peak, width, shape, log_beta, log_k):
    """Window edges where log g lies at least _FALL below its peak, and the tails.

    Returns (left, right, tail): tail bounds the integral of g beyond both
    edges, relative to g at the peak, NaN where the slope has the wrong sign.
    Each edge starts at the Gaussian guess peak -+ sqrt(2*_FALL)*width.  If
    log g there is still above the level peak - _FALL, one Newton step takes
    the edge to where the tangent meets the level.  log g is concave, so it
    lies below that tangent: the step never stops short of the level, and
    beyond the edge g is at most exp(level + slope*distance).
    """
    n = peak.size
    shape, log_beta, log_k, peak, log_g_peak = (np.concatenate([a, a]) for a in
                                                (shape, log_beta, log_k, peak, log_g_peak))
    side = np.repeat([-1.0, 1.0], n)
    guess = peak + side * math.sqrt(2.0 * _FALL) * np.concatenate([width, width])
    log_g = _log_g(guess, shape, log_beta, log_k)
    slope = _slope(guess, shape, log_beta)[0]
    level = log_g_peak - _FALL
    edge = np.where(log_g > level, guess + (level - log_g) / slope, guess)
    tail = _exp(np.minimum(log_g, level) - log_g_peak) / (-side * slope)
    tail = np.where(side * slope < 0.0, tail, np.nan)
    return edge[:n], edge[n:], tail[:n] + tail[n:]


def _ragged(counts):
    """Slot layout of per-law runs of counts[i] values, laid end to end.

    Returns (law, index, start): each slot's law, its index within the law's
    run, and each run's first slot.
    """
    start = np.cumsum(counts) - counts
    law = np.repeat(np.arange(counts.size), counts)
    return law, np.arange(law.size) - start[law], start


@np.errstate(all="ignore")  # failures surface as NaN or inf and are named by the callers
def _direct(shape, beta):
    """(log BER, relative error bound, node count) of every law at once.

    The BER is the integral over x = log y of g(x) = erfc(e^(x/2))/2 * y*pdf(y),
    whose log is smooth and concave: a trapezoid rule converges on it
    geometrically, with error ~ exp(-pi^2/h), since erfc(e^(x/2)) blows up
    once |Im x| > pi/2.  Per law, the rule is centred on the peak of log g,
    with step h = min(_MAX_STEP, width/2) for width = 1/sqrt(-curvature)
    there, over the window where log g lies within _FALL of its peak.  It is
    then halved once on the midpoints.  The bound adds
    - the gap between the two levels;
    - both tails beyond the window, bounded through tangents of log g;
    - the rounding of log g, about eps * the size of its terms, and of the sum.
    The bound is inf where a search failed, the rule would need more than
    _MAX_NODES nodes or its sum is not finite (exp(log g - log g*) overflows
    where the rounding of log g, ~eps*|log g*|, passes ~709); a NaN integrand
    also gives a NaN BER.
    Every step is elementwise or a per-law sum (np.add.reduceat), so no law's
    bits depend on the others in the batch.
    """
    log_k, log_beta = _log(shape), _log(beta)
    peak, curvature = _peak(shape, beta, log_beta)
    width = 1.0 / np.sqrt(-curvature)
    log_g_peak = _log_g(peak, shape, log_beta, log_k)
    left, right, tail = _edges(peak, log_g_peak, width, shape, log_beta, log_k)
    step = np.minimum(_MAX_STEP, 0.5 * width)
    below = np.maximum(np.ceil((peak - left) / step), 1.0)
    above = np.maximum(np.ceil((right - peak) / step), 1.0)
    found = np.isfinite(tail) & (2.0 * (below + above) + 1.0 <= _MAX_NODES)
    below = np.where(found, below, 1.0).astype(np.intp)
    above = np.where(found, above, 1.0).astype(np.intp)

    # coarse nodes peak + j*step for j in [-below, above], then the midpoints
    coarse, coarse_j, coarse_start = _ragged(below + above + 1)
    mid, mid_j, mid_start = _ragged(below + above)
    law = np.concatenate([coarse, mid])
    offset = np.concatenate([coarse_j - below[coarse], mid_j - below[mid] + 0.5])
    g = _exp(_log_g(peak[law] + offset * step[law], shape[law], log_beta[law], log_k[law])
             - log_g_peak[law])
    coarse_sum = np.add.reduceat(g[:coarse.size], coarse_start)
    mid_sum = np.add.reduceat(g[coarse.size:], mid_start)

    total = coarse_sum + mid_sum
    tails = tail / (0.5 * step * total)
    nodes = 2 * (below + above) + 1
    u = peak + log_beta
    terms = np.abs(log_k) + np.abs((shape + 1.0) * special.log_expit(u)) + np.abs(u)
    rounding = _EPS * (2.0 * (terms + np.abs(log_g_peak)) + nodes)
    bound = np.where(found & np.isfinite(total),
                     np.abs(coarse_sum - mid_sum) / total + tails + rounding, np.inf)
    # the BER is at most 1/2, so clipping there only moves a value towards it
    log_ber = np.minimum(log_g_peak + _log(0.5 * step * total), -math.log(2.0))
    return log_ber, bound, nodes


def _route(dist: SirDistribution) -> str:
    return f"direct route at shape={dist.shape!r}, beta={dist.beta!r}"


def _direct_result(dist: SirDistribution, log_ber: float, bound: float) -> tuple:
    """One law's row of _direct as (BER, absolute error bound); a NaN or a loose bound raises.

    A law whose rule was not found (bound inf) raises without an estimate.
    """
    value, bound = math.exp(log_ber), float(bound)
    if math.isnan(value):
        raise QuadratureError(f"{_route(dist)}: integrand produced NaN")
    # A BER that underflows to 0.0 is exact, however loose its relative bound,
    # once even BER * (1 + bound) rounds to 0.0: log1p(bound) <= bound.
    if not (bound <= DEFAULT_REL_TOL or (value == 0.0 and log_ber + bound < _LOG_UNDERFLOW)):
        raise QuadratureError(
            f"{_route(dist)}: quadrature did not converge: relative error bound {bound:.1e} "
            f"exceeds the tolerance {DEFAULT_REL_TOL:.0e}",
            *((value, bound * value) if bound < math.inf else ()))
    return value, bound * value


def ber_direct(dist: SirDistribution) -> QuadratureResult:
    """Average BER by the trapezoid rule in log y of _direct, for one law.

    The value carries the rule's error bound, relative to the BER and at most
    DEFAULT_REL_TOL; a NaN integrand or a looser bound raises QuadratureError
    naming this route and the law's shape and beta.
    """
    log_ber, bound, nodes = _direct(np.array([dist.shape]), np.array([dist.beta]))
    value, error = _direct_result(dist, log_ber[0], bound[0])
    return QuadratureResult(value=value, abs_error_estimate=error, evaluations=int(nodes[0]))


def _gl(shape, beta):
    """Average BER of every law at once from the integrated-by-parts form.

    d/dy Gamma(1/2, y) = -y**(-1/2) e**(-y) and the SIR distribution function
    vanishes at 0, so the boundary terms drop and the average BER equals
    sum(w_i * cdf(y_i)) / (2*sqrt(pi)) over the DEFAULT_GL_ORDER-node
    y^(-1/2)e^(-y) rule of gauss_laguerre_half.  One sir_cdf call takes the
    laws as columns against the row of nodes, and each law's row is summed
    on its own (a reduction, not a BLAS product), so no law's bits depend on
    the others in the batch.
    """
    nodes, weights = gauss_laguerre_half(DEFAULT_GL_ORDER)
    cdf = sir_cdf(SimpleNamespace(shape=shape[:, None], beta=beta[:, None]), nodes)
    return np.add.reduce(weights * cdf, axis=1) / (2.0 * SQRT_PI)


def ber_gl(dist: SirDistribution) -> float:
    """Average BER by the Gauss-Laguerre rule of _gl, for one law, as a float."""
    return float(_gl(np.array([dist.shape]), np.array([dist.beta]))[0])


def ber_batch(dists) -> list:
    """ber() of every SIR law, in order, each route passing over _PASS_LAWS laws at once.

    Each entry is the law's BerResult, or the QuadratureError, CrossCheckError
    or ValueError that ber() raises for it, so a caller can stop at the first
    failing law in its own order.  No law's bits depend on the others.
    """
    dists = list(dists)
    outcomes = []
    for start in range(0, len(dists), _PASS_LAWS):
        part = dists[start:start + _PASS_LAWS]
        shape, beta = np.array([d.shape for d in part]), np.array([d.beta for d in part])
        log_bers, bounds, _ = _direct(shape, beta)
        for dist, log_ber, bound, alt in zip(part, log_bers, bounds, _gl(shape, beta).tolist()):
            try:
                value, error = _direct_result(dist, log_ber, bound)
                gap = abs(value - alt)
                outcomes.append(BerResult(ber=value, quad_error=error, route_disagreement=gap)
                                if gap < CROSS_CHECK_THRESHOLD
                                else CrossCheckError(value, alt))
            except (QuadratureError, ValueError) as exc:
                outcomes.append(exc)
    return outcomes


def ber(scenario: Scenario | SirDistribution) -> BerResult:
    """Average BER of a scenario or SIR law, cross-checked between both routes.

    Returns the direct route's value with its error bound and the route
    disagreement; raises QuadratureError when the direct route fails and
    CrossCheckError when the routes differ by CROSS_CHECK_THRESHOLD or more.
    """
    dist = sir_distribution(scenario) if isinstance(scenario, Scenario) else scenario
    (outcome,) = ber_batch([dist])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
