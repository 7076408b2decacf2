"""Average bit-error-rate of the BPSK link, by two independent numerical routes.

The direct route integrates the conditional error probability against the
SIR density's log form (channel.log_pdf_terms, in scalar `math` calls) with
QUADPACK (scipy quad) to a relative-only tolerance, so deep-quiet and
high-order laws keep their digits.  The second route integrates by parts
first, which turns the integral into the SIR distribution function weighted
by y^(-1/2) e^(-y) - exactly the generalized Gauss-Laguerre weight - so a
fixed 128-node rule evaluates it as one dot product over scipy's arrays.
Both run on every top-level evaluation and must agree, otherwise the
evaluation fails loudly.

The quadrature tolerance, the rule (scipy roots_genlaguerre, cached as
read-only arrays) and the paper's Gamma(1/2, .) (scipy gammaincc) live here
too.  All functions are pure; the rule cache is the only shared state and
cannot be written, so all are thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .channel import Scenario, SirDistribution, log_pdf_terms, sir_cdf, sir_distribution

SQRT_PI = math.sqrt(math.pi)

# Tolerance of every analytical evaluation; nothing outside this module sets
# it.  It is relative only, so a BER of 1e-20 is resolved to the same digits
# as one of 1e-2, and tight enough that Monte Carlo statistical error
# dominates every cross-validation.
DEFAULT_REL_TOL = 1e-10

# Absolute dual-route agreement required by ber(); disagreement beyond this
# signals a route defect for shape >= 1 and moderate beta.  The Gauss-Laguerre
# route cannot resolve the y**(shape-1) endpoint kink when shape < 1, nor
# structure below its smallest node when beta is extreme (~1e9); use
# ber_direct or a relaxed threshold there.
CROSS_CHECK_THRESHOLD = 1e-7

# Order 64 leaves a ~3e-8 route gap in the strongest-interference corner of
# the study grids (shape 12, beta ~ 3.8); 128 restores < 1e-9 everywhere the
# cross-check is meant to hold.  It is also the largest order
# gauss_laguerre_half accepts.
DEFAULT_GL_ORDER = 128


class QuadratureError(RuntimeError):
    """Quadrature failed to converge. Carries the best available estimate."""

    def __init__(self, message: str, best_estimate: float = math.nan,
                 error_estimate: float = math.inf):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class CrossCheckError(RuntimeError):
    """The two BER routes disagreed; carries both values."""

    def __init__(self, direct: float, gauss_laguerre: float, threshold: float):
        super().__init__(
            f"BER routes disagree: direct={direct!r}, gauss_laguerre={gauss_laguerre!r}, "
            f"|diff|={abs(direct - gauss_laguerre):.3e} >= {threshold:.1e}")
        self.direct = direct
        self.gauss_laguerre = gauss_laguerre
        self.threshold = threshold


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

    Built by scipy.special.roots_genlaguerre (the Golub-Welsch eigenvalue
    method).  Exact for polynomials up to degree 2*order - 1 under the weight.
    Both arrays are cached and read-only, so no caller can corrupt the rule
    every later call shares.
    """
    if not 1 <= order <= DEFAULT_GL_ORDER:
        raise ValueError(f"order must be in [1, {DEFAULT_GL_ORDER}], got {order}")
    nodes, weights = special.roots_genlaguerre(order, -0.5)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def ber_direct(dist: SirDistribution) -> QuadratureResult:
    """Average BER by adaptive quadrature of conditional_ber against the SIR density.

    Each node evaluates 0.5*erfc(sqrt(y)) * exp(log pdf(y)) from log_pdf_terms,
    so neither beta**k nor y**(k-1) overflows or underflows on its own.
    QUADPACK integrates over u = sqrt(y) in (0, inf), which removes the shape < 1
    endpoint singularity, to the relative tolerance DEFAULT_REL_TOL.  A NaN
    integrand, non-convergence (QUADPACK's message on one line) or a math range
    error names this route and the law's shape and beta.
    """
    route = f"direct route at shape={dist.shape!r}, beta={dist.beta!r}"
    beta = dist.beta
    head, rise, fall = log_pdf_terms(dist)
    erfc, exp, log, log1p, sqrt = math.erfc, math.exp, math.log, math.log1p, math.sqrt

    def integrand(u: float) -> float:
        y = u * u
        pdf = exp(head + rise * log(y) - fall * log1p(beta * y))
        return 2.0 * u * (0.5 * erfc(sqrt(y)) * pdf)

    try:
        out = integrate.quad(integrand, 0.0, math.inf,
                             epsabs=0.0, epsrel=DEFAULT_REL_TOL,
                             limit=250, full_output=1)
    except OverflowError as exc:
        raise OverflowError(f"{route}: {exc}") from exc
    value, abs_err, info = out[0], out[1], out[2]
    if math.isnan(value):
        raise QuadratureError(f"{route}: integrand produced NaN", value, abs_err)
    if len(out) > 3:
        message = " ".join(out[3].split())
        raise QuadratureError(f"{route}: quadrature did not converge: {message}",
                              value, abs_err)
    return QuadratureResult(value=value, abs_error_estimate=abs_err,
                            evaluations=int(info["neval"]))


def ber_gl(dist: SirDistribution) -> float:
    """Average BER from the integrated-by-parts form, as a float.

    d/dy Gamma(1/2, y) = -y**(-1/2) e**(-y) and the SIR distribution function
    vanishes at 0, so the boundary terms drop and the average BER equals
    sum(w_i * cdf(y_i)) / (2*sqrt(pi)) over the DEFAULT_GL_ORDER-node
    y^(-1/2)e^(-y) rule of gauss_laguerre_half.
    """
    nodes, weights = gauss_laguerre_half(DEFAULT_GL_ORDER)
    return float(np.dot(weights, sir_cdf(dist, nodes))) / (2.0 * SQRT_PI)


def ber(scenario: Scenario | SirDistribution,
        cross_check_threshold: float = CROSS_CHECK_THRESHOLD) -> BerResult:
    """Average BER of a scenario or SIR law, cross-checked between both routes.

    Returns the direct-quadrature value with the route disagreement recorded;
    raises CrossCheckError when the routes differ by the threshold or more.
    """
    dist = sir_distribution(scenario) if isinstance(scenario, Scenario) else scenario
    direct = ber_direct(dist)
    alt = ber_gl(dist)
    disagreement = abs(direct.value - alt)
    if not disagreement < cross_check_threshold:
        raise CrossCheckError(direct.value, alt, cross_check_threshold)
    return BerResult(ber=direct.value,
                     quad_error=direct.abs_error_estimate,
                     route_disagreement=disagreement)
