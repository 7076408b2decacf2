"""Average bit-error-rate of the BPSK link, by two independent numerical routes.

The direct route integrates the conditional error probability against the
SIR density with adaptive quadrature.  The second route integrates by parts
first, which turns the integral into the SIR distribution function weighted
by y^(-1/2) e^(-y) - exactly the generalized Gauss-Laguerre weight - so a
fixed rule evaluates it.  Both run on every top-level evaluation and must
agree, otherwise the evaluation fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Scenario, SirDistribution, sir_cdf, sir_distribution, sir_pdf
from .numerics import (
    MAX_GL_ORDER,
    SQRT_PI,
    QuadratureResult,
    gauss_laguerre_half,
    integrate_semi_infinite,
)

# Absolute dual-route agreement required by ber(); disagreement beyond this
# signals a numerics bug for shape >= 1 and moderate beta.  The Gauss-Laguerre
# route cannot resolve the y**(shape-1) endpoint kink when shape < 1, nor
# structure below its smallest node when beta is extreme (~1e9); use
# ber_direct or a relaxed threshold there.
CROSS_CHECK_THRESHOLD = 1e-7

# Order 64 leaves a ~3e-8 route gap in the strongest-interference corner of
# the study grids (shape 12, beta ~ 3.8); 128 restores < 1e-9 everywhere the
# cross-check is meant to hold.
DEFAULT_GL_ORDER = 128

_MIN_GL_ORDER = 8


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


def conditional_ber(gamma: float) -> float:
    """BPSK error probability at a fixed SIR: Gamma(1/2, gamma)/(2*sqrt(pi)) = erfc(sqrt(gamma))/2."""
    if not gamma >= 0.0:
        raise ValueError(f"SIR must be >= 0, got {gamma}")
    return 0.5 * math.erfc(math.sqrt(gamma))


def ber_direct(dist: SirDistribution) -> QuadratureResult:
    """Average BER by adaptive quadrature of conditional_ber against the SIR density.

    The tolerances are integrate_semi_infinite's defaults, set in numerics.
    """

    def integrand(y: float) -> float:
        return conditional_ber(y) * sir_pdf(dist, y)

    return integrate_semi_infinite(integrand)


def ber_gl(dist: SirDistribution, order: int = DEFAULT_GL_ORDER) -> float:
    """Average BER from the integrated-by-parts form.

    d/dy Gamma(1/2, y) = -y**(-1/2) e**(-y) and the SIR distribution function
    vanishes at 0, so the boundary terms drop and the average BER equals
    sum(w_i * cdf(y_i)) / (2*sqrt(pi)) over the y^(-1/2)e^(-y) rule.
    """
    if not _MIN_GL_ORDER <= order <= MAX_GL_ORDER:
        raise ValueError(f"order must be in [{_MIN_GL_ORDER}, {MAX_GL_ORDER}], got {order}")
    rule = gauss_laguerre_half(order)
    return float(np.dot(rule.weights, sir_cdf(dist, rule.nodes))) / (2.0 * SQRT_PI)


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
