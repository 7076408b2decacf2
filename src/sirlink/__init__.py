"""Interference-limited fading-link analysis toolkit.

Computes the bit-error-rate of a BPSK link with Nakagami-m branch fading,
M-branch maximal-ratio combining and a single Rayleigh co-channel interferer,
both analytically and by Monte Carlo simulation, each route validating the
other.  Modules: `channel` (the scenario and its SIR law), `ber` (both analytic
routes and the quadrature under them), `montecarlo` (oracle), `cli`.
"""

from .ber import (
    CROSS_CHECK_THRESHOLD,
    DEFAULT_GL_ORDER,
    BerResult,
    CrossCheckError,
    QuadratureError,
    QuadratureResult,
    ber,
    ber_direct,
    ber_gl,
    conditional_ber,
    gauss_laguerre_half,
    upper_incomplete_gamma,
)
from .channel import (
    Scenario,
    SingularityError,
    SirDistribution,
    interference_scale,
    sir_cdf,
    sir_distribution,
    sir_pdf,
)
from .montecarlo import (
    McEstimate,
    estimate_ber,
    ks_statistic,
    sample_sir,
)

__version__ = "0.5.0"

__all__ = [
    "BerResult", "CROSS_CHECK_THRESHOLD", "CrossCheckError", "DEFAULT_GL_ORDER",
    "McEstimate", "QuadratureError", "QuadratureResult",
    "Scenario", "SingularityError", "SirDistribution",
    "ber", "ber_direct", "ber_gl", "conditional_ber", "estimate_ber",
    "gauss_laguerre_half", "interference_scale", "ks_statistic",
    "sample_sir", "sir_cdf",
    "sir_distribution", "sir_pdf", "upper_incomplete_gamma",
]
