"""The link scenario and the analytical signal-to-interference-ratio distribution.

The desired signal fades per branch with a Nakagami-m amplitude (squared
amplitude gamma-distributed), the single co-channel interferer is Rayleigh,
and the M maximal-ratio-combined branches yield an SIR whose law has the
two-parameter closed form carried by :class:`SirDistribution`.  A
:class:`Scenario` holds the link's nine numbers flat, and `sir_distribution`
reduces it to that law.  `sir_pdf` and `sir_cdf` take scalars or arrays;
`sir_pdf` evaluates the density in log space, and `sir_cdf` also broadcasts
over many laws at once, as `ber`'s Gauss-Laguerre route evaluates it.  `ber`'s
direct route evaluates y*pdf(y) in its own log form, and montecarlo samples
the fading laws instead of the closed form.

Both types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy


class SingularityError(ValueError):
    """Density evaluation requested exactly at an integrable singularity."""


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A complete link configuration, its nine fields in the CSV's column order.

    Nakagami severity m >= 0.5 and branch count M >= 1; mean branch and
    interferer fading powers sigma = E(h^2) and rho = E(alpha^2); transmit
    powers in dBm, distances s and t in meters and path-loss exponent n.
    Only p2_dbm - p1_dbm and s/t enter the interference-limited model.
    """

    m: float
    M: int = 1
    sigma: float = 1.0
    rho: float = 1.0
    p1_dbm: float
    p2_dbm: float
    s: float
    t: float
    n: float

    def __post_init__(self):
        # fading, interferer, link, then M: the order of a bad config's first error
        _require_finite(m=self.m, sigma=self.sigma)
        if not self.m >= 0.5:
            raise ValueError(f"Nakagami parameter m must be >= 0.5, got {self.m}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        _require_finite(rho=self.rho)
        if not self.rho > 0.0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        _require_finite(p1_dbm=self.p1_dbm, p2_dbm=self.p2_dbm, s=self.s, t=self.t, n=self.n)
        if not self.s > 0.0:
            raise ValueError(f"source-receiver distance s must be > 0, got {self.s}")
        if not self.t > 0.0:
            raise ValueError(f"interferer-receiver distance t must be > 0, got {self.t}")
        if not self.n > 0.0:
            raise ValueError(f"path-loss exponent n must be > 0, got {self.n}")
        if not (isinstance(self.M, int) and self.M >= 1):
            raise ValueError(f"branches must be an integer >= 1, got {self.M}")


@dataclass(frozen=True)
class SirDistribution:
    """Reduced two-parameter form of the combined-SIR density.

    pdf(y) = shape * beta**shape * y**(shape-1) * (1 + beta*y)**-(shape+1)
    cdf(y) = (beta*y / (1 + beta*y))**shape
    (sir_pdf evaluates the pdf through its logarithm)

    shape = M*m; beta folds the power ratio, distance ratio, path-loss
    exponent and the two mean fading powers into a single scale.  The mean of
    this distribution diverges for shape <= 1, so no mean accessor exists.
    """

    shape: float
    beta: float

    def __post_init__(self):
        _require_finite(shape=self.shape, beta=self.beta)
        if not self.shape >= 0.5:
            raise ValueError(f"shape must be >= 0.5, got {self.shape}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


def interference_scale(scenario: Scenario) -> float:
    """Scale c = (P2/P1)_linear * (s/t)^n * rho multiplying the interferer power."""
    return (10.0 ** ((scenario.p2_dbm - scenario.p1_dbm) / 10.0)
            * (scenario.s / scenario.t) ** scenario.n * scenario.rho)


def sir_distribution(scenario: Scenario) -> SirDistribution:
    """Reduce a scenario to the (shape, beta) parameters of its SIR law."""
    return SirDistribution(shape=scenario.M * scenario.m,
                           beta=scenario.m / scenario.sigma * interference_scale(scenario))


def sir_pdf(dist: SirDistribution, y):
    """Density of the combined SIR at y >= 0 (y > 0 required when shape < 1), in log space."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("SIR must be >= 0")
    if dist.shape < 1.0 and np.any(y == 0.0):
        raise SingularityError("pdf diverges at y = 0 for shape < 1; evaluate at y > 0")
    k = dist.shape  # xlogy(1, .) is libm's log, bit for bit
    out = np.exp(xlogy(1.0, k) + xlogy(k, dist.beta) + xlogy(k - 1.0, y)
                 - (k + 1.0) * np.log1p(dist.beta * y))
    return float(out) if out.ndim == 0 else out


def sir_cdf(dist: SirDistribution, y):
    """Distribution function (beta*y / (1 + beta*y))**shape; 0 at 0, 1 at infinity.

    dist.shape and dist.beta broadcast against y, so a dist whose shape and
    beta are columns of many laws evaluates them all against a row of y.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("SIR must be >= 0")
    # clamped so that t/(1+t) is 1, not inf/inf, once beta*y overflows
    t = np.minimum(dist.beta * y, np.finfo(float).max)
    out = (t / (1.0 + t)) ** dist.shape
    return float(out) if out.ndim == 0 else out
