"""Link-scenario types and the analytical signal-to-interference-ratio distribution.

The desired signal fades per branch with a Nakagami-m amplitude (squared
amplitude gamma-distributed), the single co-channel interferer is Rayleigh,
and the M maximal-ratio-combined branches yield an SIR whose density has the
two-parameter closed form carried by :class:`SirDistribution`: the only
density the package evaluates (montecarlo samples the fading laws instead).
`sir_pdf` and `sir_cdf` take scalars or arrays; `sir_pdf` evaluates the
density in log space, and `sir_cdf` also broadcasts over many laws at once,
as `ber`'s Gauss-Laguerre route evaluates it.

All types are immutable after construction and all operations are pure.
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


@dataclass(frozen=True)
class FadingParams:
    """Nakagami severity m (>= 0.5) and mean branch power sigma = E(h^2) > 0."""

    m: float
    sigma: float = 1.0

    def __post_init__(self):
        _require_finite(m=self.m, sigma=self.sigma)
        if not self.m >= 0.5:
            raise ValueError(f"Nakagami parameter m must be >= 0.5, got {self.m}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class InterfererParams:
    """Mean interferer fading power rho = E(alpha^2) > 0."""

    rho: float = 1.0

    def __post_init__(self):
        _require_finite(rho=self.rho)
        if not self.rho > 0.0:
            raise ValueError(f"rho must be > 0, got {self.rho}")


@dataclass(frozen=True)
class LinkBudget:
    """Transmit powers (dBm), link distances (meters) and path-loss exponent.

    Only the power difference p2_dbm - p1_dbm and the distance ratio s/t enter
    the interference-limited model; absolute powers and absolute distances are
    accepted for convenience but affect nothing else (noise is out of model).
    """

    p1_dbm: float
    p2_dbm: float
    s: float
    t: float
    n: float

    def __post_init__(self):
        _require_finite(p1_dbm=self.p1_dbm, p2_dbm=self.p2_dbm, s=self.s, t=self.t, n=self.n)
        if not self.s > 0.0:
            raise ValueError(f"source-receiver distance s must be > 0, got {self.s}")
        if not self.t > 0.0:
            raise ValueError(f"interferer-receiver distance t must be > 0, got {self.t}")
        if not self.n > 0.0:
            raise ValueError(f"path-loss exponent n must be > 0, got {self.n}")


@dataclass(frozen=True)
class Scenario:
    """A complete link configuration: fading, interferer, geometry, diversity order."""

    fading: FadingParams
    interferer: InterfererParams
    link: LinkBudget
    branches: int = 1

    def __post_init__(self):
        if not (isinstance(self.branches, int) and self.branches >= 1):
            raise ValueError(f"branches must be an integer >= 1, got {self.branches}")


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


def interference_scale(link: LinkBudget, rho: float) -> float:
    """Scale c = (P2/P1)_linear * (s/t)^n * rho multiplying the interferer power."""
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho}")
    return 10.0 ** ((link.p2_dbm - link.p1_dbm) / 10.0) * (link.s / link.t) ** link.n * rho


def sir_distribution(scenario: Scenario) -> SirDistribution:
    """Reduce a scenario to the (shape, beta) parameters of its SIR law."""
    fading = scenario.fading
    c = interference_scale(scenario.link, scenario.interferer.rho)
    return SirDistribution(shape=scenario.branches * fading.m,
                           beta=fading.m / fading.sigma * c)


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
