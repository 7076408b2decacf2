"""Special functions and semi-infinite quadrature used by the analytical link model.

The incomplete gamma function and the generalized Gauss-Laguerre rule come
from scipy.special (gammaincc, roots_genlaguerre).  Everything in this
module is a pure function of its arguments; there is no shared mutable
state, so all operations are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from scipy import integrate, special

SQRT_PI = math.sqrt(math.pi)

# Tolerances of every analytical evaluation; nothing outside this module sets
# them.  Tight enough that Monte Carlo statistical error dominates every
# cross-validation.
DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12

MAX_GL_ORDER = 128


class QuadratureError(RuntimeError):
    """Quadrature failed to converge. Carries the best available estimate."""

    def __init__(self, message: str, best_estimate: float = math.nan,
                 error_estimate: float = math.inf):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


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


def ln_gamma(a: float) -> float:
    """Natural logarithm of the gamma function, a > 0."""
    if not a > 0.0:
        raise ValueError(f"ln_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def erfc(x: float) -> float:
    """Complementary error function; value in (0, 2) for finite x."""
    return math.erfc(x)


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Non-regularized upper incomplete gamma Gamma(a) * gammaincc(a, x); non-increasing in x."""
    if not a > 0.0:
        raise ValueError(f"upper_incomplete_gamma requires a > 0, got {a}")
    if not x >= 0.0:
        raise ValueError(f"upper_incomplete_gamma requires x >= 0, got {x}")
    return math.exp(math.lgamma(a)) * float(special.gammaincc(a, x))


def integrate_semi_infinite(f: Callable[[float], float],
                            rel_tol: float = DEFAULT_REL_TOL,
                            abs_tol: float = DEFAULT_ABS_TOL) -> QuadratureResult:
    """Adaptively integrate f over (0, inf).

    Tolerates an integrable power singularity at the origin up to y^(-1/2):
    the substitution y = u**2 removes it before the transformed integrand is
    handed to adaptive Gauss-Kronrod quadrature.  The endpoint itself is
    never evaluated.
    """
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be positive")

    def transformed(u: float) -> float:
        return 2.0 * u * f(u * u)

    out = integrate.quad(transformed, 0.0, math.inf,
                         epsabs=abs_tol, epsrel=rel_tol,
                         limit=250, full_output=1)
    value, abs_err, info = out[0], out[1], out[2]
    if math.isnan(value):
        raise QuadratureError("integrand produced NaN", best_estimate=value,
                              error_estimate=abs_err)
    if len(out) > 3:
        raise QuadratureError(f"quadrature did not converge: {out[3]}",
                              best_estimate=value, error_estimate=abs_err)
    return QuadratureResult(value=value, abs_error_estimate=abs_err,
                            evaluations=int(info["neval"]))


@dataclass(frozen=True)
class GaussLaguerreRule:
    """Nodes and weights for the generalized weight y^(-1/2) * exp(-y) on (0, inf)."""

    order: int
    nodes: tuple
    weights: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise ValueError("nodes/weights length must equal order")
        prev = 0.0
        for y, w in zip(self.nodes, self.weights):
            if not y > prev:
                raise ValueError("nodes must be positive and strictly increasing")
            if not w > 0.0:
                raise ValueError("weights must be positive")
            prev = y
        if abs(math.fsum(self.weights) - SQRT_PI) > 1e-12:
            raise ValueError("weight sum must equal sqrt(pi) to 1e-12")


def gauss_laguerre_half(order: int) -> GaussLaguerreRule:
    """Generalized Gauss-Laguerre rule for the weight y^(-1/2) * exp(-y).

    Built by scipy.special.roots_genlaguerre (the Golub-Welsch eigenvalue
    method).  Exact for polynomials up to degree 2*order - 1 under the weight.
    """
    if not 1 <= order <= MAX_GL_ORDER:
        raise ValueError(f"order must be in [1, {MAX_GL_ORDER}], got {order}")
    return _gauss_laguerre_half_cached(order)


@lru_cache(maxsize=None)
def _gauss_laguerre_half_cached(order: int) -> GaussLaguerreRule:
    nodes, weights = special.roots_genlaguerre(order, -0.5)
    return GaussLaguerreRule(order=order, nodes=tuple(nodes.tolist()),
                             weights=tuple(weights.tolist()))
