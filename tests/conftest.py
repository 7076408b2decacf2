"""Shared scenario builders and the canonical evaluation grids."""

import os

import mpmath

from sirlink import (
    FadingParams,
    InterfererParams,
    LinkBudget,
    Scenario,
    SirDistribution,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "golden_ber.csv")
REFERENCE_PATH = os.path.join(DATA_DIR, "reference_ber.csv")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def scen(m, M, p1, p2, s, t, n, sigma=1.0, rho=1.0):
    return Scenario(
        fading=FadingParams(m=m, sigma=sigma),
        interferer=InterfererParams(rho=rho),
        link=LinkBudget(p1_dbm=p1, p2_dbm=p2, s=s, t=t, n=n),
        branches=M,
    )


# The three published distance/diversity/interference studies, at their fixed
# parameters (the interference study never states s; 100 m is the artifact's
# documented stand-in).
FIG2 = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5)
FIG3 = tuple(scen(m=2, M=M, p1=15, p2=6, s=90, t=90, n=3.0) for M in (1, 2, 3, 4))
FIG4 = tuple(scen(m=4, M=3, p1=15, p2=p2, s=100, t=80, n=2.9)
             for p2 in (0, 3, 6, 9, 12))
CANONICAL = scen(m=1, M=1, p1=10, p2=10, s=100, t=100, n=2.0)  # shape 1, beta 1

# BER-level grid: every named scenario of acceptance criteria 4-7.  All have
# shape >= 1; the Gauss-Laguerre route cannot resolve the endpoint kink of
# shape < 1 laws, which are exercised at the density level instead.
BER_GRID = (("study2", FIG2),) \
    + tuple((f"study3_M{i + 1}", sc) for i, sc in enumerate(FIG3)) \
    + tuple((f"study4_p{p2}", sc) for p2, sc in zip((0, 3, 6, 9, 12), FIG4)) \
    + (("canonical", CANONICAL),)

# Density-level grid: 12 (shape, beta) points spanning shape {0.5, 1, 2, 6, 12}
# and beta {0.01, 0.2, 1, 10}, including the severest-fading corner.
CHANNEL_GRID = tuple(SirDistribution(shape=sh, beta=b) for sh, b in (
    (0.5, 0.2), (0.5, 1.0), (0.5, 10.0),
    (1.0, 0.01), (1.0, 1.0), (1.0, 10.0),
    (2.0, 0.2), (2.0, 1.0),
    (6.0, 0.01), (6.0, 0.2),
    (12.0, 1.0), (12.0, 10.0),
))

# Scenario-level points for checking the closed-form density against direct
# quadrature of the physical-model integral; 20 (scenario, y) pairs.
PDF_ORACLE_SCENARIOS = (
    scen(m=0.5, M=1, p1=10, p2=10, s=100, t=100, n=2.0),            # shape 0.5
    scen(m=1.0, M=1, p1=12, p2=10, s=80, t=100, n=3.0, sigma=2.0, rho=0.5),
    FIG2,                                                            # shape 6
    scen(m=2.0, M=2, p1=15, p2=6, s=90, t=90, n=3.0, sigma=1.5, rho=2.0),
    scen(m=4.0, M=3, p1=15, p2=6, s=100, t=80, n=2.9),               # shape 12
    scen(m=0.75, M=2, p1=10, p2=10, s=120, t=60, n=2.0),             # shape 1.5
    scen(m=2.5, M=1, p1=20, p2=10, s=150, t=100, n=2.5, sigma=0.8, rho=1.3),
)
PDF_ORACLE_POINTS = tuple(
    (sc, y) for sc in PDF_ORACLE_SCENARIOS for y in (0.1, 1.0, 5.0)
)[:20]


def closed_form_pdf(shape, beta, y):
    """The SIR density's closed form in mpmath at 40 digits; independent of sir_pdf."""
    with mpmath.workdps(40):
        k, b, y = mpmath.mpf(shape), mpmath.mpf(beta), mpmath.mpf(y)
        return k * b ** k * y ** (k - 1) * (1 + b * y) ** -(k + 1)
