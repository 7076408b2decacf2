#!/usr/bin/env python3
"""Regenerate tests/data/reference_ber.csv from mpmath's Tricomi U.

Each row holds the average BER of one SIR law (shape k, scale beta) in
closed form (DLMF 13.4, after substituting t = beta*y in the integrated-by-
parts BER integral):

    BER = Gamma(k + 1/2) / (2 sqrt(pi)) * beta^(-1/2) * U(k + 1/2, 3/2, 1/beta)

at 50 significant digits, rounded once to the nearest double.  It shares no
code with the package, which integrates numerically with scipy, so the
analytic routes are held against it.  Laws whose BER underflows a normal
double are left out.  Rerun only when the grid changes.
"""

import itertools
import os
import sys

import mpmath

REFERENCE_PATH = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir,
                                               "tests", "data", "reference_ber.csv"))
DPS = 50
SHAPES = (0.5, 1.0, 2.3, 4.0, 12.0, 24.0, 36.0, 50.0, 100.0, 320.0)
BETAS = (1e-4, 1e-2, 0.305, 1.0, 5.0, 40.0, 1e3)
# High diversity orders.  At beta <= 1e-2 mpmath's hyperu does not converge
# for these shapes (it raises NoConvergence, or ValueError after 10-27 s), so
# only shape 1000 has a row there.
HIGH_ORDER_SHAPES = (1000.0, 5000.0, 3e4, 1e5)
HIGH_ORDER_BETAS = (0.305, 1.0, 5.0, 40.0, 1e3)
# Strong interference, where the order-128 Gauss-Laguerre rule is off by up
# to 1.2e-2, and fig2's link (m 3, M 2, 17/10 dBm, n 3.5) at s = 2t: shape 6
# at the beta the package computes for it, 6.772144863170228.
WIDE_BETAS = (1e2, 1e4, 1e8)
FIG2_AT_TWICE_T = (6.0, 6.772144863170228)
LAWS = (tuple(itertools.product(SHAPES, BETAS)) + ((1000.0, 1e-2),)
        + tuple(itertools.product(HIGH_ORDER_SHAPES, HIGH_ORDER_BETAS))
        + tuple(itertools.product(SHAPES, WIDE_BETAS)) + (FIG2_AT_TWICE_T,))


def reference_ber(shape: float, beta: float) -> mpmath.mpf:
    """The closed form above for the law (shape, beta), at DPS digits."""
    with mpmath.workdps(DPS):
        k, b = mpmath.mpf(shape), mpmath.mpf(beta)
        a = k + mpmath.mpf(1) / 2
        return mpmath.gamma(a) / (2 * mpmath.sqrt(mpmath.pi)) / mpmath.sqrt(b) \
            * mpmath.hyperu(a, mpmath.mpf(3) / 2, 1 / b)


def main() -> None:
    lines = ["shape,beta,ber"]
    for shape, beta in LAWS:
        value = float(reference_ber(shape, beta))
        if value < sys.float_info.min:
            print(f"shape {shape!r}, beta {beta!r}: underflows a double, skipped")
            continue
        lines.append(f"{shape!r},{beta!r},{value!r}")
    with open(REFERENCE_PATH, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {REFERENCE_PATH} ({len(lines) - 1} rows)")


if __name__ == "__main__":
    main()
