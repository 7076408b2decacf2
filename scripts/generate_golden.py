#!/usr/bin/env python3
"""Regenerate tests/data/golden_ber.csv from the Monte Carlo oracle.

Each row freezes a 10^7-sample semi-analytic BER estimate with its standard
error for one reference scenario.  The committed file is the long-term
regression anchor: the analytical route must reproduce every mean within
three standard errors.  Rerun only when the reference grid itself changes.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

from conftest import BER_GRID, GOLDEN_PATH, scen  # noqa: E402
from sirlink import estimate_ber  # noqa: E402
from sirlink.montecarlo import derived_seed  # noqa: E402

SAMPLES = 10 ** 7
MASTER_SEED = 20230215


def main() -> None:
    lines = ["label,m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,samples,seed,mc_mean,mc_std_error"]
    for index, (label, scenario) in enumerate(BER_GRID):
        seed = derived_seed(MASTER_SEED, index)
        estimate = estimate_ber(scenario, SAMPLES, seed)
        fields = [
            label,
            f"{scenario.m:.12g}", str(scenario.M),
            *(f"{getattr(scenario, key):.12g}"
              for key in ("sigma", "rho", "p1_dbm", "p2_dbm", "s", "t", "n")),
            str(SAMPLES), str(seed),
            f"{estimate.mean:.17g}", f"{estimate.std_error:.17g}",
        ]
        lines.append(",".join(fields))
        print(f"{label}: {estimate.mean:.6e} +- {estimate.std_error:.2e}")
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
