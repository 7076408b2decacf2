"""Independent reference values and the output check.

The reference BER is the closed form through Tricomi's confluent
hypergeometric function U (DLMF 13.4, after substituting t = beta*y in the
integrated-by-parts BER integral):

    BER = Gamma(k + 1/2) / (2 sqrt(pi)) * beta^(-1/2) * U(k + 1/2, 3/2, 1/beta),  k = M*m

evaluated with mpmath at 30 significant digits.  It shares no code with the
package (which integrates numerically with scipy), so agreement checks both.
"""

from __future__ import annotations

import csv
import io

import mpmath

DPS = 30

# |ber - ref| <= BER_RTOL * ref on every row.  Over 4e4 random points with
# BER >= 1e-6 (M*m 1-36, beta <= 4) the package's adaptive route stays within
# 9e-10; nearer BER 1e-9 its 1e-12 absolute tolerance allows 1.4e-6, and its
# false early stops miss by 0.3-53% (see workloads.BER_FLOOR).
BER_RTOL = 1e-5
# A validate row fails the benchmark when the Monte Carlo mean sits more than
# this many standard errors from the reference (the CLI's own verdict uses 3).
MC_SIGMAS = 5.0
# Parameter columns are printed to 12 significant digits.
PARAM_RTOL = 1e-10

HEADER = "m,M,sigma,rho,p1_dbm,p2_dbm,s,t,n,shape,beta,ber,quad_err"
HEADER_VALIDATE = HEADER + ",mc_mean,mc_std_error,ks_stat,pass"


def beta_of(p: dict) -> float:
    """beta = (m/sigma) (P2/P1) (s/t)^n rho, with unit sigma and rho."""
    return p["m"] * 10.0 ** ((p["p2_dbm"] - p["p1_dbm"]) / 10.0) * (p["s"] / p["t"]) ** p["n"]


def shape_of(p: dict) -> float:
    return p["M"] * p["m"]


def ber_ref(shape: float, beta: float) -> float:
    with mpmath.workdps(DPS):
        k, b = mpmath.mpf(shape), mpmath.mpf(beta)
        a = k + mpmath.mpf(1) / 2
        value = mpmath.gamma(a) / (2 * mpmath.sqrt(mpmath.pi)) / mpmath.sqrt(b) \
            * mpmath.hyperu(a, mpmath.mpf(3) / 2, 1 / b)
        return float(value)


def ber_cached(refs: dict, shape: float, beta: float) -> float:
    key = (shape, beta)
    if key not in refs:
        refs[key] = ber_ref(shape, beta)
    return refs[key]


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


class CheckFailed(Exception):
    """An output row disagrees with the expected grid or the reference."""


def _rows(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"unexpected header {lines[:1]!r}")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def check_grid(text: str, points, refs: dict, validate: bool) -> int:
    """Check a sweep/point/validate CSV; return the number of rows the CLI flagged.

    Raises CheckFailed on any mismatch.
    """
    rows = _rows(text, HEADER_VALIDATE if validate else HEADER)
    if len(rows) != len(points):
        raise CheckFailed(f"{len(rows)} rows for {len(points)} grid points")
    flagged = 0
    for row, p in zip(rows, points):
        got = dict(zip(HEADER_VALIDATE.split(","), row))
        for key in ("m", "M", "p1_dbm", "p2_dbm", "s", "t", "n"):
            if not _close(float(got[key]), float(p[key]), PARAM_RTOL):
                raise CheckFailed(f"{key}={got[key]} where the grid has {p[key]}")
        shape, beta = shape_of(p), beta_of(p)
        if not (_close(float(got["shape"]), shape, PARAM_RTOL)
                and _close(float(got["beta"]), beta, PARAM_RTOL)):
            raise CheckFailed(f"shape/beta {got['shape']}/{got['beta']} != {shape}/{beta}")
        ref = ber_cached(refs, shape, beta)
        ber = float(got["ber"])
        if not _close(ber, ref, BER_RTOL):
            raise CheckFailed(f"ber {ber!r} vs reference {ref!r} at shape {shape}, beta {beta}")
        if validate:
            mean, se = float(got["mc_mean"]), float(got["mc_std_error"])
            if not abs(mean - ref) <= MC_SIGMAS * se:
                raise CheckFailed(f"Monte Carlo mean {mean!r} is over {MC_SIGMAS} "
                                  f"standard errors ({se!r}) from {ref!r}")
            if got["pass"] not in ("0", "1"):
                raise CheckFailed(f"pass column {got['pass']!r}")
            flagged += got["pass"] == "0"
    return flagged
