"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime budgets are fixed here, not configurable.
"""

import csv
import math
import os
import subprocess
import sys
import time
from math import erfc

import numpy as np
from scipy import integrate

from conftest import (
    BER_GRID,
    CHANNEL_GRID,
    CONFIG_DIR,
    FIG2,
    FIG3,
    FIG4,
    GOLDEN_PATH,
    PDF_ORACLE_POINTS,
    scen,
)
from sirlink import (
    SirDistribution,
    ber,
    ber_direct,
    ber_gl,
    estimate_ber,
    interference_scale,
    ks_statistic,
    sample_sir,
    sir_cdf,
    sir_distribution,
    sir_pdf,
    upper_incomplete_gamma,
)
from sirlink.ber import SQRT_PI
from test_channel import sir_pdf_physical_oracle


def _report(number: int, label: str, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    suffix = f" | {detail}" if detail else ""
    print(f"\nacceptance criterion {number} [{label}] PASS ({elapsed:.2f} s){suffix}")
    assert elapsed < budget, f"criterion {number} exceeded {budget} s budget"


def test_criterion_1_special_functions():
    started = time.perf_counter()
    worst = 0.0
    for a in (0.5, 1.0, 2.5, 6.0):
        for x in (0.0, 0.1, 1.0, 10.0):
            lhs = upper_incomplete_gamma(a + 1.0, x)
            rhs = a * upper_incomplete_gamma(a, x) + x ** a * math.exp(-x)
            rel = abs(lhs - rhs) / abs(rhs)
            worst = max(worst, rel)
            assert rel < 1e-10
    for x in (0.0, 0.01, 1.0, 4.0, 25.0):
        lhs = upper_incomplete_gamma(0.5, x)
        rhs = SQRT_PI * erfc(math.sqrt(x))
        rel = abs(lhs - rhs) / abs(rhs)
        worst = max(worst, rel)
        assert rel < 1e-10
    _report(1, "special functions", started, budget=1.0, detail=f"worst rel {worst:.1e}")


def test_criterion_2_closed_form_vs_brute_force():
    started = time.perf_counter()
    assert len(PDF_ORACLE_POINTS) == 20
    assert any(sir_distribution(sc).shape == 0.5 for sc, _ in PDF_ORACLE_POINTS)
    worst = 0.0
    for scenario, y in PDF_ORACLE_POINTS:
        closed = sir_pdf(sir_distribution(scenario), y)
        brute = sir_pdf_physical_oracle(scenario, y)
        worst = max(worst, abs(closed - brute))
        assert abs(closed - brute) < 1e-8
    _report(2, "density vs physical integral", started, budget=10.0,
            detail=f"worst abs {worst:.1e} over 20 points")


def test_criterion_3_normalization_and_cdf():
    started = time.perf_counter()
    worst = 0.0
    for dist in CHANNEL_GRID:
        total, _ = integrate.quad(lambda u: 2.0 * u * sir_pdf(dist, u * u),
                                  0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=200)
        worst = max(worst, abs(total - 1.0))
        assert abs(total - 1.0) < 1e-8
        for y in (0.4, 2.0, 9.0):
            part, _ = integrate.quad(lambda u: 2.0 * u * sir_pdf(dist, u * u),
                                     0.0, math.sqrt(y), epsabs=1e-12, epsrel=1e-11)
            gap = abs(sir_cdf(dist, y) - part)
            worst = max(worst, gap)
            assert gap < 1e-8
    _report(3, "normalization and cdf consistency", started, budget=10.0,
            detail=f"worst abs {worst:.1e} over {len(CHANNEL_GRID)} laws")


def test_criterion_4_dual_route_agreement():
    started = time.perf_counter()
    worst = 0.0
    for label, scenario in BER_GRID:
        dist = sir_distribution(scenario)
        gap = abs(ber_direct(dist).value - ber_gl(dist))
        worst = max(worst, gap)
        assert gap < 1e-8, f"{label}: |direct - gl| = {gap:.2e}"
    _report(4, "dual-route agreement", started, budget=10.0,
            detail=f"worst gap {worst:.1e} over {len(BER_GRID)} scenarios")


def test_criterion_5_monte_carlo_equivalence():
    started = time.perf_counter()
    worst_sigmas = 0.0
    worst_ks = 0.0
    for index, (label, scenario) in enumerate(BER_GRID):
        analytic = ber(scenario).ber
        estimate = estimate_ber(scenario, 10 ** 6, seed=1000 + index)
        sigmas = abs(analytic - estimate.mean) / estimate.std_error
        worst_sigmas = max(worst_sigmas, sigmas)
        assert sigmas <= 3.0, f"{label}: {sigmas:.2f} standard errors"
        draws = sample_sir(np.random.default_rng(2000 + index), scenario, size=10 ** 6)
        ks = ks_statistic(draws, sir_distribution(scenario))
        worst_ks = max(worst_ks, ks)
        assert ks < 0.005, f"{label}: KS = {ks:.4f}"
    with open(GOLDEN_PATH, newline="") as handle:
        golden_rows = list(csv.DictReader(handle))
    assert len(golden_rows) == len(BER_GRID)
    for row in golden_rows:
        scenario = scen(m=float(row["m"]), M=int(row["M"]),
                        p1=float(row["p1_dbm"]), p2=float(row["p2_dbm"]),
                        s=float(row["s"]), t=float(row["t"]), n=float(row["n"]),
                        sigma=float(row["sigma"]), rho=float(row["rho"]))
        analytic = ber(scenario).ber
        mean = float(row["mc_mean"])
        se = float(row["mc_std_error"])
        assert int(row["samples"]) == 10 ** 7
        sigmas = abs(analytic - mean) / se
        worst_sigmas = max(worst_sigmas, sigmas)
        assert sigmas <= 3.0, f"golden {row['label']}: {sigmas:.2f} standard errors"
    _report(5, "Monte Carlo equivalence", started, budget=300.0,
            detail=f"worst {worst_sigmas:.2f} sigma, worst KS {worst_ks:.4f}")


def _axis_values(center, step):
    return [center + k * step for k in (-2, -1, 0, 1, 2)]


def test_criterion_6_monotonicity():
    started = time.perf_counter()
    centers = {
        "study2": dict(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5),
        "study3": dict(m=2, M=2, p1=15, p2=6, s=90, t=90, n=3.0),
        "study4": dict(m=4, M=3, p1=15, p2=6, s=100, t=80, n=2.9),
    }
    checked = 0
    for label, base in centers.items():
        axes = {
            "s": (_axis_values(base["s"], 20.0), "increasing"),
            "t": (_axis_values(base["t"], 20.0), "decreasing"),
            "M": ([1, 2, 3, 4, 5], "decreasing"),
            "m": ([max(1, base["m"] - 2) + k for k in range(5)], "decreasing"),
            "p1": (_axis_values(base["p1"], 2.0), "decreasing"),
            "p2": (_axis_values(base["p2"], 2.0), "increasing"),
        }
        for param, (values, direction) in axes.items():
            series = [ber(scen(**{**base, param: v})).ber for v in values]
            pairs = zip(series, series[1:])
            if direction == "increasing":
                ok = all(a < b for a, b in pairs)
            else:
                ok = all(a > b for a, b in pairs)
            assert ok, f"{label}: BER not strictly {direction} in {param}: {series}"
            checked += len(values)
    _report(6, "qualitative-claim monotonicity", started, budget=30.0,
            detail=f"{checked} points, zero violations")


def test_criterion_7_invariances():
    started = time.perf_counter()
    base = dict(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5, sigma=1.25, rho=0.75)
    reference = ber(scen(**base)).ber
    transformed = {
        "dB shift": {**base, "p1": 17 + 8, "p2": 10 + 8},
        "distance scale": {**base, "s": 100 * 2.5, "t": 100 * 2.5},
        "power scale": {**base, "sigma": 1.25 * 3.0, "rho": 0.75 * 3.0},
    }
    worst = 0.0
    for label, params in transformed.items():
        gap = abs(ber(scen(**params)).ber - reference)
        worst = max(worst, gap)
        assert gap < 1e-12, f"{label}: |delta BER| = {gap:.2e}"
    # equal shape-product pairs: (M=2, m=3) vs (M=3, m=2) with matched beta
    pair_a = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5)
    pair_b = scen(m=2, M=3, p1=17, p2=10, s=100, t=100, n=3.5, rho=1.5)
    assert sir_distribution(pair_a) == sir_distribution(pair_b)
    gap = abs(ber(pair_a).ber - ber(pair_b).ber)
    worst = max(worst, gap)
    assert gap < 1e-12
    _report(7, "invariances", started, budget=5.0, detail=f"worst {worst:.1e}")


def test_criterion_8_limits():
    started = time.perf_counter()
    vanishing = ber_direct(SirDistribution(shape=2.0, beta=1e-9)).value
    assert vanishing < 1e-8
    dominated = ber_direct(SirDistribution(shape=2.0, beta=1e9)).value
    assert 0.499 <= dominated <= 0.5
    assert 0.5 - dominated < 1e-3
    saturated = ber_gl(SirDistribution(shape=2.0, beta=1e9))
    assert 0.499 <= saturated <= 0.5
    _report(8, "interference limits", started, budget=1.0,
            detail=f"beta->0: {vanishing:.1e}; beta->inf: {dominated:.6f}")


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "sirlink", *args],
                          capture_output=True, text=True)


def test_criterion_9_cli_determinism_and_exits(tmp_path):
    started = time.perf_counter()
    sweep_cfg = os.path.join(CONFIG_DIR, "fig2_sweep.ini")
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert _run_cli("sweep", "--config", sweep_cfg, "--out", str(out1)).returncode == 0
    assert _run_cli("sweep", "--config", sweep_cfg, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes(), "sweep output not byte-identical"

    validate_cfg = os.path.join(CONFIG_DIR, "fig3_validate.ini")
    ok = _run_cli("validate", "--config", validate_cfg, "--out", str(tmp_path / "v.csv"))
    assert ok.returncode == 0, ok.stderr
    corrupted = _run_cli("validate", "--config", validate_cfg, "--corrupt-beta", "1.5",
                         "--out", str(tmp_path / "vc.csv"))
    assert corrupted.returncode == 3, corrupted.stderr
    _report(9, "CLI determinism and exit codes", started, budget=120.0)
