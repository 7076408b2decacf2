"""Channel-model tests: densities against quadrature oracles, invariants, errors."""

import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from conftest import CHANNEL_GRID, FIG2, PDF_ORACLE_POINTS, closed_form_pdf, scen
from sirlink import (
    Scenario,
    SingularityError,
    SirDistribution,
    interference_scale,
    sir_cdf,
    sir_distribution,
    sir_pdf,
)


def sir_pdf_physical_oracle(scenario, y):
    """Direct quadrature of the physical-model integral int z f_S(yz) f_I(z) dz.

    f_S is the combined-signal gamma density (shape M*m, rate m/sigma); f_I is
    the exponential interference-power density with mean c.  Independent of
    the closed form under test.
    """
    m = scenario.m
    sigma = scenario.sigma
    mm = scenario.M * m
    rate = m / sigma
    c = interference_scale(scenario)
    log_norm = mm * math.log(rate) - math.lgamma(mm)

    def integrand(z):
        log_fs = log_norm + (mm - 1.0) * math.log(y * z) - rate * y * z
        return z * math.exp(log_fs) * math.exp(-z / c) / c

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12,
                              limit=200)
    return value


def scenario_with(**fields):
    """A valid unit-power scenario at m = 1 with the given fields replaced."""
    return Scenario(**{"m": 1.0, "p1_dbm": 10, "p2_dbm": 10, "s": 1.0, "t": 1.0, "n": 2.0,
                       **fields})


class TestTypes:
    def test_fading_invariants(self):
        with pytest.raises(ValueError):
            scenario_with(m=0.3)
        with pytest.raises(ValueError):
            scenario_with(m=1.0, sigma=0.0)
        scenario_with(m=0.5)  # boundary is legal
        for kwargs in ({"m": math.inf}, {"m": 1.0, "sigma": math.inf}, {"m": math.nan}):
            with pytest.raises(ValueError, match="must be finite"):
                scenario_with(**kwargs)

    def test_interferer_invariants(self):
        with pytest.raises(ValueError):
            scenario_with(rho=-1.0)
        with pytest.raises(ValueError, match="rho must be finite"):
            scenario_with(rho=math.inf)

    def test_link_invariants(self):
        with pytest.raises(ValueError):
            scenario_with(p1_dbm=10, p2_dbm=10, s=0.0, t=1.0, n=2.0)
        with pytest.raises(ValueError):
            scenario_with(p1_dbm=10, p2_dbm=10, s=1.0, t=-2.0, n=2.0)
        with pytest.raises(ValueError):
            scenario_with(p1_dbm=10, p2_dbm=10, s=1.0, t=1.0, n=0.0)
        with pytest.raises(ValueError):
            scenario_with(p1_dbm=math.inf, p2_dbm=10, s=1.0, t=1.0, n=2.0)
        for key in ("s", "t", "n"):
            kwargs = {"p1_dbm": 10, "p2_dbm": 10, "s": 1.0, "t": 1.0, "n": 2.0, key: math.inf}
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                scenario_with(**kwargs)

    def test_scenario_invariants(self):
        with pytest.raises(ValueError):
            scenario_with(m=1.0, M=0)
        with pytest.raises(ValueError):
            scenario_with(m=1.0, M=2.0)

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            Scenario(1.0, 1, 1.0, 1.0, 10, 10, 1.0, 1.0, 2.0)
        defaults = scenario_with()
        assert (defaults.M, defaults.sigma, defaults.rho) == (1, 1.0, 1.0)

    @pytest.mark.parametrize("fields, message", [
        ({"m": 0.3, "rho": math.nan}, "Nakagami parameter m must be >= 0.5"),
        ({"s": 0.0, "M": 0}, "source-receiver distance s must be > 0"),
        ({"m": 0.3, "sigma": math.nan}, "sigma must be finite"),
        ({"M": 0}, "M must be an integer >= 1, got 0"),
    ])
    def test_first_error_order(self, fields, message):
        # fading, interferer, link, then M, as the config's first error
        with pytest.raises(ValueError, match=f"^{message}"):
            scenario_with(**fields)

    def test_branch_count_at_most_two_to_53(self):
        # shape = M*m is a double, which holds every M up to 2**53 exactly
        assert sir_distribution(scenario_with(m=1.0, M=2 ** 53)).shape == 2 ** 53
        with pytest.raises(ValueError, match=r"^M must be <= 2\*\*53, got 9007199254740993$"):
            scenario_with(m=1.0, M=2 ** 53 + 1)

    def test_distribution_invariants(self):
        with pytest.raises(ValueError):
            SirDistribution(shape=0.4, beta=1.0)
        with pytest.raises(ValueError):
            SirDistribution(shape=1.0, beta=0.0)
        with pytest.raises(ValueError, match="shape must be finite"):
            SirDistribution(shape=math.inf, beta=1.0)
        with pytest.raises(ValueError, match="beta must be finite"):
            SirDistribution(shape=1.0, beta=math.inf)

    def test_no_mean_accessor(self):
        # the mean diverges for shape <= 1; exposing one would be a trap
        assert not hasattr(SirDistribution(shape=1.0, beta=1.0), "mean")


class TestInterferenceScale:
    def test_seven_db_gap(self):
        scenario = scenario_with(p1_dbm=17, p2_dbm=10, s=50.0, t=50.0, n=3.5)
        assert interference_scale(scenario) == pytest.approx(10.0 ** -0.7, rel=1e-14)

    def test_identity_case(self):
        scenario = scenario_with(p1_dbm=12, p2_dbm=12, s=70.0, t=70.0, n=2.7)
        assert interference_scale(scenario) == pytest.approx(1.0, rel=1e-15)

    def test_nine_db_gap(self):
        scenario = scenario_with(p1_dbm=15, p2_dbm=6, s=90.0, t=90.0, n=3.0)
        assert interference_scale(scenario) == pytest.approx(10.0 ** -0.9, rel=1e-14)


class TestSirDistribution:
    def test_distance_study_parameters(self):
        dist = sir_distribution(FIG2)
        assert dist.shape == 6.0
        assert dist.beta == pytest.approx(3.0 * 10.0 ** -0.7, rel=1e-14)

    def test_unit_case(self):
        dist = sir_distribution(scen(m=1, M=1, p1=10, p2=10, s=50, t=50, n=2.0))
        assert dist.shape == 1.0
        assert dist.beta == pytest.approx(1.0, rel=1e-15)

    def test_triple_branch_shape(self):
        dist = sir_distribution(scen(m=4, M=3, p1=15, p2=6, s=100, t=80, n=2.9))
        assert dist.shape == 12.0

    @pytest.mark.parametrize("fields", [
        dict(p2_dbm=4000.0, s=1e-20, n=20.0),
        dict(p2_dbm=-4000.0, s=1e20, n=20.0),
        dict(p2_dbm=0.0, sigma=1e-320, rho=1e-320),
    ], ids=["power-ratio-overflows", "distance-factor-overflows", "m-over-sigma-overflows"])
    def test_beta_finite_though_a_factor_is_not(self, fields):
        # m = 2 times factors whose product is 1, one of them past the double range
        dist = sir_distribution(scenario_with(m=2.0, p1_dbm=0.0, **fields))
        assert dist.beta == pytest.approx(2.0, rel=1e-12)


class TestSirPdf:
    def test_unit_values(self):
        dist = SirDistribution(shape=1.0, beta=1.0)
        assert sir_pdf(dist, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert sir_pdf(dist, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_matches_physical_integral(self):
        for scenario, y in PDF_ORACLE_POINTS[:6]:
            closed = sir_pdf(sir_distribution(scenario), y)
            brute = sir_pdf_physical_oracle(scenario, y)
            assert closed == pytest.approx(brute, abs=1e-8)

    def test_matches_printed_form(self):
        # the unreduced form with the interference scale kept inside the bracket
        for scenario, y in PDF_ORACLE_POINTS:
            if y == 0.0:
                continue
            m = scenario.m
            sigma = scenario.sigma
            mm = scenario.M * m
            c = interference_scale(scenario)
            verbatim = (1.0 / c) * (m / sigma) ** mm * mm * y ** (mm - 1.0) \
                * (1.0 / c + (m / sigma) * y) ** -(mm + 1.0)
            assert sir_pdf(sir_distribution(scenario), y) == \
                pytest.approx(verbatim, rel=1e-12)

    def test_matches_mpmath_closed_form(self):
        # Wherever the true density is a normal double, from shape 0.5 to 5000
        # and beta 1e-8 to 1e8 (2904 of the 3570 points).  The log density's
        # terms grow like shape*|log beta| and shape*|log y|, and their
        # rounding carries into the density, so the bound scales with shape
        # (worst measured: 8e-15 at shape 0.5, 2.4e-11 at shape 5000).
        ys = np.geomspace(1e-4, 1e4, 21)
        checked, misses = 0, []
        for shape in (0.5, 1.0, 2.3, 4.0, 12.0, 36.0, 100.0, 320.0, 1000.0, 5000.0):
            for beta in (10.0 ** e for e in range(-8, 9)):
                values = sir_pdf(SirDistribution(shape=shape, beta=beta), ys)
                for y, value in zip(ys, values):
                    expected = float(closed_form_pdf(shape, beta, y))
                    if not sys.float_info.min <= expected <= sys.float_info.max:
                        continue
                    checked += 1
                    if not abs(value - expected) <= 1e-13 * max(1.0, shape) * expected:
                        misses.append((shape, beta, float(y), float(value), expected))
        assert checked == 2904
        assert misses == []

    def test_singularity_raises(self):
        with pytest.raises(SingularityError):
            sir_pdf(SirDistribution(shape=0.5, beta=1.0), 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sir_pdf(SirDistribution(shape=1.0, beta=1.0), -0.5)


class TestSirCdf:
    def test_unit_median(self):
        assert sir_cdf(SirDistribution(shape=1.0, beta=1.0), 1.0) == pytest.approx(0.5)

    def test_zero(self):
        for dist in CHANNEL_GRID:
            assert sir_cdf(dist, 0.0) == 0.0

    def test_matches_integrated_pdf(self):
        dist = SirDistribution(shape=6.0, beta=3.0 * 10.0 ** -0.7)
        for y in (0.5, 2.0, 5.0):
            value, _ = integrate.quad(
                lambda u: 2.0 * u * sir_pdf(dist, u * u),
                0.0, math.sqrt(y), epsabs=1e-13, epsrel=1e-12)
            assert sir_cdf(dist, y) == pytest.approx(value, abs=1e-8)

    def test_monotone_and_bounded(self):
        for dist in CHANNEL_GRID:
            ys = np.geomspace(1e-3, 1e4, 40)
            cdfs = sir_cdf(dist, ys)
            assert np.all(cdfs >= 0.0) and np.all(cdfs <= 1.0)
            assert np.all(np.diff(cdfs) >= 0.0)

    def test_one_where_beta_y_overflows(self):
        # beta*y is inf from y ~ 1.8e8 on; the cdf is 1 there, not inf/inf
        dist = SirDistribution(shape=1.0, beta=1e300)
        with np.errstate(over="ignore", invalid="raise"):
            assert sir_cdf(dist, np.array([1.0, 1e9, 1e300])).tolist() == [1.0, 1.0, 1.0]

    def test_broadcasts_laws_as_columns(self):
        laws = SimpleNamespace(shape=np.array([[d.shape] for d in CHANNEL_GRID]),
                               beta=np.array([[d.beta] for d in CHANNEL_GRID]))
        ys = np.geomspace(1e-3, 1e4, 40)
        cdfs = sir_cdf(laws, ys)
        assert cdfs.shape == (len(CHANNEL_GRID), ys.size)
        for dist, row in zip(CHANNEL_GRID, cdfs):
            np.testing.assert_allclose(row, sir_cdf(dist, ys), rtol=1e-15, atol=0.0)

    def test_holds_two_arrays(self):
        # computed in the array of beta*y: besides y, that and 1 + t at most
        ys = np.geomspace(1e-3, 1e4, 1 << 16)
        tracemalloc.start()
        try:
            sir_cdf(SirDistribution(shape=6.0, beta=0.2), ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * ys.nbytes


class TestDistributionInvariants:
    def test_normalization(self):
        for dist in CHANNEL_GRID:
            value, _ = integrate.quad(lambda u: 2.0 * u * sir_pdf(dist, u * u),
                                      0.0, np.inf, epsabs=1e-12, epsrel=1e-11,
                                      limit=200)
            assert value == pytest.approx(1.0, abs=1e-8)

    def test_cdf_derivative_matches_pdf(self):
        for dist in CHANNEL_GRID:
            for y in (0.3, 1.0, 3.0):
                h = 1e-6 * max(1.0, y)
                derivative = (sir_cdf(dist, y + h) - sir_cdf(dist, y - h)) / (2.0 * h)
                assert derivative == pytest.approx(sir_pdf(dist, y), rel=1e-6)

    def test_reparameterization_invariance(self):
        base = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5, sigma=1.2, rho=0.8)
        shifted = scen(m=3, M=2, p1=23, p2=16, s=100, t=100, n=3.5, sigma=1.2, rho=0.8)
        scaled_dist = scen(m=3, M=2, p1=17, p2=10, s=250, t=250, n=3.5, sigma=1.2, rho=0.8)
        scaled_pow = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5,
                          sigma=1.2 * 4.0, rho=0.8 * 4.0)
        reference = sir_distribution(base)
        for other in (shifted, scaled_dist, scaled_pow):
            dist = sir_distribution(other)
            assert dist.shape == reference.shape
            assert dist.beta == pytest.approx(reference.beta, rel=1e-14)
            for y in (0.2, 1.0, 7.0):
                assert sir_pdf(dist, y) == pytest.approx(sir_pdf(reference, y), rel=1e-12)
                assert sir_cdf(dist, y) == pytest.approx(sir_cdf(reference, y), rel=1e-12)

    def test_array_call_matches_scalar_calls(self):
        # `sirlink dist` evaluates its whole y grid in one array call; the
        # vectorized exp, log1p and power may round differently from the
        # scalar ones, by a few ulp at most
        ys = np.geomspace(1e-6, 1e6, 997)
        for dist in CHANNEL_GRID:
            for law in (sir_pdf, sir_cdf):
                looped = np.array([law(dist, float(y)) for y in ys])
                np.testing.assert_allclose(law(dist, ys), looped, rtol=8 * np.finfo(float).eps,
                                           atol=0.0)

    def test_heavy_tail_index(self):
        # 1 - F(y) ~ shape/(beta*y) for large y
        dist = SirDistribution(shape=1.0, beta=1.0)
        y = 1e6
        survival = 1.0 - sir_cdf(dist, y)
        assert survival * y == pytest.approx(1.0, rel=0.01)
