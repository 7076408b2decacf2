"""Channel-model tests: densities against quadrature oracles, invariants, errors."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import CHANNEL_GRID, FIG2, PDF_ORACLE_POINTS, scen
from sirlink import (
    FadingParams,
    InterfererParams,
    LinkBudget,
    Scenario,
    SingularityError,
    SirDistribution,
    interference_scale,
    nakagami_pdf,
    rayleigh_pdf,
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
    m = scenario.fading.m
    sigma = scenario.fading.sigma
    mm = scenario.branches * m
    rate = m / sigma
    c = interference_scale(scenario.link, scenario.interferer.rho)
    log_norm = mm * math.log(rate) - math.lgamma(mm)

    def integrand(z):
        log_fs = log_norm + (mm - 1.0) * math.log(y * z) - rate * y * z
        return z * math.exp(log_fs) * math.exp(-z / c) / c

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12,
                              limit=200)
    return value


class TestTypes:
    def test_fading_invariants(self):
        with pytest.raises(ValueError):
            FadingParams(m=0.3)
        with pytest.raises(ValueError):
            FadingParams(m=1.0, sigma=0.0)
        FadingParams(m=0.5)  # boundary is legal

    def test_interferer_invariants(self):
        with pytest.raises(ValueError):
            InterfererParams(rho=-1.0)

    def test_link_invariants(self):
        with pytest.raises(ValueError):
            LinkBudget(p1_dbm=10, p2_dbm=10, s=0.0, t=1.0, n=2.0)
        with pytest.raises(ValueError):
            LinkBudget(p1_dbm=10, p2_dbm=10, s=1.0, t=-2.0, n=2.0)
        with pytest.raises(ValueError):
            LinkBudget(p1_dbm=10, p2_dbm=10, s=1.0, t=1.0, n=0.0)
        with pytest.raises(ValueError):
            LinkBudget(p1_dbm=math.inf, p2_dbm=10, s=1.0, t=1.0, n=2.0)

    def test_scenario_invariants(self):
        link = LinkBudget(p1_dbm=10, p2_dbm=10, s=1.0, t=1.0, n=2.0)
        with pytest.raises(ValueError):
            Scenario(FadingParams(m=1.0), InterfererParams(), link, branches=0)
        with pytest.raises(ValueError):
            Scenario(FadingParams(m=1.0), InterfererParams(), link, branches=2.0)

    def test_distribution_invariants(self):
        with pytest.raises(ValueError):
            SirDistribution(shape=0.4, beta=1.0)
        with pytest.raises(ValueError):
            SirDistribution(shape=1.0, beta=0.0)

    def test_no_mean_accessor(self):
        # the mean diverges for shape <= 1; exposing one would be a trap
        assert not hasattr(SirDistribution(shape=1.0, beta=1.0), "mean")


class TestNakagamiPdf:
    def test_reduces_to_rayleigh_at_unit_m(self):
        assert nakagami_pdf(1.0, FadingParams(m=1.0, sigma=1.0)) == \
            pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_zero_at_origin_for_m_above_half(self):
        assert nakagami_pdf(0.0, FadingParams(m=2.0, sigma=1.0)) == 0.0

    def test_mean_square_is_omega(self):
        params = FadingParams(m=3.0, sigma=2.5)
        value, _ = integrate.quad(lambda x: x * x * nakagami_pdf(x, params),
                                  0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert value == pytest.approx(2.5, abs=1e-8)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            nakagami_pdf(-0.1, FadingParams(m=1.0))


class TestRayleighPdf:
    def test_direct_value(self):
        assert rayleigh_pdf(1.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_identical_to_unit_m_nakagami(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = float(rng.uniform(0.0, 4.0))
            omega = float(rng.uniform(0.2, 5.0))
            assert rayleigh_pdf(x, omega) == nakagami_pdf(x, FadingParams(m=1.0, sigma=omega))

    def test_normalization(self):
        value, _ = integrate.quad(lambda x: rayleigh_pdf(x, 3.0), 0.0, np.inf,
                                  epsabs=1e-13, epsrel=1e-12)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            rayleigh_pdf(1.0, 0.0)
        with pytest.raises(ValueError):
            rayleigh_pdf(-1.0, 1.0)


class TestInterferenceScale:
    def test_seven_db_gap(self):
        link = LinkBudget(p1_dbm=17, p2_dbm=10, s=50.0, t=50.0, n=3.5)
        assert interference_scale(link, 1.0) == pytest.approx(10.0 ** -0.7, rel=1e-14)

    def test_identity_case(self):
        link = LinkBudget(p1_dbm=12, p2_dbm=12, s=70.0, t=70.0, n=2.7)
        assert interference_scale(link, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_nine_db_gap(self):
        link = LinkBudget(p1_dbm=15, p2_dbm=6, s=90.0, t=90.0, n=3.0)
        assert interference_scale(link, 1.0) == pytest.approx(10.0 ** -0.9, rel=1e-14)


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
            m = scenario.fading.m
            sigma = scenario.fading.sigma
            mm = scenario.branches * m
            c = interference_scale(scenario.link, scenario.interferer.rho)
            verbatim = (1.0 / c) * (m / sigma) ** mm * mm * y ** (mm - 1.0) \
                * (1.0 / c + (m / sigma) * y) ** -(mm + 1.0)
            assert sir_pdf(sir_distribution(scenario), y) == \
                pytest.approx(verbatim, rel=1e-12)

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
        # vectorized power may round differently from the scalar one, by a
        # few ulp at most
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
