"""BER-engine tests: dual-route agreement, limits, monotonicity, invariance."""

import csv
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from conftest import BER_GRID, FIG2, FIG3, FIG4, REFERENCE_PATH, scen
from sirlink import (
    CROSS_CHECK_THRESHOLD,
    DEFAULT_GL_ORDER,
    BerResult,
    CrossCheckError,
    QuadratureError,
    QuadratureResult,
    SirDistribution,
    ber,
    ber_direct,
    ber_gl,
    conditional_ber,
    gauss_laguerre_half,
    sir_cdf,
    sir_distribution,
    sir_pdf,
)
from sirlink.ber import SQRT_PI, ber_batch


class TestConditionalBer:
    def test_zero_sir(self):
        assert conditional_ber(0.0) == 0.5

    def test_strong_sir_limit(self):
        assert conditional_ber(50.0) < 1e-22

    def test_unit_sir(self):
        # (1/2) erfc(1), frozen from the series oracle in test_numerics
        assert conditional_ber(1.0) == pytest.approx(0.07864960352514257, rel=1e-13)

    def test_is_half_of_incomplete_gamma_ratio(self):
        from sirlink import upper_incomplete_gamma
        for g in (0.01, 0.4, 1.0, 4.0):
            assert conditional_ber(g) == pytest.approx(
                upper_incomplete_gamma(0.5, g) / (2.0 * SQRT_PI), rel=1e-12)

    def test_strictly_decreasing(self):
        values = [conditional_ber(g) for g in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            conditional_ber(-0.1)


class TestBerDirect:
    def test_vanishing_interference_limit(self):
        result = ber_direct(SirDistribution(shape=2.0, beta=1e-9))
        assert result.value < 1e-8

    def test_dominating_interference_limit(self):
        result = ber_direct(SirDistribution(shape=2.0, beta=1e9))
        assert 0.499 <= result.value <= 0.5

    def test_agrees_with_gl_route(self):
        dist = SirDistribution(shape=1.0, beta=1.0)
        direct = ber_direct(dist)
        assert direct.value == pytest.approx(ber_gl(dist), abs=1e-8)

    # the log-space integrand evaluates the same integral as conditional_ber
    # times sir_pdf, with the same substitution y = u**2 and tolerance, but
    # rounds differently, so the two agree to a relative 1e-13 rather than to
    # the bit; the last two laws are perfbench/README's former early-stop
    # reproducers
    @pytest.mark.parametrize("shape, beta", [
        (0.5, 0.05), (1.0, 0.05), (1.5, 1.0), (2.0, 0.05), (3.0, 1.0), (4.5, 0.05),
        (24.0, 1.0), (36.0, 0.05), (4.0, 0.00807), (24.0, 0.305)])
    def test_same_result_as_sir_pdf_integrand(self, shape, beta):
        dist = SirDistribution(shape=shape, beta=beta)
        expected, _ = integrate.quad(
            lambda u: 2.0 * u * (conditional_ber(u * u) * sir_pdf(dist, u * u)),
            0.0, math.inf, epsabs=0.0, epsrel=1e-10, limit=250)
        assert ber_direct(dist).value == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_matches_reference_table(self):
        # every row of the mpmath Tricomi-U table: shape 0.5 to 1e5, beta 1e-4
        # to 1e8, BER from 0.49994 down to 1e-275, and fig2's link at s = 2t,
        # where the Gauss-Laguerre route cannot go
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 120
        misses = []
        for row in rows:
            shape, beta, expected = (float(row[key]) for key in ("shape", "beta", "ber"))
            value = ber_direct(SirDistribution(shape=shape, beta=beta)).value
            if not abs(value - expected) <= 1e-12 * expected:
                misses.append((shape, beta, value, expected))
        assert misses == []

    def test_bound_covers_reference_table(self):
        # the relative bound behind quad_err holds on every row of the table
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        misses = []
        for row in rows:
            shape, beta, expected = (float(row[key]) for key in ("shape", "beta", "ber"))
            result = ber_direct(SirDistribution(shape=shape, beta=beta))
            if not abs(result.value - expected) <= result.abs_error_estimate:
                misses.append((shape, beta, result.value, expected, result.abs_error_estimate))
        assert misses == []

    # Shape 1e16 at tiny beta: log g* is ~-6.5e18, whose rounding (ulp 1024)
    # makes exp(log g - log g*) overflow off the peak, so the rule's sum is
    # not finite.  Such a law is not found, where the clipped sum would read
    # 1/2 and the true BER is 0.0.
    @pytest.mark.parametrize("beta", [1e-300, 1e-260, 1e-230])
    def test_quadrature_failure_names_route(self, beta):
        with pytest.raises(QuadratureError) as info:
            ber_direct(SirDistribution(shape=1e16, beta=beta))
        assert str(info.value) == (f"direct route at shape=1e+16, beta={beta!r}: quadrature "
                                   "did not converge: relative error bound inf exceeds the "
                                   "tolerance 1e-10")

    # Shape 1e25 at beta 1e-20, and 1e17 and 1e18 at beta ~1e-300: _slope's
    # curvature has lost its digits there, so the rule would need ~1e12 nodes
    # (a MemoryError), an intp-overflowing count (an IndexError in reduceat)
    # and 14 million nodes (1.35 GB).  Such a law is not found before any
    # array is sized.
    @pytest.mark.parametrize("scenario", [
        scen(m=1e25, M=1, p1=0, p2=-450, s=1, t=1, n=3),
        scen(m=1e17, M=1, p1=0, p2=-3170, s=1, t=1, n=3),
        scen(m=1e18, M=1, p1=0, p2=-3180, s=1, t=1, n=3),
    ], ids=["shape-1e25", "shape-1e17", "shape-1e18"])
    def test_rule_beyond_node_cap_is_not_found(self, scenario):
        dist = sir_distribution(scenario)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match="relative error bound inf exceeds"):
                ber_direct(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_nan_integrand_names_route(self, monkeypatch):
        monkeypatch.setattr(special, "log_ndtr", lambda x: np.full_like(x, math.nan))
        with pytest.raises(QuadratureError) as info:
            ber_direct(SirDistribution(shape=2.0, beta=0.25))
        assert str(info.value) == "direct route at shape=2.0, beta=0.25: integrand produced NaN"

    def test_underflowing_ber_is_zero(self):
        # log BER ~ -9e5: double rounding of log g alone exceeds 1e-10
        # relative, but a BER this far below the smallest double is 0.0
        result = ber(SirDistribution(shape=2430.72, beta=5.73e-160))
        assert (result.ber, result.quad_error) == (0.0, 0.0)
        # shape 1e13, beta 1e-300: log BER ~ -6.6e15 with a relative bound of
        # ~6, yet even BER * (1 + 6) lies far below the smallest double
        result = ber_direct(SirDistribution(shape=1e13, beta=1e-300))
        assert (result.value, result.abs_error_estimate) == (0.0, 0.0)

    def test_strongest_interference_stays_at_most_half(self):
        # beta 1e55: the rule's sum lands a few ulps above 1/2, which the BER
        # can never exceed, so the value is clipped there
        dist = SirDistribution(shape=1.0, beta=1e55)
        assert ber_direct(dist).value == 0.5
        assert ber(dist).ber == 0.5
        # beta 1e300: the sum lands an ulp below 1/2, inside its bound
        result = ber_direct(SirDistribution(shape=1.0, beta=1e300))
        assert 0.5 - result.abs_error_estimate <= result.value <= 0.5


class TestBerBatch:
    LAWS = tuple(SirDistribution(shape=k, beta=b) for k, b in (
        (6.0, 0.2), (0.5, 1.0), (2.3, 1e-4), (36.0, 40.0), (1.0, 1e300), (320.0, 0.01),
        (12.0, 3.8), (4.0, 0.00807), (100.0, 1e3), (1e8, 1e8), (24.0, 0.305), (1e13, 1e-300),
        (1e16, 1e-300)))

    @staticmethod
    def _bits(outcome):
        if isinstance(outcome, Exception):
            return type(outcome), str(outcome)
        return outcome.ber.hex(), outcome.quad_error.hex(), outcome.route_disagreement.hex()

    def test_law_bits_do_not_depend_on_the_batch(self):
        # every law of shuffled and sub-setted grids gives the bits of its
        # one-law call, failures included
        alone = {dist: self._bits(ber_batch([dist])[0]) for dist in self.LAWS}
        rng = random.Random(5)
        for size in (len(self.LAWS), 7, 3, 2):
            for _ in range(3):
                laws = rng.sample(self.LAWS, size)
                assert [self._bits(o) for o in ber_batch(laws)] == [alone[d] for d in laws]
        laws = rng.choices(self.LAWS, k=100)  # several passes of the routes
        assert [self._bits(o) for o in ber_batch(laws)] == [alone[d] for d in laws]
        for dist in self.LAWS:
            try:
                assert self._bits(ber(dist)) == alone[dist]
            except (QuadratureError, CrossCheckError) as exc:
                assert self._bits(exc) == alone[dist]

    def test_outcomes_follow_input_order(self):
        outcomes = ber_batch([sir_distribution(FIG2),
                              SirDistribution(shape=0.5, beta=1.0),
                              SirDistribution(shape=1e16, beta=1e-300)])
        assert outcomes[0] == ber(FIG2)
        assert isinstance(outcomes[1], CrossCheckError)
        assert isinstance(outcomes[2], QuadratureError)
        assert ber_batch([]) == []

    def test_law_beyond_node_cap_leaves_its_pass(self):
        # the failing law gets a small rule, so its neighbours keep their bits
        law = sir_distribution(FIG2)
        outcomes = ber_batch([law, SirDistribution(shape=1e17, beta=1e-300), law])
        assert isinstance(outcomes[1], QuadratureError)
        alone = self._bits(ber_batch([law])[0])
        assert self._bits(outcomes[0]) == self._bits(outcomes[2]) == alone

    def test_gl_route_is_its_one_law_case(self):
        # a law's outcome in a batch is built from its one-law routes, to the
        # bit: ber_direct's value and bound or its refusal, and ber_gl's value
        # through the route gap or a cross-check failure; over LAWS and every
        # row of the reference table
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            table = [SirDistribution(shape=float(row["shape"]), beta=float(row["beta"]))
                     for row in csv.DictReader(handle)]
        laws = list(self.LAWS) + table
        kinds = set()
        for dist, outcome in zip(laws, ber_batch(laws)):
            kinds.add(type(outcome))
            try:
                direct = ber_direct(dist)
            except QuadratureError as exc:
                assert isinstance(outcome, QuadratureError) and str(outcome) == str(exc)
                continue
            if isinstance(outcome, CrossCheckError):
                assert outcome.direct.hex() == direct.value.hex()
                assert outcome.gauss_laguerre.hex() == ber_gl(dist).hex()
            else:
                assert isinstance(outcome, BerResult)
                assert outcome.ber.hex() == direct.value.hex()
                assert outcome.quad_error.hex() == direct.abs_error_estimate.hex()
                gap = abs(direct.value - ber_gl(dist))
                assert outcome.route_disagreement.hex() == gap.hex()
        assert kinds == {BerResult, CrossCheckError, QuadratureError}


class TestBerGl:
    def test_saturated_cdf_gives_half(self):
        # F ~ 1 at every node, so the sum reduces to the zeroth moment; at the
        # last three laws its rounded sum passes 1/2, and the BER is clipped
        for shape, beta in [(3.0, 1e15), (1.0, 1e300), (0.5, 1e300), (1e300, 1e300)]:
            value = ber_gl(SirDistribution(shape=shape, beta=beta))
            assert value == pytest.approx(0.5, abs=1e-9) and value <= 0.5, (shape, beta)

    def test_array_sum_matches_term_loop(self):
        # reference: exactly rounded sum of the scalar terms; the array sum
        # adds 128 positive terms, so 1e-13 relative bounds its rounding
        nodes, weights = gauss_laguerre_half(DEFAULT_GL_ORDER)
        for dist in (sir_distribution(FIG2), SirDistribution(shape=1.0, beta=1.0)):
            loop = math.fsum(w * sir_cdf(dist, y) for y, w in zip(nodes, weights))
            assert ber_gl(dist) == pytest.approx(loop / (2.0 * SQRT_PI), rel=1e-13)

    def test_matches_reference_table_inside_domain(self):
        # The mpmath table holds the rule to 1e-12 relative on integer shapes
        # >= 1 with beta <= 1 (worst ~5e-13, at shape 12, beta 1).  The other
        # rows lie outside the fixed rule's domain, so they are left out:
        # shape 0.5 has the y**(shape-1) endpoint kink, shape 2.3 misses by up
        # to 7e-7, and at beta >= 5 the distribution function rises within
        # ~1/beta of the origin, where the nodes are too sparse.  Nor is the
        # rule meant to hold 1e-12 at the table's orders above 320.
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        checked, misses = 0, []
        for row in rows:
            shape, beta, expected = (float(row[key]) for key in ("shape", "beta", "ber"))
            if not (1.0 <= shape <= 320.0 and shape.is_integer() and beta <= 1.0):
                continue
            checked += 1
            value = ber_gl(SirDistribution(shape=shape, beta=beta))
            if not abs(value - expected) <= 1e-12 * expected:
                misses.append((shape, beta, value, expected))
        assert checked == 31
        assert misses == []


class TestBer:
    def test_result_fields(self):
        result = ber(FIG2)
        assert 0.0 < result.ber < 0.5
        assert result.quad_error >= 0.0
        assert result.route_disagreement < 1e-7
        assert ber(sir_distribution(FIG2)) == result

    def test_full_grid_range_and_agreement(self):
        for _, scenario in BER_GRID:
            result = ber(scenario)
            assert 0.0 < result.ber < 0.5
            assert result.route_disagreement < 1e-8

    def test_shape_product_equivalence(self):
        # same M*m and beta => same law => same BER
        a = scen(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5)
        b = scen(m=2, M=3, p1=17, p2=10, s=100, t=100, n=3.5, rho=1.5)
        dist_a, dist_b = sir_distribution(a), sir_distribution(b)
        assert dist_a == dist_b
        assert abs(ber(a).ber - ber(b).ber) < 1e-12

    def test_cross_check_failure_carries_both_values(self):
        # the endpoint kink of a shape-0.5 law is beyond the GL route's reach
        worst_case = scen(m=0.5, M=1, p1=10, p2=10, s=100, t=100, n=2.0)
        with pytest.raises(CrossCheckError) as info:
            ber(worst_case)
        err = info.value
        assert math.isfinite(err.direct) and math.isfinite(err.gauss_laguerre)
        assert abs(err.direct - err.gauss_laguerre) >= CROSS_CHECK_THRESHOLD


def _ber_value(**kwargs):
    return ber(scen(**kwargs)).ber


class TestMonotonicity:
    BASE3 = dict(m=2, M=1, p1=15, p2=6, s=90, t=90, n=3.0)

    def test_increasing_in_source_distance(self):
        values = [_ber_value(**{**self.BASE3, "s": s}) for s in (50, 70, 90, 110, 130)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_interferer_distance(self):
        values = [_ber_value(**{**self.BASE3, "t": t}) for t in (50, 70, 90, 110, 130)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_branches(self):
        values = [_ber_value(**{**self.BASE3, "M": M}) for M in (1, 2, 3, 4, 5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_fading_parameter(self):
        values = [_ber_value(**{**self.BASE3, "m": m}) for m in (1, 2, 3, 4, 5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_direct_route_monotone_in_beta_and_shape(self):
        # Reference-free: the BER rises with beta (stronger interference) and
        # falls with shape (more diversity).  Each neighbouring pair may miss
        # by at most the two values' error bounds; laws the direct route
        # cannot resolve are left out.
        shapes = (0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1000.0)
        betas = tuple(10.0 ** e for e in range(-8, 9))
        grid = {}
        for shape, beta in itertools.product(shapes, betas):
            try:
                grid[shape, beta] = ber_direct(SirDistribution(shape=shape, beta=beta))
            except QuadratureError:
                pass
        pairs = [((k, b), (k, b2)) for k in shapes for b, b2 in zip(betas, betas[1:])] \
            + [((k2, b), (k, b)) for b in betas for k, k2 in zip(shapes, shapes[1:])]
        misses, checked = [], 0
        for low, high in pairs:
            if low in grid and high in grid:
                checked += 1
                below, above = grid[low], grid[high]
                if not above.value - below.value >= -(below.abs_error_estimate
                                                      + above.abs_error_estimate):
                    misses.append((low, high, below.value, above.value))
        assert checked >= 200  # all 214 pairs today
        assert misses == []

    def test_decreasing_in_fading_parameter_non_integer(self):
        # non-integer shapes sit outside the GL route's kink-free region, so
        # probe the direct route alone
        values = [ber_direct(sir_distribution(scen(**{**self.BASE3, "m": m}))).value
                  for m in (0.5, 0.75, 1.5, 2.5, 3.75)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_increasing_in_interferer_power(self):
        values = [_ber_value(**{**self.BASE3, "p2": p2}) for p2 in (2, 4, 6, 8, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_source_power(self):
        values = [_ber_value(**{**self.BASE3, "p1": p1}) for p1 in (11, 13, 15, 17, 19)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestInvariance:
    def test_common_db_shift(self):
        reference = ber(FIG2).ber
        shifted = _ber_value(m=3, M=2, p1=17 + 6, p2=10 + 6, s=100, t=100, n=3.5)
        assert abs(reference - shifted) < 1e-12

    def test_common_distance_scale(self):
        reference = ber(FIG2).ber
        scaled = _ber_value(m=3, M=2, p1=17, p2=10, s=100 * 3.7, t=100 * 3.7, n=3.5)
        assert abs(reference - scaled) < 1e-12

    def test_common_power_scale(self):
        reference = ber(FIG2).ber
        scaled = _ber_value(m=3, M=2, p1=17, p2=10, s=100, t=100, n=3.5,
                            sigma=2.5, rho=2.5)
        assert abs(reference - scaled) < 1e-12


class TestBerResultInvariants:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BerResult(ber=0.6, quad_error=0.0, route_disagreement=0.0)
        with pytest.raises(ValueError):
            BerResult(ber=-0.1, quad_error=0.0, route_disagreement=0.0)
        with pytest.raises(ValueError):
            BerResult(ber=0.1, quad_error=-1.0, route_disagreement=0.0)
        with pytest.raises(ValueError, match="route_disagreement"):
            BerResult(ber=0.1, quad_error=0.0, route_disagreement=-1.0)

    def test_quadrature_result_invariants(self):
        with pytest.raises(ValueError, match="abs_error_estimate"):
            QuadratureResult(value=0.1, abs_error_estimate=-1.0, evaluations=1)
        with pytest.raises(ValueError, match="abs_error_estimate"):
            QuadratureResult(value=0.1, abs_error_estimate=math.nan, evaluations=1)
        with pytest.raises(ValueError, match="evaluations"):
            QuadratureResult(value=0.1, abs_error_estimate=0.0, evaluations=0)
