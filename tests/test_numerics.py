"""Tests of the numerics under `sirlink.ber`, each against an independent oracle.

Covers the paper's Gamma(1/2, .) (`upper_incomplete_gamma`) and the
Gauss-Laguerre rule (`gauss_laguerre_half`, scipy's Gauss-Hermite rule folded
onto y = x^2, as read-only arrays).  The direct route's trapezoid rule runs inside `ber_direct` and
`ber_batch`; tests/test_ber.py holds it to an mpmath table and tests its
error bound and failure paths.
"""

import math
from math import erfc

import numpy as np
import pytest
from scipy import special

from sirlink import gauss_laguerre_half, upper_incomplete_gamma
from sirlink.ber import SQRT_PI


def erfc_series_oracle(x):
    """erfc from the Maclaurin series of erf; converges fast for |x| <= 3."""
    total = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18:
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 1.0 - 2.0 / SQRT_PI * total


# Frozen from SQRT_PI * erfc_series_oracle(1.0); cross-checked below.
GAMMA_HALF_1 = 0.2788055852806620


class TestUpperIncompleteGamma:
    def test_at_zero_is_complete(self):
        assert upper_incomplete_gamma(0.5, 0.0) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_unit_shape_is_exponential(self):
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_half_shape_against_erfc_oracle(self):
        assert upper_incomplete_gamma(0.5, 1.0) == pytest.approx(GAMMA_HALF_1, rel=1e-12)
        assert SQRT_PI * erfc_series_oracle(1.0) == pytest.approx(GAMMA_HALF_1, abs=1e-15)

    def test_monotone_nonincreasing_in_x(self):
        for a in (0.5, 1.0, 3.2, 8.0):
            values = [upper_incomplete_gamma(a, x) for x in (0.0, 0.3, 1.0, 3.0, 10.0, 40.0)]
            assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))

    def test_recurrence(self):
        # Gamma(a+1, x) = a*Gamma(a, x) + x^a e^-x
        for a in (0.5, 1.0, 2.5, 6.0):
            for x in (0.0, 0.1, 1.0, 10.0):
                lhs = upper_incomplete_gamma(a + 1.0, x)
                rhs = a * upper_incomplete_gamma(a, x) + x ** a * math.exp(-x)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_erfc_identity(self):
        # Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x))
        for x in (0.0, 0.01, 1.0, 4.0, 25.0):
            lhs = upper_incomplete_gamma(0.5, x)
            rhs = SQRT_PI * erfc(math.sqrt(x))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, -0.1)


class TestGaussLaguerreHalf:
    def test_order_one_from_moment_oracle(self):
        # single node = m1/m0 = Gamma(3/2)/Gamma(1/2) = 1/2, weight = m0
        nodes, weights = gauss_laguerre_half(1)
        assert nodes[0] == pytest.approx(0.5, rel=1e-14)
        assert weights[0] == pytest.approx(SQRT_PI, rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 16, 32, 64, 128])
    def test_weight_sum_is_zeroth_moment(self, order):
        _, weights = gauss_laguerre_half(order)
        assert abs(math.fsum(weights) - SQRT_PI) < 1e-12

    @pytest.mark.parametrize("order", [1, 4, 16, 64, 128])
    def test_first_moment(self, order):
        nodes, weights = gauss_laguerre_half(order)
        m1 = math.fsum(w * y for y, w in zip(nodes, weights))
        assert abs(m1 - SQRT_PI / 2.0) < 1e-10

    @pytest.mark.parametrize("order", range(1, 11))
    def test_polynomial_exactness(self, order):
        # moment oracle: m_k = Gamma(k + 1/2) via the recurrence m_k = (k-1/2) m_{k-1}
        nodes, weights = gauss_laguerre_half(order)
        moment = SQRT_PI
        for k in range(2 * order):
            quad = math.fsum(w * y ** k for y, w in zip(nodes, weights))
            assert quad == pytest.approx(moment, rel=1e-9)
            moment *= k + 0.5

    def test_nodes_increasing_positive(self):
        for order in (2, 17, 64, 128):
            nodes, weights = gauss_laguerre_half(order)
            assert len(nodes) == len(weights) == order
            assert nodes[0] > 0.0
            assert all(a < b for a, b in zip(nodes, nodes[1:]))
            assert all(w > 0.0 for w in weights)

    @pytest.mark.parametrize("order", [0, -3, 129])
    def test_domain(self, order):
        with pytest.raises(ValueError):
            gauss_laguerre_half(order)

    def test_matches_golub_welsch_rule(self):
        # roots_genlaguerre builds the same Gauss rule by another method (the
        # eigenvalues of its Jacobi matrix); here it serves only as a reference
        nodes, weights = gauss_laguerre_half(128)
        ref_nodes, ref_weights = special.roots_genlaguerre(128, -0.5)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=0.0)

    def test_cached_arrays_are_read_only(self):
        # every ber_gl call shares these arrays, so a write must not get through
        for array in gauss_laguerre_half(128):
            with pytest.raises(ValueError):
                array[0] = 1.0
