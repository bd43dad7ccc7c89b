from fractions import Fraction

import pytest

from ecokit.qpoly import QPoly
from ecokit.series import TruncSeries, UPoly, hensel_small_factor, newton_series_root


def geom(order):
    return TruncSeries([1] * order)


class TestTruncSeries:
    def test_basic_ring_ops(self):
        a = TruncSeries([1, 2, 3])
        b = TruncSeries([0, 1, 1])
        assert (a + b) - b == a
        assert (a * b).as_ints() == [0, 1, 3]
        assert a.scale(2).as_ints() == [2, 4, 6]
        assert (-a + a).is_zero()

    def test_mul_truncates_to_min_order(self):
        a = TruncSeries([1, 1, 1, 1])
        b = TruncSeries([1, 1])
        assert (a * b).order == 2

    def test_inverse_of_one_minus_z(self):
        one_minus_z = TruncSeries.from_poly([1, -1], 10)
        assert one_minus_z.inverse() == geom(10)
        assert (one_minus_z * geom(10)).as_ints() == [1] + [0] * 9

    def test_division_shifts_by_valuation(self):
        num = TruncSeries.from_poly([0, 0, 1, 1], 8)  # z^2 (1 + z)
        den = TruncSeries.from_poly([0, 1], 8)  # z
        out = num / den
        assert out.as_ints() == [0, 1, 1, 0, 0, 0, 0]
        assert out.order == 7

    def test_division_by_noninvertible_raises(self):
        with pytest.raises(Exception):
            TruncSeries.from_poly([1], 5) / TruncSeries.from_poly([0, 1], 5)

    def test_sqrt_of_one_minus_four_z(self):
        s = TruncSeries.from_poly([1, -4], 8).sqrt()
        # Twice the shifted Catalan numbers, negated; re-verified by squaring.
        assert s.as_ints() == [1, -2, -2, -4, -10, -28, -84, -264]
        assert (s * s) == TruncSeries.from_poly([1, -4], 8)

    def test_sqrt_requires_square_constant(self):
        with pytest.raises(Exception):
            TruncSeries.from_poly([2, 1], 5).sqrt()

    def test_shift(self):
        s = TruncSeries([1, 2, 3])
        assert s.shift(2).as_ints() == [0, 0, 1, 2, 3]

    def test_valuation(self):
        assert TruncSeries([0, 0, 5, 1]).valuation() == 2
        assert TruncSeries([1]).valuation() == 0

    def test_agrees_with_compares_common_prefix(self):
        assert TruncSeries([1, 2, 3]).agrees_with(TruncSeries([1, 2]))
        assert not TruncSeries([1, 2, 3]).agrees_with(TruncSeries([1, 9]))

    def test_as_ints_rejects_non_integers(self):
        with pytest.raises(Exception):
            TruncSeries([Fraction(1, 2)]).as_ints()


class TestUPoly:
    def test_slices_roundtrip(self):
        k0 = QPoly([1, -1])
        k1 = QPoly([0, 2, 5])
        up = UPoly.from_z_slices([k0, k1], 6)
        assert up.z_slice(0) == k0
        assert up.z_slice(1) == k1
        assert up.z_slice(2) == QPoly.zero()
        assert up.degree_u == 2

    def test_mul_matches_manual_expansion(self):
        # (1 + u) * (1 - u) = 1 - u^2, constant in z
        a = UPoly.from_z_slices([QPoly([1, 1])], 4)
        b = UPoly.from_z_slices([QPoly([1, -1])], 4)
        assert (a * b).z_slice(0) == QPoly([1, 0, -1])

    def test_eval_series_substitutes_u(self):
        # K(z, u) = 1 - u + z u^2 at u = 1 gives z
        up = UPoly.from_z_slices([QPoly([1, -1]), QPoly([0, 0, 1])], 6)
        at_one = up.eval_series(TruncSeries.one(6))
        assert at_one.as_ints() == [0, 1, 0, 0, 0, 0]

    def test_derivative_u(self):
        up = UPoly.from_z_slices([QPoly([1, 2, 3])], 4)  # 1 + 2u + 3u^2
        d = up.derivative_u()
        assert d.z_slice(0) == QPoly([2, 6])


class TestRootFinding:
    def test_newton_root_is_catalan(self):
        # 1 - u + z u^2 = 0 with u(0) = 1: the Catalan generating function.
        kernel = UPoly.from_z_slices([QPoly([1, -1]), QPoly([0, 0, 1])], 10)
        root = newton_series_root(kernel, 1, 10)
        assert root.as_ints() == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]

    def test_newton_rejects_non_root_seed(self):
        kernel = UPoly.from_z_slices([QPoly([1, -1]), QPoly([0, 0, 1])], 6)
        with pytest.raises(Exception):
            newton_series_root(kernel, 3, 6)

    def test_hensel_recovers_constructed_factors(self):
        order = 12
        # S monic of u-degree 3 with S(0,u) = u^2 (u - 1); T(0,u) = -1.
        s_true = UPoly.from_z_slices(
            [QPoly([0, 0, -1, 1]), QPoly([1, 2])], order
        )
        t_true = UPoly.from_z_slices(
            [QPoly([-1]), QPoly([3, 1]), QPoly([0, 0, 1])], order
        )
        small, cofactor = hensel_small_factor(s_true * t_true, 2, order)
        assert (small - s_true).is_zero()
        assert (cofactor - t_true).is_zero()

    def test_hensel_product_identity(self):
        order = 10
        kernel = UPoly.from_z_slices(
            [QPoly([0, 1, -1]), QPoly([1, 0, -1, 2])], order
        )
        small, cofactor = hensel_small_factor(kernel, 1, order)
        assert (small * cofactor - kernel).truncate(order).is_zero()
        assert small.z_slice(0) == QPoly([0, -1, 1])
