"""Rational functions p(z)/q(z) over Q, normalized for display and expansion.

The denominator is kept with constant term 1 whenever it does not vanish at
the origin, which is the only case the generating functions here produce.
Coefficients follow `qpoly`: an `int` when integral, a `Fraction` only where
dividing by den(0) or by the gcd left a remainder.  The gcd is skipped when
the pair is coprime modulo a prime (`qpoly.poly_gcd`).
"""

from __future__ import annotations

from .qpoly import QPoly, poly_gcd
from .series import SeriesError, TruncSeries


class RatFunc:
    """Reduced rational function with den(0) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        c = den[0]
        if c == 0:
            raise SeriesError("denominator vanishes at the origin")
        self.num = num / c
        self.den = den / c

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def expand(self, order) -> TruncSeries:
        num = TruncSeries.from_poly(self.num.coeffs[:order], order)
        den = TruncSeries.from_poly(self.den.coeffs[:order], order)
        return num / den

    def to_str(self, var="z"):
        n = self.num.to_str(var)
        d = self.den.to_str(var)
        if d == "1":
            return n
        if self.num.degree > 0 and len(self.num.coeffs) > 1:
            n = f"({n})"
        return f"{n}/({d})"

    def __repr__(self):
        return f"RatFunc({self.to_str()})"
