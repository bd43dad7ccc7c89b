"""Dense univariate polynomials with exact rational coefficients.

Coefficients are `fractions.Fraction`, stored low degree first with trailing
zeros stripped, so the zero polynomial is the empty tuple.  This is the small
workhorse shared by the series layer (kernel slices, exact division) and the
rational-function layer (closed forms, linear algebra witnesses).
"""

from __future__ import annotations

from fractions import Fraction


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class QPoly:
    """Polynomial over Q, immutable, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([Fraction(c) for c in coeffs])

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return QPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return QPoly(()), QPoly(rem)
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return QPoly(quot), QPoly(rem)

    def shift(self, j):
        """Multiply by x**j (j >= 0)."""
        if self.is_zero():
            return self
        return QPoly([Fraction(0)] * j + list(self.coeffs))

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def to_str(self, var="z"):
        """Human form like '1 - 3z + z^2'."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}"
                term = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"QPoly({self.to_str()})"


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd by the Euclidean algorithm.  Each divisor is made monic
    first, which keeps the remainders' coefficients from blowing up."""
    while not b.is_zero():
        b = b * (1 / b.coeffs[-1])
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return a * (1 / a.coeffs[-1])
