"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored low degree first with trailing zeros stripped, so
the zero polynomial is the empty tuple.  An integral coefficient is an
`int`; a `fractions.Fraction` (never with denominator 1) appears only where
a division left a remainder.  `_exact` is the one normaliser and `_div` the
one exact division, shared with the series layer: `int / int` would give a
float, so no coefficient is ever divided any other way.  This is the small
workhorse shared by the series layer (kernel slices, exact division) and the
rational-function layer (closed forms, linear algebra witnesses).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub

_PRIME = (1 << 61) - 1  # modulus of the modular gcd and rank certificates


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exact_all(values):
    """_exact over values, as a list; ints pass without a call."""
    return [c if c.__class__ is int else _exact(c) for c in values]


def _div(a, b):
    """Exact quotient a / b of two normal coefficients."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class QPoly:
    """Polynomial over Q, immutable, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(_exact_all(coeffs))

    @classmethod
    def _of(cls, coeffs):
        """Wrap coefficients that are already normal (ints and non-integral
        Fractions), skipping the per-coefficient conversion."""
        p = cls.__new__(cls)
        p.coeffs = _trim(coeffs)
        return p

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
        return 0

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
        out = list(map(add, a, b))
        out += a[len(b) :]
        return QPoly._of(_exact_all(out))

    def __neg__(self):
        return QPoly._of([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly._of(_exact_all([c * other for c in self.coeffs]))
        if self.is_zero() or other.is_zero():
            return QPoly(())
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, c in enumerate(a):
            if c:
                out[i : i + nb] = map(add, out[i : i + nb], map(mul, repeat(c), b))
        return QPoly._of(_exact_all(out))

    __rmul__ = __mul__

    def __truediv__(self, c):
        """Every coefficient divided exactly by the scalar c."""
        return QPoly._of([_div(x, c) for x in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        m = len(other.coeffs)
        dq = len(rem) - m
        if dq < 0:
            return QPoly(()), QPoly._of(rem)
        quot = [0] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = _div(rem[i + m - 1], lead)
            quot[i] = c
            if c:
                rem[i : i + m] = map(sub, rem[i : i + m], map(mul, repeat(c), other.coeffs))
        return QPoly._of(quot), QPoly._of(_exact_all(rem))

    def shift(self, j):
        """Multiply by x**j (j >= 0)."""
        if self.is_zero():
            return self
        return QPoly._of([0] * j + list(self.coeffs))

    def eval(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _exact(acc)

    def derivative(self):
        return QPoly._of(_exact_all([i * c for i, c in enumerate(self.coeffs)][1:]))

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


def _mod_p(poly):
    """Coefficients modulo _PRIME, or None when _PRIME divides a denominator."""
    out = []
    for c in poly.coeffs:
        if c.__class__ is int:
            out.append(c % _PRIME)
            continue
        den = c.denominator
        if den % _PRIME == 0:
            return None
        out.append(c.numerator * pow(den, -1, _PRIME) % _PRIME)
    return out


def _coprime_mod_p(a: QPoly, b: QPoly) -> bool:
    """True only if a and b (both nonzero) are coprime over Q.

    Euclid runs on the images modulo _PRIME.  When _PRIME divides no
    denominator and not a's leading coefficient, a common factor of positive
    degree over Q keeps its degree modulo _PRIME (Gauss's lemma), so a
    constant modular gcd proves coprimality.  False means "not proved".
    """
    x, y = _mod_p(a), _mod_p(b)
    if x is None or y is None or x[-1] == 0:
        return False
    while True:
        while y and y[-1] == 0:
            y.pop()
        if len(y) <= 1:
            return bool(y) or len(x) == 1
        inv = pow(y[-1], -1, _PRIME)
        m = len(y) - 1
        while len(x) > m:  # x mod y, one leading term at a time
            f = x.pop() * inv % _PRIME
            if f:
                off = len(x) - m
                for j in range(m):
                    x[off + j] = (x[off + j] - f * y[j]) % _PRIME
        x, y = y, x


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd by the Euclidean algorithm.  A pair shown coprime modulo
    _PRIME answers 1 at once.  Otherwise each divisor is made monic first,
    which keeps the remainders' coefficients from blowing up."""
    if a and b and _coprime_mod_p(a, b):
        return QPoly.one()
    while not b.is_zero():
        b = b / b.coeffs[-1]
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return a / a.coeffs[-1]
