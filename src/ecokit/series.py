"""Truncated power series over exact rationals, and polynomials in u on top.

Everything here is exact: an integral coefficient is an `int`, any other is
a `fractions.Fraction` made by an exact division (`qpoly._div`) that left a
remainder, truncation orders are tracked explicitly, and no floating point
is ever involved.  The kernel route divides only by units, so its series
stay in `int` throughout.  A `TruncSeries` of order N carries coefficients
of z^0 .. z^(N-1) and makes no claim beyond that, so binary operations
return the shortest order that is actually justified by the inputs
(division additionally loses the valuation of the divisor).

`UPoly` is a polynomial in a second variable u whose coefficients are
truncated series in z.  It is what kernel-method computations work with:
Hensel lifting splits off the monic small factor carrying all branches
finite at z = 0, which the kernel route takes for every back width b.
Newton iteration finds the power-series root of one simple branch; at b = 0
that root U gives the small factor u - U by an independent route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import add, mul, sub

from .errors import SeriesError
from .qpoly import QPoly, _div, _exact, _exact_all


class TruncSeries:
    """Power series known modulo z^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(_exact_all(coeffs))
        if not self.coeffs:
            raise SeriesError("series needs order at least 1")

    @classmethod
    def _of(cls, coeffs):
        """Wrap coefficients that are already normal (ints and non-integral
        Fractions), skipping the per-coefficient conversion."""
        if not coeffs:
            raise SeriesError("series needs order at least 1")
        s = cls.__new__(cls)
        s.coeffs = tuple(coeffs)
        return s

    @property
    def order(self):
        return len(self.coeffs)

    @classmethod
    def zero(cls, order):
        return cls._of((0,) * order)

    @classmethod
    def one(cls, order):
        return cls._of((1,) + (0,) * (order - 1))

    @classmethod
    def from_poly(cls, coeffs, order):
        """Series of a polynomial: exact zeros pad up to the requested order."""
        coeffs = _exact_all(coeffs)
        if len(coeffs) > order:
            raise SeriesError("polynomial degree exceeds requested order")
        return cls._of(coeffs + [0] * (order - len(coeffs)))

    def truncate(self, order):
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        if order == self.order:
            return self
        return TruncSeries._of(self.coeffs[:order])

    def __getitem__(self, n):
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient z^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def agrees_with(self, other):
        """Equality on the common prefix of the two truncations."""
        n = min(self.order, other.order)
        return self.coeffs[:n] == other.coeffs[:n]

    def valuation(self):
        """Index of the first nonzero known coefficient, or None if all vanish."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self):
        return self.valuation() is None

    def __add__(self, other):
        return TruncSeries._of(_exact_all(list(map(add, self.coeffs, other.coeffs))))

    def __sub__(self, other):
        return TruncSeries._of(_exact_all(list(map(sub, self.coeffs, other.coeffs))))

    def __neg__(self):
        return TruncSeries._of([-c for c in self.coeffs])

    def scale(self, c):
        c = _exact(c)
        return TruncSeries._of(_exact_all([a * c for a in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        n = min(self.order, other.order)
        b = other.coeffs
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                out[i:] = map(add, out[i:], map(mul, repeat(a), b[: n - i]))
        return TruncSeries._of(_exact_all(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division; requires valuation(self) >= valuation(other).

        The result order is min(order) - valuation(other): cancelling z^v
        genuinely costs v known coefficients on both sides.
        """
        v = other.valuation()
        if v is None:
            raise SeriesError("division by a series that vanishes to its full order")
        if v > 0:
            for i in range(min(v, self.order)):
                if self.coeffs[i]:
                    raise SeriesError(
                        f"division by higher valuation: z^{i} present, divisor starts at z^{v}"
                    )
        n = min(self.order, other.order) - v
        if n <= 0:
            raise SeriesError("no coefficients survive the valuation shift")
        a = self.coeffs[v : v + n]
        b = other.coeffs[v : v + n]
        b0 = b[0]
        out = []
        for i in range(n):
            # a[i] = sum_{j <= i} b[j] out[i-j], solved for out[i]
            acc = a[i] - sum(map(mul, b[1 : i + 1], reversed(out)))
            out.append(_div(acc, b0))
        return TruncSeries._of(out)

    def inverse(self):
        return TruncSeries.one(self.order) / self

    def shift(self, j):
        """Multiply by z^j (j >= 0 prepends exact zeros, order grows with it)."""
        if j < 0:
            raise SeriesError("use division for negative shifts")
        return TruncSeries._of((0,) * j + self.coeffs)

    def sqrt(self):
        """Square root on the branch with positive constant term."""
        c0 = self.coeffs[0]
        if c0 <= 0:
            raise SeriesError("square root needs a positive constant term")
        p, q = c0.numerator, c0.denominator
        rp, rq = isqrt(p), isqrt(q)
        if rp * rp != p or rq * rq != q:
            raise SeriesError(f"constant term {c0} is not the square of a rational")
        s0 = _div(rp, rq)
        two_s0 = _exact(2 * s0)
        out = [s0]
        for n in range(1, self.order):
            tail = out[1:n]
            out.append(_div(self.coeffs[n] - sum(map(mul, tail, reversed(tail))), two_s0))
        return TruncSeries._of(out)

    def as_ints(self):
        """Coefficient list as ints; fails loudly on a non-integer coefficient."""
        for c in self.coeffs:
            if c.__class__ is not int:
                raise SeriesError(f"non-integer coefficient {c}")
        return list(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"TruncSeries([{shown}{tail}] mod z^{self.order})"


class UPoly:
    """Polynomial in u whose coefficients are truncated series in z."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise SeriesError("UPoly needs at least one coefficient")
        order = min(c.order for c in coeffs)
        coeffs = [c.truncate(order) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_z_slices(cls, slices, order):
        """Build from z-power slices: slices[m] is the u-polynomial at z^m."""
        deg = max((s.degree for s in slices), default=0)
        cols = []
        for j in range(deg + 1):
            cols.append(
                TruncSeries._of([slices[m][j] if m < len(slices) else 0 for m in range(order)])
            )
        return cls(cols)

    @property
    def degree_u(self):
        return len(self.coeffs) - 1

    @property
    def order(self):
        return self.coeffs[0].order

    def truncate(self, order):
        return UPoly([c.truncate(order) for c in self.coeffs])

    def z_slice(self, m):
        """Coefficient of z^m, as a polynomial in u."""
        return QPoly([c[m] for c in self.coeffs])

    def eval_series(self, u):
        """Substitute a series for u (Horner)."""
        order = min(self.order, u.order)
        acc = TruncSeries.zero(order)
        for c in reversed(self.coeffs):
            acc = acc * u + c.truncate(order)
        return acc

    def eval_scalar(self, x):
        """Substitute a rational constant for u."""
        x = _exact(x)
        acc = TruncSeries.zero(self.order)
        for c in reversed(self.coeffs):
            acc = acc.scale(x) + c
        return acc

    def derivative_u(self):
        if self.degree_u == 0:
            return UPoly([TruncSeries.zero(self.order)])
        return UPoly([c.scale(i) for i, c in enumerate(self.coeffs)][1:])

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = [TruncSeries.zero(order) for _ in range(self.degree_u + other.degree_u + 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a.truncate(order) * b.truncate(order)
        return UPoly(out)

    def __sub__(self, other):
        order = min(self.order, other.order)
        n = max(self.degree_u, other.degree_u) + 1
        zero = TruncSeries.zero(order)
        out = []
        for i in range(n):
            a = self.coeffs[i].truncate(order) if i <= self.degree_u else zero
            b = other.coeffs[i].truncate(order) if i <= other.degree_u else zero
            out.append(a - b)
        return UPoly(out)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __repr__(self):
        return f"UPoly(degree_u={self.degree_u}, order={self.order})"


def newton_series_root(kernel: UPoly, seed, order) -> TruncSeries:
    """Power-series root u(z) of kernel(z, u) = 0 with u(0) = seed.

    The seed must be a simple root of kernel(0, u).  Precision doubles per
    Newton step and a final full substitution verifies the result.
    """
    seed = _exact(seed)
    k0 = kernel.z_slice(0)
    if k0.eval(seed) != 0:
        raise SeriesError(f"seed {seed} is not a root of the kernel at z = 0")
    if k0.derivative().eval(seed) == 0:
        raise SeriesError(f"seed {seed} is a multiple root, Newton cannot start")
    deriv = kernel.derivative_u()
    u = TruncSeries._of((seed,))
    while u.order < order:
        m = min(2 * u.order, order)
        cur = TruncSeries._of(u.coeffs + (0,) * (m - u.order))
        ku = kernel.truncate(m).eval_series(cur)
        kpu = deriv.truncate(m).eval_series(cur)
        u = cur - ku / kpu
    residue = kernel.truncate(order).eval_series(u)
    if not residue.is_zero():
        raise SeriesError("Newton iteration failed to verify the root")
    return u


def hensel_small_factor(kernel: UPoly, b: int, order: int):
    """Split kernel = S * T mod z^order with S monic of degree b + 1.

    Requires kernel(0, u) = u^b (1 - u); then S(0, u) = u^b (u - 1) and
    T(0, u) = -1, which are coprime, so the factorization lifts order by
    order.  S carries exactly the b + 1 branches finite at z = 0.
    """
    k0 = kernel.z_slice(0)
    s0 = QPoly([0] * b + [-1, 1])  # u^b (u - 1)
    if k0 != -s0:
        raise SeriesError("kernel at z = 0 is not u^b (1 - u); lifting precondition fails")
    # Column a of S (c of T) lists the u^a (u^c) coefficients of its
    # z-slices.  Slices S_m (m >= 1) have u-degree <= b and T has u-degree
    # du - b - 1, so each slice's correction sum_(0<i<m) S_i T_(m-i) is one
    # dot product per pair of columns, accumulated in one coefficient list.
    du = kernel.degree_u
    s_cols = [[c] for c in s0.coeffs]
    t_cols = [[-1]] + [[0] for _ in range(du - b - 1)]
    for m in range(1, order):
        e = list(kernel.z_slice(m).coeffs) + [0] * du
        for a, s in enumerate(s_cols[: b + 1]):
            for c, t in enumerate(t_cols, a):
                e[c] -= sum(map(mul, s[1:m], t[m - 1 : 0 : -1]))
        quot, rem = divmod(QPoly(e), s0)
        # S0 * T_m + T0 * S_m = E  with T0 = -1 gives S_m = -rem, T_m = quot.
        for a, s in enumerate(s_cols):
            s.append(-rem[a])
        for c, t in enumerate(t_cols):
            t.append(quot[c])
    small = UPoly([TruncSeries(s) for s in s_cols])
    cofactor = UPoly([TruncSeries(t) for t in t_cols])
    if not (kernel.truncate(order) - small * cofactor).is_zero():
        raise SeriesError("Hensel lift failed verification")
    return small, cofactor
