"""Series, polynomial and rational-function arithmetic against a plain
`Fraction` reference, and the storage rule behind it: a coefficient is an
`int` when it is integral and a `Fraction` with denominator other than 1
otherwise, never a float."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit import qpoly
from ecokit.qpoly import _PRIME, QPoly, poly_gcd
from ecokit.ratfunc import RatFunc
from ecokit.series import TruncSeries

coeff = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
nonzero = coeff.filter(bool)
coeffs = st.lists(coeff, min_size=1, max_size=7)


def normal(values):
    """Every value is an int, or a Fraction that is not integral."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in values
    )


# --- reference: lists of Fractions, schoolbook everything -----------------


def ref_mul(a, b):
    n = min(len(a), len(b))
    return [sum(Fraction(a[i]) * b[k - i] for i in range(k + 1)) for k in range(n)]


def ref_div(a, b):
    """a / b for b[0] != 0, to min(len) terms."""
    n = min(len(a), len(b))
    out = []
    for k in range(n):
        acc = Fraction(a[k]) - sum(Fraction(b[j]) * out[k - j] for j in range(1, k + 1))
        out.append(acc / b[0])
    return out


def trim(values):
    values = [Fraction(c) for c in values]
    while values and values[-1] == 0:
        values.pop()
    return values


def ref_divmod(a, b):
    rem, b = trim(a), trim(b)
    if len(rem) < len(b):
        return [], rem
    quot = [Fraction(0)] * (len(rem) - len(b) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, x in enumerate(b):
            rem[i + j] -= c * x
    return trim(quot), trim(rem)


def ref_gcd(a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


# --- properties --------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(coeffs, coeffs)
def test_series_product(a, b):
    got = TruncSeries(a) * TruncSeries(b)
    assert normal(got.coeffs)
    assert list(got.coeffs) == ref_mul(a, b)


@settings(max_examples=20, deadline=None)
@given(coeffs, nonzero, coeffs, st.integers(0, 2))
def test_series_quotient_and_inverse(a, b0, b, v):
    # a z^v / (b0 + b z) z^v: the divisor's valuation v is cancelled first
    num = TruncSeries([0] * v + a)
    den = TruncSeries([0] * v + [b0] + b)
    got = num / den
    assert normal(got.coeffs)
    assert list(got.coeffs) == ref_div(a, [b0] + b)
    inv = TruncSeries([b0] + b).inverse()
    assert normal(inv.coeffs)
    assert list(inv.coeffs) == ref_div([1] + [0] * len(b), [b0] + b)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), coeffs)
def test_series_sqrt_of_a_square(p, q, tail):
    root = [Fraction(p, q)] + tail
    square = TruncSeries(ref_mul(root, root))
    got = square.sqrt()
    assert normal(got.coeffs)
    assert list(got.coeffs) == root


@settings(max_examples=20, deadline=None)
@given(coeffs, coeffs.filter(any))
def test_poly_divmod(a, b):
    quot, rem = divmod(QPoly(a), QPoly(b))
    assert normal(quot.coeffs) and normal(rem.coeffs)
    assert (list(quot.coeffs), list(rem.coeffs)) == ref_divmod(a, b)
    assert quot * QPoly(b) + rem == QPoly(a)


@settings(max_examples=20, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_poly_gcd(f, g, h):
    # a common factor f makes a nontrivial gcd whenever it has degree >= 1
    a, b = QPoly(f) * QPoly(g), QPoly(f) * QPoly(h)
    got = poly_gcd(a, b)
    assert normal(got.coeffs)
    assert list(got.coeffs) == ref_gcd(a.coeffs, b.coeffs)
    assert list(poly_gcd(QPoly(g), QPoly(h)).coeffs) == ref_gcd(g, h)


@settings(max_examples=20, deadline=None)
@given(coeffs, nonzero, coeffs, st.integers(1, 12))
def test_ratfunc_expand(num, d0, den, order):
    rf = RatFunc(QPoly(num), QPoly([d0] + den))
    assert normal(rf.num.coeffs) and normal(rf.den.coeffs)
    assert rf.den.coeffs[0] == 1
    got = rf.expand(order)
    assert normal(got.coeffs)
    pad = [0] * order
    assert list(got.coeffs) == ref_div((num + pad)[:order], ([d0] + den + pad)[:order])


# --- the modular coprimality shortcut ----------------------------------------


def exact_gcd(monkeypatch, a, b):
    with monkeypatch.context() as m:
        m.setattr(qpoly, "_coprime_mod_p", lambda a, b: False)
        return poly_gcd(a, b)


def test_shortcut_answers_a_coprime_pair(monkeypatch):
    a, b = QPoly([1, 1]) * QPoly([2, 1]), QPoly([-3, 1]) * QPoly([Fraction(1, 2), 0, 1])
    assert qpoly._coprime_mod_p(a, b)
    assert poly_gcd(a, b) == exact_gcd(monkeypatch, a, b) == QPoly.one()


def test_shortcut_leaves_a_common_factor_to_the_exact_gcd(monkeypatch):
    common = QPoly([Fraction(2, 3), 1])
    a, b = common * QPoly([1, 1]), common * QPoly([-3, 0, 1])
    assert not qpoly._coprime_mod_p(a, b)
    assert poly_gcd(a, b) == exact_gcd(monkeypatch, a, b) == common


def test_shortcut_refuses_when_the_prime_divides_the_leading_coefficient(monkeypatch):
    # p z + 1 is the common factor, but modulo p it is the constant 1, so
    # the images z + 2 and z + 3 are coprime: only the exact gcd sees it.
    common = QPoly([1, _PRIME])
    a, b = common * QPoly([2, 1]), common * QPoly([3, 1])
    assert not qpoly._coprime_mod_p(a, b)
    assert poly_gcd(a, b) == exact_gcd(monkeypatch, a, b) == QPoly([Fraction(1, _PRIME), 1])


def test_shortcut_refuses_when_the_prime_divides_a_denominator(monkeypatch):
    a, b = QPoly([Fraction(1, _PRIME), 1]), QPoly([1, 1])
    assert not qpoly._coprime_mod_p(a, b)
    assert poly_gcd(a, b) == exact_gcd(monkeypatch, a, b) == QPoly.one()
