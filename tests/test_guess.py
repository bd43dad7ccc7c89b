from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit import guess
from ecokit.catalog import get_entry
from ecokit.engine import total_series
from ecokit.guess import (
    AlgebraicRelation,
    GuessError,
    _full_rank_mod_p,
    guess_algebraic,
    guess_rational,
    minimal_algebraic,
    nullspace_basis,
)
from ecokit.qpoly import QPoly
from ecokit.ratfunc import RatFunc


def terms_of(name, order):
    return total_series(get_entry(name).spec(), order)


class TestRational:
    def test_recovers_fibonacci(self):
        got = guess_rational(terms_of("fibonacci", 40))
        assert got is not None
        assert got.func.num == QPoly([1])
        assert got.func.den == QPoly([1, -1, -1])
        assert got.verified_terms >= 10

    def test_recovers_forced_fraction_coefficients(self):
        target = RatFunc(QPoly([1, Fraction(1, 3)]), QPoly([1, 0, Fraction(-1, 2)]))
        terms = target.expand(40).coeffs
        got = guess_rational(terms)
        assert got is not None
        assert got.func.expand(40).coeffs == tuple(terms)

    def test_catalan_is_not_rational_at_dmax_8(self):
        assert guess_rational(terms_of("catalan", 40), dmax=8) is None

    def test_too_few_terms_raises(self):
        with pytest.raises(GuessError):
            guess_rational([1, 2, 3], dmax=8)

    def test_corrupted_tail_is_rejected(self):
        terms = terms_of("fibonacci", 40)
        terms[-1] += 1
        assert guess_rational(terms) is None

    def test_prefers_smallest_degrees(self):
        # 1/(1-z) fits with (0,1); nothing smaller works.
        got = guess_rational([1] * 40)
        assert (got.func.num.degree, got.func.den.degree) == (0, 1)


class TestAlgebraic:
    def test_ternary_relation_is_cubic_tree_equation(self):
        # F = (1 + zF)^3 expanded, normalized integer grid.
        got = guess_algebraic(terms_of("ternary", 40), 3, 3)
        assert got is not None
        assert got.relation.grid() == [
            [1, 0, 0, 0],
            [-1, 3, 0, 0],
            [0, 0, 3, 0],
            [0, 0, 0, 1],
        ]
        assert got.relation.holds_for(terms_of("ternary", 60))

    def test_catalan_minimal_relation(self):
        got = minimal_algebraic(terms_of("catalan", 40))
        assert got is not None
        rel = got.relation
        assert (rel.degree_z, rel.degree_f) == (2, 2)
        assert rel.grid() == [[1, 0, 0], [-1, 2, 0], [0, 0, 1]]

    def test_relation_rejected_on_corrupted_data(self):
        terms = terms_of("ternary", 40)
        terms[-1] += 1
        assert guess_algebraic(terms, 3, 3) is None

    def test_too_few_terms_raises(self):
        with pytest.raises(GuessError):
            guess_algebraic([1, 2, 3, 4], 3, 3)

    def test_holds_for_detects_mismatch(self):
        got = guess_algebraic(terms_of("ternary", 40), 3, 3)
        bad = terms_of("ternary", 40)
        bad[20] += 1
        assert not got.relation.holds_for(bad)

    def test_to_str_shape(self):
        got = minimal_algebraic(terms_of("catalan", 40))
        text = got.relation.to_str()
        assert text.endswith("= 0")
        assert "F^2" in text

    def test_sign_rule_breaks_degree_ties_toward_f(self):
        # F = 1 - z^2 F + z F^2: z^2 F and z F^2 tie in total degree, and
        # the one with more F leads, with a positive coefficient.
        f = [1]
        for n in range(1, 40):
            f.append((-f[n - 2] if n >= 2 else 0) + sum(f[k] * f[n - 1 - k] for k in range(n)))
        got = minimal_algebraic(f)
        assert got.relation.grid() == [[1, 0, 0], [-1, 0, -1], [0, 1, 0]]

    def test_rational_series_found_as_degree_one_relation(self):
        got = minimal_algebraic(terms_of("fibonacci", 40))
        assert got is not None
        assert got.relation.degree_f == 1


P = (1 << 61) - 1


def reference_nullspace(rows, ncols):
    """Kernel basis from a plain Fraction RREF: free columns in order, each
    vector 1 at its free column and minus the RREF entries at the pivots."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for r, c in enumerate(pivots):
                vec[c] = -work[r][free]
            basis.append(vec)
    return basis


entries = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, ncols


@st.composite
def deficient_matrices(draw):
    """At least ncols rows, all combinations of fewer than ncols base rows."""
    ncols = draw(st.integers(2, 6))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=ncols - 1))
    nrows = draw(st.integers(ncols, ncols + 3))
    rows = []
    for _ in range(nrows):
        coef = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        rows.append([sum((c * b[j] for c, b in zip(coef, base)), Fraction(0))
                     for j in range(ncols)])
    return rows, ncols


@st.composite
def p_multiple_matrices(draw):
    """P times a unit triangular matrix, rows shuffled: zero mod P,
    regular over Q."""
    n = draw(st.integers(1, 6))
    rows = [
        [P * (int(i == j) if j <= i else draw(st.integers(-3, 3))) for i in range(n)]
        for j in range(n)
    ]
    return draw(st.permutations(rows)), n


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(), deficient_matrices()))
def test_nullspace_matches_reference_rref(case):
    rows, ncols = case
    assert nullspace_basis(rows, ncols) == reference_nullspace(rows, ncols)


@settings(max_examples=50, deadline=None)
@given(p_multiple_matrices())
def test_singular_mod_p_falls_back_to_exact_rref(case):
    rows, ncols = case
    assert not _full_rank_mod_p(rows, ncols)
    assert nullspace_basis(rows, ncols) == [] == reference_nullspace(rows, ncols)


@st.composite
def low_rank_int_matrices(draw):
    """A product of n x k and k x m integer matrices, k < m: rank < m."""
    m = draw(st.integers(2, 10))
    k = draw(st.integers(1, m - 1))
    n = draw(st.integers(m, 14))
    ints = st.integers(-9, 9)
    a = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(ints, min_size=m, max_size=m), min_size=k, max_size=k))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a], m


@st.composite
def wide_int_matrices(draw):
    """Random integer matrices up to 14 x 10 with big entries, some rows
    multiples of P so that the certificate mod P fails."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 14))
    rows = draw(st.lists(st.lists(st.integers(-10**30, 10**30), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    scaled = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [[P * x for x in row] if s else row for row, s in zip(rows, scaled)], m


@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_int_matrices(), wide_int_matrices()))
def test_fraction_free_nullspace_matches_reference_on_larger_matrices(case):
    rows, ncols = case
    assert nullspace_basis(rows, ncols) == reference_nullspace(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(low_rank_int_matrices())
def test_fraction_free_nullspace_of_p_multiples(case):
    rows, ncols = case
    rows = [[P * x for x in row] for row in rows]
    assert nullspace_basis(rows, ncols) == reference_nullspace(rows, ncols)


def reference_minimal_algebraic(terms, max_total, holdout=10):
    """The sweep before the modular core: for each bidegree, in the order of
    `minimal_algebraic`, exact rows of z^i F^j on the fitting window and
    their kernel from `reference_nullspace`; the first kernel vector using
    F whose integer, sign-normalised relation holds on every term wins."""
    fit = len(terms) - holdout
    for total in range(1, 2 * max_total + 1):
        for df in range(1, min(total, max_total) + 1):
            dz = total - df
            if dz > max_total or len(terms) < (dz + 1) * (df + 1) + holdout:
                continue
            powers = [[1] + [0] * (fit - 1)]
            for _ in range(df):
                prev = powers[-1]
                powers.append([sum(prev[k] * terms[m - k] for k in range(m + 1))
                               for m in range(fit)])
            cols = [(j, i) for j in range(df + 1) for i in range(dz + 1)]
            rows = [[powers[j][m - i] if m >= i else 0 for j, i in cols] for m in range(fit)]
            for vec in reference_nullspace(rows, len(cols)):
                if not any(v for v, (j, _) in zip(vec, cols) if j):
                    continue
                den = lcm(*[v.denominator for v in vec])
                ints = [int(v * den) for v in vec]
                g = gcd(*ints)
                ints = [v // g for v in ints]
                lead = max((idx for idx, v in enumerate(ints) if v),
                           key=lambda idx: (sum(cols[idx]), cols[idx][0]))
                if ints[lead] < 0:
                    ints = [-v for v in ints]
                rel = AlgebraicRelation(tuple(
                    QPoly([ints[cols.index((j, i))] for i in range(dz + 1)])
                    for j in range(df + 1)))
                if rel.holds_for(terms):
                    return rel.coeffs, holdout
    return None


@st.composite
def planted_quadratic_sequences(draw):
    """Expansion of F = c + z (p + q F + r F^2) for small integer
    polynomials, sometimes with one term changed."""
    c = draw(st.integers(-2, 2))
    p, q, r = (draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2)) for _ in range(3))
    n = draw(st.integers(20, 34))
    f = [c]
    for m in range(1, n):
        # [z^(m-1)] of p + q F + r F^2, from f[0 .. m-1]
        sq = [sum(f[k] * f[i - k] for k in range(i + 1)) for i in range(m)]
        f.append(sum(x * f[m - 1 - i] for i, x in enumerate(q) if i <= m - 1)
                 + sum(x * sq[m - 1 - i] for i, x in enumerate(r) if i <= m - 1)
                 + (p[m - 1] if m - 1 < len(p) else 0))
    if draw(st.booleans()):
        f[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1]))
    return f, draw(st.integers(1, 3))


@st.composite
def random_term_sequences(draw):
    """Random terms: small or big integers, or integers over a common
    denominator (the exact route)."""
    n = draw(st.integers(14, 34))
    terms = draw(st.lists(st.one_of(st.integers(-2, 2), st.integers(-10**12, 10**12)),
                          min_size=n, max_size=n))
    den = draw(st.sampled_from([1, 1, 3, P]))
    return [Fraction(t, den) if den > 1 else t for t in terms], draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(st.one_of(planted_quadratic_sequences(), random_term_sequences()))
def test_minimal_algebraic_matches_the_exact_sweep(case):
    terms, max_total = case
    got = minimal_algebraic(terms, max_total=max_total)
    got = None if got is None else (got.relation.coeffs, got.verified_terms)
    assert got == reference_minimal_algebraic(terms, max_total)


@pytest.mark.parametrize("max_total, maximal", [
    (5, [(5, 4), (4, 5)]),
    (8, [(6, 3), (5, 4), (4, 5), (3, 6), (8, 2), (2, 8)]),
])
def test_zero_radius_sweep_builds_no_exact_rows(monkeypatch, max_total, maximal):
    """Bell numbers at 40 terms: certificates for the maximal bidegrees
    settle the whole sweep, and a certified bidegree gets no exact rows."""
    sweeps = []

    class Recording(guess._Sweep):
        def __init__(self, *args):
            super().__init__(*args)
            sweeps.append(self)

    monkeypatch.setattr(guess, "_Sweep", Recording)
    terms = terms_of("bell", 40)
    assert minimal_algebraic(terms, max_total=max_total) is None
    assert guess_algebraic(terms, 2, 3) is None
    sweep, single = sweeps
    assert sweep.certified == maximal and sweep.exact_powers == []
    assert single.certified == [(2, 3)] and single.exact_powers == []


def reference_guess_rational(terms, dmax, holdout=10):
    """The Padé sweep `guess_rational` replaced: degrees in increasing
    dp+dq, ties toward the smaller dq, each fitted on dp+dq+2 terms and
    kept when it reproduces every term."""
    terms = [Fraction(t) for t in terms]
    assert len(terms) >= 2 * dmax + holdout + 2
    for total in range(0, 2 * dmax + 1):
        for dq in range(0, min(total, dmax) + 1):
            dp = total - dq
            if dp > dmax:
                continue
            rows = [
                [terms[i - j] if i - j >= 0 else Fraction(0) for j in range(dq + 1)]
                for i in range(dp + 1, dp + dq + 2)
            ]
            for q in nullspace_basis(rows, dq + 1):
                if not q[0]:
                    continue
                p = [
                    sum(q[j] * terms[i - j] for j in range(min(i, dq) + 1))
                    for i in range(dp + 1)
                ]
                cand = RatFunc(QPoly(p), QPoly(q))
                if cand.expand(len(terms)).coeffs == tuple(terms):
                    return cand, len(terms) - (dp + dq + 2)
    return None


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_sequences(draw):
    """(terms, dmax): the expansion of a random P/Q with degrees up to
    dmax + 1, sometimes with one term of the tail changed."""
    dmax = draw(st.integers(1, 5))
    num = draw(st.lists(small, max_size=dmax + 2))
    den = [Fraction(1)] + draw(st.lists(small, max_size=dmax + 1))
    n = 2 * dmax + 12 + draw(st.integers(0, 6))
    terms = list(RatFunc(QPoly(num), QPoly(den)).expand(n).coeffs)
    if draw(st.booleans()):
        terms[draw(st.integers(n - 10, n - 1))] += draw(small.filter(bool))
    return terms, dmax


@st.composite
def integer_sequences(draw):
    dmax = draw(st.integers(1, 5))
    n = 2 * dmax + 12 + draw(st.integers(0, 6))
    return draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)), dmax


@settings(max_examples=100, deadline=None)
@given(st.one_of(rational_sequences(), integer_sequences()))
def test_guess_rational_matches_the_pade_sweep(case):
    terms, dmax = case
    got = guess_rational(terms, dmax=dmax)
    got = None if got is None else (got.func, got.verified_terms)
    assert got == reference_guess_rational(terms, dmax)
