from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit.catalog import get_entry
from ecokit.engine import total_series
from ecokit.guess import (
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
