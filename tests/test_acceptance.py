"""Release acceptance suite: one test per shipping criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Every comparison below is exact (big integers or rationals)
except the lacunary radius estimate, which carries its stated 1%
tolerance, and the sampler uniformity check, which uses a 0.1%
chi-square significance level.
"""

import time
from collections import Counter
from fractions import Fraction

from ecokit.catalog import ENTRIES, get_entry
from ecokit.classify import (
    affine_sigma,
    factorial_form,
    parity_affine,
    rational_gf_affine,
    rational_gf_parity,
)
from ecokit.contfrac import BirthDeathRule, cf_excursions
from ecokit.engine import count_levels, iter_levels, sample_walks, total_series
from ecokit.guess import guess_algebraic, guess_rational
from ecokit.kernel import build_kernel, kernel_gfs
from ecokit.qpoly import QPoly
from ecokit.ratfunc import RatFunc
from ecokit.series import TruncSeries


def spec_of(name):
    return get_entry(name).spec()


def test_01_catalog_golden_prefixes_match_engine():
    started = time.monotonic()
    assert len(ENTRIES) >= 20
    for entry in ENTRIES:
        spec = entry.spec()
        want = list(entry.golden)
        for method in ("naive", "range"):
            got = total_series(spec, len(want), method=method)
            assert got == want, f"{entry.name} diverges under {method}"
    assert time.monotonic() - started < 10.0


def test_02_kernel_route_equals_engine_to_order_30():
    systems = (
        "catalan",
        "motzkin",
        "schroeder",
        "ternary",
        "quaternary",
        "quinary",
        "walk_notch1",
    )
    for name in systems:
        spec = spec_of(name)
        started = time.monotonic()
        gf = kernel_gfs(build_kernel(factorial_form(spec), 31), 31)
        assert gf.F1.as_ints() == total_series(spec, 30), name
        assert time.monotonic() - started < 5.0, name


def test_03_rational_closed_forms_to_order_25():
    doubling_form = (QPoly([1, -3]), QPoly([1, -6, -3]))
    for name in (
        "affine_jumps",
        "tripling",
        "fibonacci_bisection_a",
        "fibonacci_bisection_b",
        "goldbach",
    ):
        spec = spec_of(name)
        witness = affine_sigma(spec)
        assert witness is not None, name
        rf = rational_gf_affine(witness, spec.axiom)
        assert rf.expand(25).as_ints() == total_series(spec, 25), name
        if name in ("affine_jumps", "tripling"):
            assert (rf.num, rf.den) == doubling_form, name

    goldbach_totals = total_series(spec_of("goldbach"), 13)
    assert goldbach_totals == [(1 + 3**n) // 2 for n in range(13)]

    spec = spec_of("parity_three_odd")
    rf = rational_gf_parity(parity_affine(spec))
    assert (rf.num, rf.den) == (QPoly([1, -1]), QPoly([1, -3, 1, -1]))
    assert rf.expand(25).as_ints() == total_series(spec, 25)


def test_04_bivariate_solution_matches_label_counts():
    for name in ("catalan", "motzkin", "schroeder", "fan", "ternary"):
        spec = spec_of(name)
        form = factorial_form(spec)
        gf = kernel_gfs(build_kernel(form, 14), 14, window=12)
        levels = list(iter_levels(spec, 12))
        for k in range(13):
            column = gf.Fu[k].as_ints()
            for n in range(13):
                assert column[n] == levels[n].get(form.base + k, 0), (name, n, k)


def test_05_excursion_continued_fraction():
    spec = spec_of("bessel")
    excursions = cf_excursions(BirthDeathRule.from_spec(spec), 25).as_ints()
    assert excursions[:9] == [1, 1, 2, 4, 9, 22, 58, 164, 496]
    levels = list(iter_levels(spec, 24))
    assert excursions == [levels[n].get(0, 0) for n in range(25)]

    # peeling off the first fraction level leaves the rule with one more
    # stay loop per height; excursions must reassemble as 1/(1 - z - z^2 B)
    inner = BirthDeathRule.from_functions(1, lambda j: j + 1, 1)
    b = cf_excursions(inner, 25)
    assert b.as_ints()[:7] == [1, 1, 2, 5, 14, 43, 143]
    z = TruncSeries.from_poly([0, 1], 25)
    assert (TruncSeries.one(25) - z - z * z * b).inverse().as_ints() == excursions


def test_06_guessing_recovers_known_relations():
    cases = (
        ("ternary", 3, 3, [[1, 0, 0, 0], [-1, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]]),
        (
            "quaternary",
            4,
            4,
            [
                [1, 0, 0, 0, 0],
                [-1, 4, 0, 0, 0],
                [0, 0, 6, 0, 0],
                [0, 0, 0, 4, 0],
                [0, 0, 0, 0, 1],
            ],
        ),
        (
            "walk_notch1",
            3,
            3,
            [[1, 0, 0, 0], [-1, 2, 0, 0], [0, -1, 1, 0], [0, 0, 0, 1]],
        ),
    )
    for name, deg_z, deg_f, grid in cases:
        terms = total_series(spec_of(name), 40)
        found = guess_algebraic(terms, deg_z, deg_f)
        assert found.relation.grid() == grid, name
        assert found.verified_terms == 10

    assert guess_rational(total_series(spec_of("catalan"), 40), dmax=8) is None


def test_07_diagonal_columns_stabilize():
    levels = list(iter_levels(spec_of("ceil_half"), 45))

    def g(n, k):
        return levels[n].get(n - k + 1, 0)

    f_rows = [[levels[n].get(k, 0) for k in range(1, n + 2)] for n in range(6)]
    assert f_rows == [
        [1],
        [0, 1],
        [1, 0, 1],
        [0, 3, 0, 1],
        [3, 3, 3, 0, 1],
        [3, 9, 7, 3, 0, 1],
    ]
    g_rows = [[g(n, k) for k in range(n + 1)] for n in range(6)]
    assert g_rows == [
        [1],
        [1, 0],
        [1, 0, 1],
        [1, 0, 3, 0],
        [1, 0, 3, 3, 3],
        [1, 0, 3, 7, 9, 3],
    ]

    for k in range(16):
        column = [g(n, k) for n in range(k, 46)]
        assert all(a <= b for a, b in zip(column, column[1:])), k
        stable_from = max(2 * k - 1, k)
        assert len({g(n, k) for n in range(stable_from, 46)}) == 1, k

    majorant = RatFunc(QPoly([1, -2, 1]), QPoly([1, -2, -2, -1]))
    bound = majorant.expand(21).as_ints()
    assert bound[:5] == [1, 0, 3, 7, 20]
    for k in range(21):
        assert g(39, k) == g(45, k), k
        assert g(45, k) <= bound[k], k


def test_08_sampler_uniform_and_deterministic():
    from scipy.stats import chi2

    spec = spec_of("catalan")
    assert total_series(spec, 8)[7] == 1430
    draws = 100_000
    walks = sample_walks(spec, 7, draws, seed=2026)
    again = sample_walks(spec, 7, draws, seed=2026)
    assert walks == again

    observed = Counter(tuple(w) for w in walks)
    assert len(observed) == 1430
    expected = Fraction(draws, 1430)
    # sum over all 1430 cells of (c - E)^2 / E, absent cells included
    statistic = sum(c * c for c in observed.values()) / expected - draws
    assert float(statistic) < chi2.ppf(0.999, 1429)


def test_09_lacunary_radius_estimate():
    entry = get_entry("fredholm")
    totals = total_series(entry.spec(), 62)
    assert totals[: len(entry.golden)] == list(entry.golden)
    ratio = Fraction(totals[60], totals[61])
    assert abs(float(ratio) - 0.360102) <= 0.01 * 0.360102


def test_10_range_updates_scale_and_agree():
    spec = spec_of("catalan")
    started = time.monotonic()
    table = count_levels(spec, 1000, method="range")
    assert time.monotonic() - started < 60.0
    assert len(table.totals) == 1001

    naive = count_levels(spec, 100, method="naive")
    ranged = count_levels(spec, 100, method="range")
    assert naive.totals == ranged.totals
