import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit.catalog import get_entry
from ecokit.contfrac import BirthDeathRule, ContFracError, cf_excursions
from ecokit.engine import iter_levels


def bessel_rule():
    return BirthDeathRule.from_spec(get_entry("bessel").spec())


class TestRuleConstruction:
    def test_from_spec_reads_multiplicities(self):
        rule = bessel_rule()
        assert (rule.stay(0), rule.up(0)) == (1, 1)
        assert (rule.down(3), rule.stay(3), rule.up(3)) == (1, 3, 1)

    def test_from_spec_rejects_long_jumps(self):
        with pytest.raises(ContFracError, match=r"outside \{k-1, k, k\+1\}"):
            BirthDeathRule.from_spec(get_entry("catalan").spec())

    def test_eco_arity_law_enforced(self):
        with pytest.raises(ContFracError, match="arity law"):
            BirthDeathRule.from_functions(1, 0, 0, mode="eco")

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ContFracError, match="negative"):
            BirthDeathRule.from_functions(0, lambda k: k - 5, 1)


class TestExcursions:
    def test_stay_only_rule_counts_one_walk_per_length(self):
        rule = BirthDeathRule.from_functions(0, 1, 0)
        assert cf_excursions(rule, 10).as_ints() == [1] * 10

    def test_bessel_golden_prefix(self):
        got = cf_excursions(bessel_rule(), 10).as_ints()
        assert got == [1, 1, 2, 4, 9, 22, 58, 164, 496, 1601]

    def test_bessel_matches_engine_base_column(self):
        levels = list(iter_levels(get_entry("bessel").spec(), 25))
        got = cf_excursions(bessel_rule(), 26).as_ints()
        assert got == [levels[n].get(0, 0) for n in range(26)]

    def test_from_spec_reads_labels_past_the_up_front_check(self):
        # Order 160 nests to height 81, past CHECK_TO = 60.
        exact = BirthDeathRule.from_functions(1, lambda k: k or 1, 1)
        assert cf_excursions(bessel_rule(), 160) == cf_excursions(exact, 160)

    def test_growing_stay_rule(self):
        rule = BirthDeathRule.from_functions(1, lambda k: k + 1, 1)
        got = cf_excursions(rule, 8).as_ints()
        assert got == [1, 1, 2, 5, 14, 43, 143, 509]

    def test_shallow_depth_only_hurts_high_orders(self):
        rule = bessel_rule()
        exact = cf_excursions(rule, 20).as_ints()
        shallow = cf_excursions(rule, 20, depth=3).as_ints()
        diverge = next(i for i in range(20) if exact[i] != shallow[i])
        assert diverge >= 6


def excursions_by_height(rule, order):
    """Walks from height 0 back to height 0, counted level by level over the
    heights, with down(h), stay(h), up(h) ways to step from height h."""
    out = []
    level = {0: 1}
    for _ in range(order):
        out.append(level.get(0, 0))
        nxt = {}
        for h, ways in level.items():
            steps = [(h, rule.stay(h)), (h + 1, rule.up(h))]
            if h > 0:
                steps.append((h - 1, rule.down(h)))
            for g, m in steps:
                if m:
                    nxt[g] = nxt.get(g, 0) + ways * m
        level = nxt
    return out


affine = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(affine, affine, affine, st.integers(1, 24))
def test_continued_fraction_counts_excursions(down, stay, up, order):
    rule = BirthDeathRule.from_functions(
        *(lambda k, c=c, s=s: c + s * k for c, s in (down, stay, up))
    )
    assert cf_excursions(rule, order).as_ints() == excursions_by_height(rule, order)
