from functools import cache
from random import Random

import pytest

from ecokit import engine
from ecokit.catalog import get_entry
from ecokit.dsl import SpecError, describer, expand, parse_spec
from ecokit.engine import (
    LabelCapError,
    TableBudgetError,
    WalkSampler,
    back_table,
    count_levels,
    iter_levels,
    sample_walks,
    total_series,
)


def spec_of(name):
    return get_entry(name).spec()


def closure_layers(spec, n, max_labels=None):
    """The back table's closure layers R_0..R_n as sets of labels."""
    layers, _ = engine._closure(spec, n, max_labels, cache(describer(spec)), engine._class_plan(spec))
    return [set(layer) for layer in layers]


class TestCounting:
    def test_catalan_levels_by_hand(self):
        # axiom 2; node k yields 2..k+1.  Levels expanded manually:
        levels = list(iter_levels(spec_of("catalan"), 2))
        assert levels[0] == {2: 1}
        assert levels[1] == {2: 1, 3: 1}
        assert levels[2] == {2: 2, 3: 2, 4: 1}

    @pytest.mark.parametrize(
        "name", ["catalan", "motzkin", "goldbach", "ceil_half", "bessel", "bell"]
    )
    def test_naive_and_range_methods_agree(self, name):
        spec = spec_of(name)
        assert total_series(spec, 12, method="naive") == total_series(
            spec, 12, method="range"
        )

    def test_totals_match_frozen_prefixes(self):
        for name in ("catalan", "involutions", "schroeder"):
            entry = get_entry(name)
            assert tuple(total_series(entry.spec(), len(entry.golden))) == entry.golden

    @pytest.mark.parametrize(
        "name", ["catalan", "fibonacci", "bell", "goldbach", "ceil_half"]
    )
    def test_eco_label_sums_give_next_level(self, name):
        # In eco mode each node has as many children as its label, so the
        # label sum of one level is the node count of the next.
        table = count_levels(spec_of(name), 14, label_sums=True)
        assert table.label_sums[:-1] == table.totals[1:]

    def test_auto_method_selection(self):
        # auto is another name for range.  A spec without intervals lowers
        # only levels of fewer than _ROW_MIN_LABELS labels through naive's
        # cached pairs: larger levels are batched, as Rows when dense
        # (tripling's labels 6*3^j - 3 are never dense), while fredholm's
        # pow2 guards and goldbach's builtin labels leave no class to batch.
        assert count_levels(spec_of("catalan"), 3).stats["method"] == "range"
        n = 80
        for name, batched, dense in [
            ("bell", True, True),
            ("ceil_half", True, True),
            ("parity_three_even", True, True),
            ("affine_jumps", True, True),
            ("tripling", True, False),
            ("fredholm", False, False),
            ("goldbach", False, False),
        ]:
            spec = spec_of(name)
            assert (engine._class_plan(spec) is not None) == batched
            auto = count_levels(spec, n, label_sums=True)
            naive = count_levels(spec, n, "naive", label_sums=True)
            assert (auto.totals, auto.label_sums) == (naive.totals, naive.label_sums)
            assert auto.stats["method"] == "range"
            assert auto.stats["update_ops"] == naive.stats["update_ops"]
            levels = list(iter_levels(spec, n))
            stepped = sum(map(len, levels[:-1]))
            rows = [level for level in levels if isinstance(level, engine.Row)]
            if dense:
                assert auto.stats["fallback_labels"] < stepped // 4, name
                assert rows and min(map(len, rows)) >= engine._ROW_MIN_LABELS
            else:
                assert not rows
            if not batched:
                assert auto.stats["fallback_labels"] == stepped
            elif not dense:
                # Only tripling's seven levels of fewer labels are lowered.
                small = [len(level) for level in levels[:-1] if len(level) < engine._ROW_MIN_LABELS]
                assert auto.stats["fallback_labels"] == sum(small) == 28

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            count_levels(spec_of("catalan"), 3, method="magic")

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="n >= 0"):
            count_levels(spec_of("catalan"), -1)

    def test_count_accessor_bounds(self):
        levels = list(iter_levels(spec_of("catalan"), 3))
        assert levels[2].get(4, 0) == 1
        assert levels[2].get(99, 0) == 0
        with pytest.raises(IndexError):
            levels[7]

    def test_max_labels_truncates_wide_systems(self):
        # Label support doubles per level here; the cap must kick in.
        spec = spec_of("even_jumps")
        table = count_levels(spec, 40, max_labels=500)
        assert table.stats["truncated"]
        assert table.depth < 40
        assert all(len(lv) <= 500 for lv in iter_levels(spec, 40, max_labels=500))

    @pytest.mark.parametrize("method", ["naive", "range"])
    def test_uncapped_levels_stop_at_the_width_budget(self, method):
        # Label 3 has 200001 successors, more than MAX_SUCCESSORS.
        spec = parse_spec(
            "system w { mode walk; axiom 0; rule k <= 2: (k+1) x 1;"
            " rule k >= 3: interval(0, 200000); }"
        )
        table = count_levels(spec, 10, method=method)
        assert table.stats["truncated"] and table.depth == 3

    def test_naive_levels_stop_at_the_pair_budget(self, monkeypatch):
        monkeypatch.setattr(engine, "NAIVE_PAIRS", 100)
        spec = spec_of("catalan")
        table = count_levels(spec, 20, method="naive")
        assert table.stats["budget"] == ("pairs", 100)
        assert table.stats["truncated"] and table.depth == 12
        assert table.totals == count_levels(spec, 12, method="range").totals

    def test_auto_cached_pairs_stop_at_the_pair_budget(self, monkeypatch):
        # goldbach's builtin labels are all lowered through the cached pairs,
        # so auto meets the budget at naive's level.
        monkeypatch.setattr(engine, "NAIVE_PAIRS", 100)
        spec = spec_of("goldbach")
        auto, naive = count_levels(spec, 40), count_levels(spec, 40, method="naive")
        assert auto.stats["budget"] == naive.stats["budget"] == ("pairs", 100)
        assert auto.stats["truncated"] and auto.depth == naive.depth < 40
        assert auto.totals == naive.totals

    @pytest.mark.parametrize("method", ["naive", "range"])
    def test_overlapping_guards_raise_on_both_routes(self, method):
        spec = parse_spec(
            "system o { mode walk; axiom 3; rule k <= 3: (k+1) x 1; rule always: (k+1) x 1; }"
        )
        with pytest.raises(SpecError, match="guards overlap at label 3"):
            count_levels(spec, 2, method=method)

    def test_total_series_zero_order(self):
        assert total_series(spec_of("catalan"), 0) == []


class TestClosureAndBackTable:
    def test_closure_layers_catalan(self):
        layers = closure_layers(spec_of("catalan"), 4)
        assert layers[0] == {2}
        assert layers[3] == {2, 3, 4, 5}

    def test_back_table_root_matches_forward_totals(self):
        # The table is restricted to labels reachable at the right depth,
        # so the axiom entry exists only at the full length m = n.
        for name in ("catalan", "motzkin", "ceil_half"):
            spec = spec_of(name)
            fwd = total_series(spec, 9)
            for r in range(9):
                assert back_table(spec, r)[r][spec.axiom] == fwd[r]

    def test_label_cap_stops_closure_and_back_table(self):
        # Layer L of even_jumps holds 2^(L-1) labels, so layer 10 is the
        # first above 500 and layer 9 the last that fits.
        spec = spec_of("even_jumps")
        for build in (closure_layers, back_table):
            with pytest.raises(LabelCapError) as exc:
                build(spec, 30, max_labels=500)
            assert (exc.value.cap, exc.value.level) == (500, 9)
        assert len(closure_layers(spec, 9, max_labels=500)[9]) == 256

    def test_budget_stops_closure_and_back_table(self, monkeypatch):
        # Catalan's layer d holds d+1 labels: 45 cells through layer 8, 55
        # through layer 9.
        spec = spec_of("catalan")
        monkeypatch.setattr(engine, "BACK_BITS", 50 * engine._CELL_BITS)
        for build in (closure_layers, back_table):
            with pytest.raises(TableBudgetError) as exc:
                build(spec, 12)
            assert exc.value.level == 8
        assert len(closure_layers(spec, 8)) == 9
        # A row's counts are charged their bit lengths on top of the cells.
        g = back_table(spec, 8)
        assert g.cells == 45
        charged = 45 * engine._CELL_BITS + sum(
            c.bit_length() for row in g for c in row.values()
        )
        monkeypatch.setattr(engine, "BACK_BITS", charged)
        assert back_table(spec, 8) == g
        monkeypatch.setattr(engine, "BACK_BITS", charged - 1)
        with pytest.raises(TableBudgetError) as exc:
            back_table(spec, 8)
        assert exc.value.level == 7


class TestSampler:
    def test_zero_length_walk_is_axiom(self):
        assert sample_walks(spec_of("motzkin"), 0, 1, seed=7) == [[1]]

    def test_walks_follow_the_rules(self):
        spec = spec_of("schroeder")
        describe = describer(spec)
        for walk in sample_walks(spec, 12, 25, seed=3):
            assert walk[0] == spec.axiom
            for a, b in zip(walk, walk[1:]):
                assert b in expand(describe(a))

    def test_strategies_draw_identical_walks(self):
        # Both strategies consume one uniform draw per step, so a shared
        # seed must yield the same walks.
        spec = spec_of("motzkin")
        seq = sample_walks(spec, 20, 10, seed=11, strategy="sequential")
        binary = sample_walks(spec, 20, 10, seed=11, strategy="binary")
        assert seq == binary

    def test_seed_determinism(self):
        spec = spec_of("catalan")
        assert sample_walks(spec, 15, 5, seed=42) == sample_walks(spec, 15, 5, seed=42)
        assert sample_walks(spec, 15, 5, seed=42) != sample_walks(spec, 15, 5, seed=43)

    def test_sampler_total_matches_engine(self):
        spec = spec_of("catalan")
        sampler = WalkSampler(spec, 7)
        assert sampler.total == total_series(spec, 8)[7] == 1430

    def test_unknown_strategy_rejected(self):
        sampler = WalkSampler(spec_of("motzkin"), 4)
        with pytest.raises(ValueError):
            sampler.sample(Random(0), strategy="bogus")
