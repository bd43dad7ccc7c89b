"""Property test: the naive and range propagators, the closure layers, the
back table and both sampling strategies agree on generated affine specs.

The generated guards mix `k <= c`, `k >= c` and `k mod m == r` atoms, the
intervals have steps up to 3, moving low ends and exclusions, and some
multiplicities start at 0, so the range method's batched residue classes,
its per-label route below their thresholds and its sparse levels all run."""

import re
from functools import cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit.catalog import get_entry
from ecokit.dsl import (
    Affine,
    EcoSpec,
    Guard,
    GuardAtom,
    Interval,
    Item,
    RuleClause,
    describer,
    expand,
)
from ecokit import engine
from ecokit.engine import back_table, count_levels, iter_levels, sample_walks


def affine(slopes, lo, hi):
    return st.builds(Affine, st.sampled_from(slopes), st.integers(lo, hi))


def items(floor):
    # Labels stay nonnegative for k >= 0; a multiplicity k - floor is 0 on
    # the clause's lowest label.  Label slope 3 spreads levels out until
    # they are sparse.
    mult = st.one_of(affine((0,), 0, 2), affine((1,), -floor, 2 - floor))
    return st.builds(Item, affine((0, 1, 2, 3), 0, 3), mult)


# Interval low ends stay nonnegative for k >= 0; high ends and exclusions
# may fall anywhere.
intervals = st.builds(
    Interval,
    affine((0, 1), 0, 3),
    affine((0, 1, 2), -2, 4),
    st.integers(1, 3),
    st.lists(affine((0, 1, 2), -1, 4), max_size=2).map(tuple),
)


@cache
def bodies(floor):
    return st.tuples(
        st.lists(items(floor), max_size=2).map(tuple), st.lists(intervals, max_size=2).map(tuple)
    )


@st.composite
def specs(draw):
    """A walk-mode spec: one clause for the labels k <= t when split at t,
    then one clause per residue mod m for the rest (no mod atom for m = 1)."""
    split = draw(st.one_of(st.none(), st.integers(0, 3)))
    m = draw(st.integers(1, 3))
    guards = []
    floor = 0
    if split is not None:
        guards.append(((GuardAtom("le", c=split),), 0))
        floor = split + 1
    for r in range(m):
        atoms = (GuardAtom("ge", c=floor),) if split is not None else ()
        if m > 1:
            atoms += (GuardAtom("mod", m=m, r=r),)
        guards.append((atoms, floor))
    clauses = tuple(RuleClause(Guard(atoms), *draw(bodies(low))) for atoms, low in guards)
    return EcoSpec("generated", "walk", draw(st.integers(0, 3)), clauses)


def recount_ops(spec, levels):
    """The range method's update ops, recounted from each label's
    description: one per point, two per run and one per cut, plus one per
    grid label that some run of each (step, residue) key covers."""
    describe = describer(spec)
    ops = 0
    for level in levels[:-1]:
        covered = {}
        for k in level:
            points, runs = describe(k)
            ops += len(points)
            for lo, last, step, cuts in runs:
                ops += 2 + len(cuts)
                covered.setdefault((step, lo % step), set()).update(range(lo, last + 1, step))
        ops += sum(map(len, covered.values()))
    return ops


def closure_layers(spec, n):
    """The back table's closure layers R_0..R_n as sets of labels."""
    layers = engine._closure(spec, n, None, cache(describer(spec)), engine._class_plan(spec))
    return [set(engine._layer_labels(layer)) for layer in layers]


def reference_back_table(spec, levels):
    """The back table over the naive levels, one label at a time: each cell
    sums the row below over the label's expanded successors."""
    describe = describer(spec)
    n = len(levels) - 1
    g = [dict.fromkeys(levels[n], 1)]
    for m in range(1, n + 1):
        below = g[-1]
        g.append({
            k: sum(mult * below.get(j, 0) for j, mult in expand(describe(k)).items())
            for k in levels[n - m]
        })
    return g


def reference_walk(spec, g, rng):
    """One walk drawn with Random.randrange(g[rem][k]) per step, the
    successors taken in label order."""
    k = spec.axiom
    walk = [k]
    for rem in range(len(g) - 1, 0, -1):
        r = rng.randrange(g[rem][k])
        for j, mult in sorted(expand(describer(spec)(k)).items()):
            r -= mult * g[rem - 1][j]
            if r < 0:
                k = j
                break
        walk.append(k)
    return walk


@settings(max_examples=200, deadline=None)
@given(specs(), st.integers(0, 6), st.integers(0, 2**16), st.none() | st.integers(1, 8))
def test_engine_routes_agree(spec, n, seed, cap):
    ranged_stats = {}
    naive = list(iter_levels(spec, n, "naive"))
    ranged = list(iter_levels(spec, n, "range", stats=ranged_stats))
    assert naive == ranged
    assert ranged_stats["update_ops"] == recount_ops(spec, naive)
    assert ranged_stats["fallback_labels"] <= sum(map(len, naive[:-1]))
    assert closure_layers(spec, n) == [set(level) for level in naive]
    # count_levels is a fold over the same stream, capped or not.
    for method in ("naive", "range"):
        stats = {}
        levels = list(iter_levels(spec, n, method, cap, stats))
        table = count_levels(spec, n, method, cap, label_sums=True)
        assert table.totals == [sum(level.values()) for level in levels]
        assert table.label_sums == [sum(k * c for k, c in level.items()) for level in levels]
        assert table.depth == stats["levels"] == len(levels) - 1
        assert list(table.stats) == list(stats)
        assert {**table.stats, "seconds": 0} == {**stats, "seconds": 0}
    total = sum(naive[n].values())
    g = back_table(spec, n)
    assert g == reference_back_table(spec, naive)
    assert g[n][spec.axiom] == total
    if total:
        seq = sample_walks(spec, n, 3, seed, strategy="sequential")
        assert sample_walks(spec, n, 3, seed, strategy="binary") == seq
        describe = describer(spec)
        for walk in seq:
            assert all(b in expand(describe(a)) for a, b in zip(walk, walk[1:]))


def clause(atoms, items=(), intervals=()):
    return RuleClause(Guard(tuple(atoms)), tuple(items), tuple(intervals))


# Labels k >= 3 are batched per residue mod 2: a step-2 run with a moving low
# end and an exclusion, a multiplicity that is 0 at k = 3, and labels 0..2
# are lowered one at a time.
MIXED = EcoSpec("mixed", "walk", 0, (
    clause([GuardAtom("le", c=2)], [Item(Affine(1, 1), Affine(0, 1))]),
    clause(
        [GuardAtom("ge", c=3), GuardAtom("mod", m=2, r=0)],
        [Item(Affine(1, 1), Affine(0, 1))],
        [Interval(Affine(1, -3), Affine(1, 2), 2, (Affine(1, -1),))],
    ),
    clause(
        [GuardAtom("ge", c=3), GuardAtom("mod", m=2, r=1)],
        [Item(Affine(1, 1), Affine(0, 2)), Item(Affine(0, 1), Affine(1, -3))],
        [Interval(Affine(0, 1), Affine(1, -1))],
    ),
))
# Labels 3k + 6 spread every level out until it is sparse.
SPREAD = EcoSpec("spread", "eco", 3, (
    clause([GuardAtom("ge", c=1)], [Item(Affine(0, 3), Affine(1, -1)), Item(Affine(3, 6), Affine(0, 1))]),
))


def test_batched_and_sparse_routes():
    stats = {}
    levels = list(iter_levels(MIXED, 30, "range", stats=stats))
    assert levels == list(iter_levels(MIXED, 30, "naive"))
    assert stats["update_ops"] == recount_ops(MIXED, levels)
    assert back_table(MIXED, 30) == reference_back_table(MIXED, levels)
    labels = sum(map(len, levels[:-1]))
    # About three labels per level sit below the threshold.
    assert stats["fallback_labels"] < 4 * 30 < labels
    spread_stats = {}
    spread = list(iter_levels(SPREAD, 30, "range", stats=spread_stats))
    assert spread == list(iter_levels(SPREAD, 30, "naive"))
    assert back_table(SPREAD, 30) == reference_back_table(SPREAD, spread)
    assert spread_stats["update_ops"] == recount_ops(SPREAD, spread)
    # Only the first levels are dense enough for a list.
    assert spread_stats["fallback_labels"] > sum(map(len, spread[:-1])) - 30


# Labels 0..12 climb and fill in below.  Label 12 also jumps to 500, too far
# for the batched step's list, so the levels are dicts until the labels from
# 13 on, stepping by one each way, fill the span enough for a list again.
SWITCH = EcoSpec("switch", "walk", 0, (
    clause([GuardAtom("le", c=11)], [Item(Affine(1, 1), Affine(0, 1))], [Interval(Affine(0, 0), Affine(1, 0))]),
    clause(
        [GuardAtom("ge", c=12), GuardAtom("le", c=12)],
        [Item(Affine(1, 1), Affine(0, 1)), Item(Affine(0, 500), Affine(0, 1))],
    ),
    clause([GuardAtom("ge", c=13)], [Item(Affine(1, -1), Affine(0, 1)), Item(Affine(1, 1), Affine(0, 1))]),
))


def dict_route_stats(spec, n):
    """(levels, fallback_labels, peak_labels) with every level a dict: the
    levels come from `_sparse_step`, and a level `_is_dense` admits counts
    the labels `_dense_core` lowers alone when it takes the level spread
    into a list, every label otherwise."""
    describe, plan = describer(spec), engine._class_plan(spec)
    levels, fallback = [{spec.axiom: 1}], 0
    for _ in range(n):
        level = levels[-1]
        done = None
        base, top = min(level), max(level)
        if engine._is_dense(plan, base, top, len(level)):
            cur = [level.get(k, 0) for k in range(base, top + 1)]
            done = engine._dense_core(cur, base, plan, describe, None)
        fallback += len(level) if done is None else done[3]
        levels.append(engine._sparse_step(level.items(), describe, None)[0])
    return levels, fallback, max(map(len, levels))


def test_levels_switch_between_lists_and_dicts():
    n = 60
    stats = {}
    levels = list(iter_levels(SWITCH, n, "range", stats=stats))
    kinds = "".join("L" if isinstance(level, engine.Row) else "d" for level in levels)
    # The axiom's dict, then lists, dicts while 500 stands apart, lists again.
    assert re.fullmatch("dL+d+L+", kinds), kinds
    naive = list(iter_levels(SWITCH, n, "naive"))
    assert levels == naive
    assert stats["update_ops"] == recount_ops(SWITCH, naive)
    for level in levels:
        assert 0 not in level.values()
        assert len(level) == len(list(level)) == len(dict(level.items()))
        if isinstance(level, engine.Row):
            assert list(level) == sorted(level)
            assert level.vals[0] and level.vals[-1]
    reference, fallback, peak = dict_route_stats(SWITCH, n)
    assert reference == naive
    assert (stats["fallback_labels"], stats["peak_labels"]) == (fallback, peak)


@pytest.mark.parametrize(
    "spec",
    [MIXED, SPREAD, get_entry("involutions").spec(), get_entry("catalan").spec()],
    ids=["mixed", "spread", "involutions", "catalan"],
)
def test_rows_follow_the_closure_layers(spec):
    # Involutions' layers hold labels of one parity, so their flags have
    # gaps; catalan's first layers hold fewer than _ROW_MIN_LABELS labels.
    n = 30
    g = back_table(spec, n)
    assert g == reference_back_table(spec, list(iter_levels(spec, n, "naive")))
    layers = closure_layers(spec, n)
    assert [len(row) for row in g] == [len(layer) for layer in reversed(layers)]
    assert sum(len(row) for row in g) == g.cells
    for m, row in enumerate(g):
        assert dict(row) == row and set(row) == layers[n - m]
        if isinstance(row, engine.Row):
            assert len(row) >= engine._ROW_MIN_LABELS or m == 0
            gaps = [k for k in range(row.base, row.base + len(row.vals)) if k not in row]
            assert [row.vals[k - row.base] for k in gaps] == [0] * len(gaps)
            with pytest.raises(KeyError):
                row[row.base - 1]
        else:
            assert len(row) < engine._ROW_MIN_LABELS or spec is MIXED or spec is SPREAD
    # SPREAD's dense layers are all small.
    rows = [row for row in g if isinstance(row, engine.Row)]
    assert bool(rows) == (spec is not SPREAD)
    if spec.name == "involutions":
        assert all(0 in row.flags for row in rows if len(row) > 1)


@pytest.mark.parametrize("name", ["catalan", "motzkin", "walk_notch1", "bell", "fibonacci", "involutions"])
def test_binary_walks_follow_the_randrange_stream(name):
    # The binary descent draws with getrandbits; it must take the same bits
    # as one randrange per step, so a seed keeps giving the same walks.
    spec = get_entry(name).spec()
    g = back_table(spec, 25)
    for seed in (0, 7, 2026):
        rng = Random(seed)
        expected = [reference_walk(spec, g, rng) for _ in range(6)]
        assert sample_walks(spec, 25, 6, seed) == expected
