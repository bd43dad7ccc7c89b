"""Property test: the naive and range propagators, the closure layers, the
back table and both sampling strategies agree on generated affine specs.

The generated guards mix `k <= c`, `k >= c` and `k mod m == r` atoms, the
intervals have steps up to 3, moving low ends and exclusions, some
multiplicities start at 0, and some point labels are `ceil_div(a*k + b, m)`
for m up to 3, so the range method's batched residue classes (widened for
the divisors), its per-label route below their thresholds and its sparse
levels all run.  Specs without intervals, propagated 10 to 25 levels deep,
take range's class step on sparse levels too."""

import re
from functools import cache
from operator import add
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecokit.catalog import ENTRIES, get_entry
from ecokit.dsl import (
    Affine,
    Builtin,
    EcoSpec,
    Guard,
    GuardAtom,
    Interval,
    Item,
    RuleClause,
    describer,
    expand,
    parse_spec,
)
from ecokit import engine
from ecokit.engine import back_table, count_levels, iter_levels, sample_walks


def affine(slopes, lo, hi):
    return st.builds(Affine, st.sampled_from(slopes), st.integers(lo, hi))


def ceil_div(numerator, m):
    return Builtin("ceil_div", (numerator, Affine(0, m)))


def mults(floor, least=0):
    # A constant multiplicity is at least `least`; a multiplicity k - floor
    # is 0 on the clause's lowest label.
    return st.one_of(affine((0,), least, 2), affine((1,), -floor, 2 - floor))


def items(floor, least=0):
    # Labels stay nonnegative for k >= 0.  Label slope 3 spreads levels out
    # until they are sparse, and slope 0 makes a constant label.
    label = affine((0, 1, 2, 3), 0, 3)
    return st.builds(
        Item, st.one_of(label, st.builds(ceil_div, label, st.integers(1, 3))), mults(floor, least)
    )


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


def guards(draw, moduli):
    """(guard atoms, lowest label) per clause: one clause for the labels
    k <= t when split at t, then one clause per residue mod m for the rest
    (no mod atom for m = 1), m drawn from `moduli`."""
    split = draw(st.one_of(st.none(), st.integers(0, 3)))
    m = draw(moduli)
    out = []
    floor = 0
    if split is not None:
        out.append(((GuardAtom("le", c=split),), 0))
        floor = split + 1
    for r in range(m):
        atoms = (GuardAtom("ge", c=floor),) if split is not None else ()
        if m > 1:
            atoms += (GuardAtom("mod", m=m, r=r),)
        out.append((atoms, floor))
    return out


@st.composite
def specs(draw):
    """A walk-mode spec of `guards` mod m <= 3, with points and intervals."""
    clauses = tuple(
        RuleClause(Guard(atoms), *draw(bodies(low))) for atoms, low in guards(draw, st.integers(1, 3))
    )
    return EcoSpec("generated", "walk", draw(st.integers(0, 3)), clauses)


@st.composite
def point_specs(draw):
    """A walk-mode spec of `guards` mod m <= 2 without intervals.  A clause
    may repeat its first point label with another multiplicity, so two of
    its points land on the same label."""
    clauses = []
    for atoms, low in guards(draw, st.integers(1, 2)):
        points = draw(st.lists(items(low, 1), min_size=2, max_size=3))
        if draw(st.booleans()):
            points.append(Item(points[0].label, draw(mults(low, 1))))
        clauses.append(RuleClause(Guard(atoms), tuple(points), ()))
    return EcoSpec("generated", "walk", draw(st.integers(0, 3)), tuple(clauses))


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
    layers, _ = engine._closure(spec, n, None, cache(describer(spec)), engine._class_plan(spec))
    return [set(layer) for layer in layers]


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
    # Without intervals, range lowers labels through naive's cached pairs.
    if any(c.intervals for c in spec.clauses):
        assert ranged_stats["update_ops"] == recount_ops(spec, naive)
        assert ranged_stats["fallback_labels"] <= sum(map(len, naive[:-1]))
    else:
        recount = recount_auto_points(spec, naive[:-1])
        assert (ranged_stats["update_ops"], ranged_stats["fallback_labels"]) == recount
    plan = engine._class_plan(spec)
    layers, _ = engine._closure(spec, n, None, cache(describer(spec)), plan)
    assert [set(layer) for layer in layers] == [set(level) for level in naive]
    # One rule: a range level and a closure layer are Rows exactly when
    # `_is_dense` holds for their labels (at least _ROW_MIN_LABELS of them),
    # and a layer's counts are 1.

    def dense(level):
        return bool(level) and engine._is_dense(plan, min(level), max(level), len(level))

    assert all(isinstance(level, engine.Row) == dense(level) for level in ranged)
    for layer in layers:
        assert isinstance(layer, engine.Row) == dense(layer)
        assert set(layer.values()) <= {1}
    # count_levels is a fold over the same stream, capped or not.
    streams = {}
    for method in ("naive", "range"):
        stats = {}
        levels = list(iter_levels(spec, n, method, cap, stats))
        streams[method] = levels, stats
        table = count_levels(spec, n, method, cap, label_sums=True)
        assert table.totals == [sum(level.values()) for level in levels]
        assert table.label_sums == [sum(k * c for k, c in level.items()) for level in levels]
        assert table.depth == stats["levels"] == len(levels) - 1
        assert list(table.stats) == list(stats)
        assert {**table.stats, "seconds": 0} == {**stats, "seconds": 0}
    assert streams["range"][0] == streams["naive"][0]
    # auto is another name for range: the same levels and stats.
    levels, stats = streams["range"]
    auto_stats = {}
    assert list(iter_levels(spec, n, "auto", cap, auto_stats)) == levels
    assert {**auto_stats, "seconds": 0} == {**stats, "seconds": 0}
    total = sum(naive[n].values())
    g = back_table(spec, n)
    assert g == reference_back_table(spec, naive)
    assert g[n][spec.axiom] == total
    assert set(g[0]) == set(layers[n])
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
# SPREAD with its labels 3k + 6 as one-label runs, so that range describes
# the labels of its sparse levels one at a time.
SPREAD_RUNS = EcoSpec("spread_runs", "eco", 3, (
    clause([GuardAtom("ge", c=1)], [Item(Affine(0, 3), Affine(1, -1))], [Interval(Affine(3, 6), Affine(3, 6))]),
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
    spread = list(iter_levels(SPREAD_RUNS, 30, "range", stats=spread_stats))
    assert spread == list(iter_levels(SPREAD_RUNS, 30, "naive"))
    assert back_table(SPREAD_RUNS, 30) == reference_back_table(SPREAD_RUNS, spread)
    assert spread_stats["update_ops"] == recount_ops(SPREAD_RUNS, spread)
    # No level is dense enough for a list.
    assert not any(isinstance(level, engine.Row) for level in spread)
    assert spread_stats["fallback_labels"] == sum(map(len, spread[:-1]))
    # Without the runs, the sparse levels of at least _ROW_MIN_LABELS labels
    # step by class, and only the seven smaller ones are lowered one at a time.
    points_stats = {}
    assert list(iter_levels(SPREAD, 30, "range", stats=points_stats)) == spread
    recount = recount_auto_points(SPREAD, spread[:-1])
    assert (points_stats["update_ops"], points_stats["fallback_labels"]) == recount
    assert points_stats["fallback_labels"] == sum(range(1, engine._ROW_MIN_LABELS))


def recount_auto_points(spec, stepped):
    """range's (update ops, fallback labels) on a spec without intervals over
    the `stepped` levels, recounted by the documented rule.  On a level of at
    least _ROW_MIN_LABELS labels, a label of a batched class at or above its
    threshold costs one op per point of its description.  Every other label
    is lowered through its expanded successors, one op per distinct one."""
    describe = describer(spec)
    plan = engine._class_plan(spec)
    ops = fallback = 0
    for level in stepped:
        for k in level:
            points, _ = describe(k)
            cls = None
            if plan is not None and len(level) >= engine._ROW_MIN_LABELS:
                cls = plan[1][k % plan[0]]
            if cls is not None and k >= cls.threshold:
                ops += len(points)
            else:
                ops += len(expand((points, ())))
                fallback += 1
    return ops, fallback


@settings(max_examples=60, deadline=None)
@given(point_specs(), st.integers(10, 25))
@example(SPREAD, 20)
def test_point_rule_levels_step_by_class(spec, n):
    # Sparse point-rule levels of at least _ROW_MIN_LABELS labels step their
    # batched classes by class; SPREAD's levels are all of that kind.
    cap = 2000
    naive = list(iter_levels(spec, n, "naive", cap))
    stats = {}
    assert list(iter_levels(spec, n, "range", cap, stats)) == naive
    table = count_levels(spec, n, "range", cap, label_sums=True)
    assert table.totals == count_levels(spec, n, "range", cap).totals
    assert table.totals == [sum(level.values()) for level in naive]
    assert table.label_sums == [sum(k * c for k, c in level.items()) for level in naive]
    # A level the cap drops was still stepped, and its work is counted.
    stepped = naive if stats.get("truncated") else naive[:-1]
    assert (stats["update_ops"], stats["fallback_labels"]) == recount_auto_points(spec, stepped)


@st.composite
def fold_specs(draw):
    """A walk-mode spec of `guards` mod m <= 2 whose points have a constant
    label or a constant multiplicity, the shape whose next fold follows from
    the level's; the first point of a clause moves with k, so levels widen.
    Under a mod 2 guard every label is even, so one class is batched.  With
    `mixed`, points may have both affine; with `runs`, each clause also has
    an interval whose lo or end is constant."""
    clause_guards = guards(draw, st.integers(1, 2))
    scale = 2 if any(a.kind == "mod" for a in clause_guards[-1][0]) else 1
    mixed, runs = (draw(st.sampled_from((False, False, True))) for _ in range(2))
    label = st.builds(Affine, st.sampled_from((1, 2, 3)), st.integers(0, 3).map(scale.__mul__))
    if scale == 1:
        label = st.one_of(label, st.builds(ceil_div, label, st.integers(1, 3)))
    moving = st.builds(Item, label, affine((0,), 1, 2))
    clauses = []
    for atoms, low in clause_guards:
        shapes = [
            moving,
            st.builds(Item, st.builds(Affine, st.just(0), st.integers(0, 3).map(scale.__mul__)), mults(low, 1)),
        ]
        if mixed:
            shapes.append(st.builds(Item, label, affine((1,), -low, 2 - low)))
        points = [draw(moving), *draw(st.lists(st.one_of(shapes), min_size=1, max_size=2))]
        intervals = ()
        if runs:
            intervals = (draw(st.one_of(
                st.builds(Interval, affine((0,), 0, 3), affine((1, 2), -2, 2)),
                st.builds(Interval, affine((0, 1), 0, 1), affine((0,), 1, 6)),
            )),)
        clauses.append(RuleClause(Guard(atoms), tuple(points), intervals))
    return EcoSpec("generated", "walk", scale * draw(st.integers(0, 3)), tuple(clauses))


# One batched class of labels k >= 3 over labels 0..2 lowered alone; its
# labels ceil_div(2k + 1, 2) = k + 1 and 3 sum to moments of its S0 and S1.
HALVES = EcoSpec("halves", "walk", 0, (
    clause([GuardAtom("le", c=2)], [Item(Affine(1, 1), Affine(0, 1)), Item(Affine(0, 1), Affine(0, 1))]),
    clause(
        [GuardAtom("ge", c=3)],
        [Item(ceil_div(Affine(2, 1), 2), Affine(0, 2)), Item(Affine(0, 3), Affine(1, -2))],
    ),
))


@settings(max_examples=60, deadline=None)
@given(fold_specs(), st.integers(8, 18))
@example(HALVES, 20)
@example(get_entry("tripling").spec(), 20)
@example(get_entry("affine_jumps").spec(), 20)
@example(get_entry("catalan").spec(), 20)
@example(get_entry("arrangements").spec(), 12)
def test_every_fold_is_the_level_fold(spec, n):
    # The fold a level is yielded with, whether the step handed it back or
    # it was summed from the level, is the level's total and label sum.
    cap = 2000
    naive = count_levels(spec, n, "naive", cap, label_sums=True)
    folds = []
    for level, fold in engine._levels(spec, n, "range", cap, {}, True):
        assert fold == engine._fold(level, True)
        folds.append(fold)
    assert folds == list(zip(naive.totals, naive.label_sums))


@pytest.mark.parametrize(
    "name", ["tripling", "affine_jumps", "fibonacci_bisection_a", "fibonacci_bisection_b"]
)
def test_totals_alone_fold_by_moments(monkeypatch, name):
    # A plan of one class with moments carries label sums in its folds, so
    # a count of totals alone sums only the levels moments do not fold.
    spec = get_entry(name).spec()
    summed = []
    fold = engine._fold

    def counted(level, label_sums):
        summed.append(label_sums)
        return fold(level, label_sums)

    monkeypatch.setattr(engine, "_fold", counted)
    full = count_levels(spec, 150, label_sums=True)
    with_sums = len(summed)
    summed.clear()
    totals = count_levels(spec, 150)
    assert (totals.totals, totals.label_sums, totals.stats["update_ops"]) == (
        full.totals, None, full.stats["update_ops"]
    )
    assert summed == [True] * with_sums and with_sums <= 8


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
    the labels `_dense_layout` lowers alone when it lays out the level
    spread into a list, every label otherwise."""
    describe, plan = describer(spec), engine._class_plan(spec)
    levels, fallback = [{spec.axiom: 1}], 0
    for _ in range(n):
        level = levels[-1]
        layout = None
        base, top = min(level), max(level)
        if engine._is_dense(plan, base, top, len(level)):
            cur = [level.get(k, 0) for k in range(base, top + 1)]
            layout = engine._dense_layout(cur, base, plan, describe, None)
        fallback += len(level) if layout is None else len(layout[0])
        levels.append(engine._sparse_step(level.items(), describe, None)[0])
    return levels, fallback, max(map(len, levels))


def test_levels_switch_between_lists_and_dicts():
    n = 60
    stats = {}
    levels = list(iter_levels(SWITCH, n, "range", stats=stats))
    kinds = "".join("L" if isinstance(level, engine.Row) else "d" for level in levels)
    # Dicts while the levels hold fewer than _ROW_MIN_LABELS labels, then
    # lists, dicts while 500 stands apart, lists again.
    small = sum(len(level) < engine._ROW_MIN_LABELS for level in levels)
    assert re.fullmatch(f"d{{{small}}}L+d+L+", kinds), kinds
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


# Labels 0..2 (a k <= 2 clause) and 3 (its multiplicity k - 3 is still 0)
# are lowered alone, into labels 1..5, where the batched point k + 1 of the
# labels from 4 on lands too; label 1 comes back on every level.
LONE = EcoSpec("lone", "walk", 0, (
    clause([GuardAtom("le", c=2)], [Item(Affine(1, 1), Affine(0, 1)), Item(Affine(1, 3), Affine(0, 2))]),
    clause(
        [GuardAtom("ge", c=3)],
        [Item(Affine(1, 1), Affine(0, 1)), Item(Affine(0, 1), Affine(1, -3)), Item(Affine(1, -1), Affine(0, 1))],
    ),
))
# Even labels go to k + 1 and k + 2, odd ones to k + 1 and k - 1: the odd
# class's first point lands on the even labels the even class wrote.
PARITY = EcoSpec("parity", "walk", 0, (
    clause([GuardAtom("mod", m=2, r=0)], [Item(Affine(1, 1), Affine(0, 1)), Item(Affine(1, 2), Affine(0, 1))]),
    clause([GuardAtom("mod", m=2, r=1)], [Item(Affine(1, 1), Affine(0, 1)), Item(Affine(1, -1), Affine(0, 1))]),
))
# The first point k + 1 of the top label is the last slot of the span.  No
# class starts below label 1, so the labels start there.
TOP = EcoSpec("top", "walk", 1, (
    clause([GuardAtom("ge", c=1)], [Item(Affine(1, 1), Affine(0, 1)), Item(Affine(0, 1), Affine(0, 1))]),
))


@pytest.mark.parametrize("spec", [LONE, PARITY, TOP], ids=["lone", "parity", "top"])
def test_first_write_into_a_fresh_level(monkeypatch, spec):
    # Into a next level nothing wrote to yet, the first batched point (or
    # rebuilt key) stores its weights; every other write adds.  No write
    # resizes a list.
    assigned = []
    strided = engine._strided

    def spy(arr, start, stride, n, weights, op):
        size = len(arr)
        strided(arr, start, stride, n, weights, op)
        assert len(arr) == size
        if op is None:
            assigned.append((start + stride * (n - 1), size))

    monkeypatch.setattr(engine, "_strided", spy)
    n = 20
    stats = {}
    naive = list(iter_levels(spec, n, "naive"))
    ranged = list(iter_levels(spec, n, "range", stats=stats))
    assert ranged == naive
    # Every level of at least _ROW_MIN_LABELS labels is a list.
    assert all(
        isinstance(level, engine.Row) == (len(level) >= engine._ROW_MIN_LABELS) for level in ranged
    )
    assert any(isinstance(level, engine.Row) for level in ranged)
    assert stats["update_ops"] == recount_ops(spec, naive)
    assert closure_layers(spec, n) == [set(level) for level in naive]
    assert back_table(spec, n)[n][spec.axiom] == sum(naive[n].values())
    # LONE has a label lowered alone on every level, so nothing assigns.
    assert bool(assigned) == (spec is not LONE)
    if spec is TOP:
        assert all(last == size - 1 for last, size in assigned)


@pytest.mark.parametrize("form", [list, bytes, iter])
@pytest.mark.parametrize("op", [None, add], ids=["assign", "add"])
@pytest.mark.parametrize(
    "start, stride, n", [(4, 0, 3), (2, 1, 8), (0, 1, 10), (1, 3, 3), (9, -2, 5), (9, -1, 10), (6, -3, 3)]
)
def test_strided_writes_exactly_its_slots(start, stride, n, op, form):
    arr = list(range(100, 110))
    weights = list(range(1, n + 1))
    expected = list(arr)
    slots = [start] if not stride else [start + t * stride for t in range(n)]
    for i, w in zip(slots, [sum(weights)] if not stride else weights):
        expected[i] = w if op is None else op(expected[i], w)
    engine._strided(arr, start, stride, n, form(weights), op)
    assert arr == expected


@pytest.mark.parametrize(
    "name, n, cap, shape",
    [
        ("involutions", 30, None, lambda row: 0 in row.vals),
        ("walk_notch1", 30, None, lambda row: row.base == 0),
        ("bessel", 30, None, lambda row: row.base == 0),
        ("even_jumps", 12, 5000, lambda row: len(row.vals) > engine._FOLD_CHUNK),
    ],
    ids=["interior-zeros", "walk_notch1-base-0", "bessel-base-0", "longer-than-a-chunk"],
)
def test_row_fold_gives_the_label_sums(name, n, cap, shape):
    # A Row's total and label sum come from the suffix sums of its counts.
    spec = get_entry(name).spec()
    table = count_levels(spec, n, "range", cap, label_sums=True)
    levels = list(iter_levels(spec, n, "range", cap))
    assert len(levels) == n + 1
    assert any(shape(level) for level in levels if isinstance(level, engine.Row))
    assert table.totals == [sum(level.values()) for level in levels]
    assert table.label_sums == [sum(k * c for k, c in level.items()) for level in levels]
    assert count_levels(spec, n, "range", cap).totals == table.totals


def test_row_fold_of_a_one_label_row():
    # A level of one label is a dict, so its fold never reaches _row_fold;
    # the fold still gives a one-label Row's total and label sum.
    for base, count in [(0, 5), (1, 1), (7, 720), (30, 2**100)]:
        row = engine.Row(base, [count], [count], 1)
        assert engine._row_fold(row.base, row.vals) == (count, base * count)
        assert engine._fold(row, True) == (count, base * count)


@pytest.mark.parametrize("length", [1, 255, 256, 257, 513])
def test_row_fold_across_the_chunk_boundary(length):
    # Up to _FOLD_CHUNK counts take one running sum, longer rows a chunk at
    # a time; both give the total and sum((base + i) * v_i).
    assert engine._FOLD_CHUNK == 256
    rng = Random(length)
    for base in (0, 1, 37):
        vals = [rng.choice((0, 1, rng.getrandbits(90))) for _ in range(length)]
        expected = sum(vals), sum((base + i) * v for i, v in enumerate(vals))
        assert engine._row_fold(base, vals) == expected


# ---------------------------------------------------------------------------
# The one-slice layout against the layout that copies each class's counts
# with a strided slice and strips its zero ends into a second copy


def reference_dense_layout(cur, base, plan, describe, cap):
    """The layout from a strided copy of each class's counts, stripped of
    its zero ends into a second copy, and a span from a list of every label
    the level reaches: the oracle of `engine._dense_layout`."""
    modulus, classes = plan
    size = len(cur)
    lone, batches = [], []
    for r, cls in enumerate(classes):
        i = (r - base) % modulus
        stop = size if cls is None else min(size, max(i, cls.threshold - base))
        lone += [(base + j, cur[j]) for j in range(i, stop, modulus) if cur[j]]
        if stop < size:
            j = stop + (i - stop) % modulus
            counts = cur[j::modulus]
            if any(counts):
                a, b = 0, len(counts)
                while not counts[a]:
                    a += 1
                while not counts[b - 1]:
                    b -= 1
                batches.append((cls, base + j + a * modulus, counts[a:b]))
    described = [(k, c, describe(k)) for k, c in lone]
    ends, bound = [], 0
    for _, _, (points, runs) in described:
        if cap is not None:
            engine._check_runs(runs, cap)
        ends += [j for j, _ in points]
        ends += [x for lo, last, _, _ in runs for x in (lo, last)]
        bound += len(points) + sum((last - lo) // step + 1 for lo, last, step, _ in runs)
    for cls, k0, counts in batches:
        k1 = k0 + modulus * (len(counts) - 1)
        ends += [(a * k + b) // q for (a, b, q), _ in cls.points for k in (k0, k1)]
        bound += len(counts) * len(cls.points)
        for (la, lb), (ea, eb), s, removed in cls.runs:
            lo, end = la * k1 + lb, ea * k1 + eb
            if cap is not None and (end - lo) // s - 1 - len(removed) >= cap:
                raise engine._OverCap
            ends += [la * k0 + lb, la * k1 + lb, ea * k0 + eb - s, end - s]
            bound += len(counts) * (end - lo) // s
    low, high = (min(ends), max(ends)) if ends else (base, base)
    if high - low > engine._DENSE_RATIO * bound + engine._DENSE_SLACK:
        return None
    return described, batches, low, high


def layout_variants(cur, base, plan):
    """(counts, base) of a dense level as it is, with zero ends, and with
    the counts zeroed at each class threshold and the slot after it, so a
    class slice starts past its threshold."""
    zero = type(cur)([0])
    yield cur, base
    yield zero * 3 + cur + zero * 2, base - 3
    for cls in plan[1]:
        i = cls.threshold - base if cls else -1
        if 0 <= i < len(cur):
            cut = list(cur)
            cut[i : i + 1 + plan[0] : plan[0]] = [0] * len(cut[i : i + 1 + plan[0] : plan[0]])
            yield type(cur)(cut), base


def widest_run(layout, modulus):
    """The most labels one run of a layout reaches, less one: a cap of that
    many is the smallest one that stops the layout."""
    described, batches, _, _ = layout
    widths = [(last - lo) // step - len(cuts) for _, _, (_, runs) in described for lo, last, step, cuts in runs]
    for cls, k0, counts in batches:
        k1 = k0 + modulus * (len(counts) - 1)
        widths += [((ea - la) * k1 + eb - lb) // s - 1 - len(rm) for (la, lb), (ea, eb), s, rm in cls.runs]
    return max(widths, default=None)


def compare_layouts(levels, plan, describe, seen):
    """Each level's layout, and its `layout_variants`', equal the reference
    layout's, or both raise _OverCap: with no cap, a cap of 5, and caps at
    and just past the widest run.  `seen` collects what the levels covered."""
    for level in levels:
        if type(level) is not engine.Row:
            continue
        for cur, base in layout_variants(level.flags, level.base, plan):
            seen.add("zero ends" if not (cur[0] and cur[-1]) else "trimmed")
            caps = [None, 5]
            full = reference_dense_layout(cur, base, plan, describe, None)
            widest = full and widest_run(full, plan[0])
            if widest is not None:
                caps += [widest, widest + 1]
            for cap in caps:
                outcomes = []
                for layout in (engine._dense_layout, reference_dense_layout):
                    try:
                        outcomes.append(layout(cur, base, plan, describe, cap))
                    except engine._OverCap:
                        outcomes.append(engine._OverCap)
                assert outcomes[0] == outcomes[1]
                got = outcomes[0]
                if got in (None, engine._OverCap):
                    continue
                seen.add(f"modulus {plan[0]}")
                for cls, k0, counts in got[1]:
                    assert counts[0] and counts[-1]
                    if k0 == cls.threshold:
                        seen.add("slice at its threshold")
                    if any(a < 0 for a, _, _ in cls.ends):
                        seen.add("falling label")
            if widest is not None:
                seen.add("cap at the widest run")


@pytest.mark.parametrize("name", [e.name for e in ENTRIES])
def test_layout_matches_the_reference_on_every_entry(name):
    # Forward levels (counts) and closure layers (0/1 bytes) to n = 80;
    # even_jumps' doubling levels stop at the label cap.
    spec = get_entry(name).spec()
    plan = engine._class_plan(spec)
    if plan is None:
        return
    describe = cache(describer(spec))
    seen = set()
    compare_layouts(iter_levels(spec, 80, "range", engine.LABEL_CAP), plan, describe, seen)
    try:
        layers, _ = engine._closure(spec, 80, engine.LABEL_CAP, describe, plan)
    except engine.LabelCapError:
        layers, _ = engine._closure(spec, 15, engine.LABEL_CAP, describe, plan)
    compare_layouts(layers, plan, describe, seen)
    if name in ("catalan", "motzkin", "ceil_half", "parity_three_odd"):
        assert {"zero ends", "trimmed", "slice at its threshold"} <= seen
    if name in ("catalan", "motzkin", "walk_notch1", "even_jumps"):
        assert "cap at the widest run" in seen
        assert f"modulus {plan[0]}" in seen
    if name in ("ceil_half", "parity_three_odd", "parity_three_even", "even_jumps"):
        assert "modulus 2" in seen


# Above label 10 the label 20 - k falls as k rises, so the next level's span
# starts from the top of a class slice, below label 0.
MIRROR = parse_spec(
    "system mirror { mode walk; axiom 0;\n"
    " rule k <= 9: (k+1) x 1;\n"
    " rule k >= 10: (20 - k) x 1, (k+1) x 1; }\n"
)


# Labels 0..4, below the class threshold, each reach the 41 labels 0..40,
# so the widest run of a level is a lone label's, not a batched class's.
LOW_WIDE = parse_spec(
    "system low_wide { mode walk; axiom 0;\n"
    " rule k <= 4: interval(0, 40);\n"
    " rule k >= 5: (k-5) x 1, (k+1) x 1; }\n"
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(specs(), point_specs(), fold_specs()), st.integers(8, 25))
@example(MIRROR, 40)
@example(LOW_WIDE, 30)
def test_layout_matches_the_reference_on_generated_specs(spec, n):
    plan = engine._class_plan(spec)
    if plan is None:
        return
    describe = cache(describer(spec))
    seen = set()
    compare_layouts(iter_levels(spec, n, "range", 2000), plan, describe, seen)
    if spec is MIRROR:
        assert "falling label" in seen


def test_labels_below_the_thresholds_keep_their_descriptions(monkeypatch):
    # Motzkin's one class starts at label 2, so label 1, lowered alone on
    # every dense level, is described once; labels from 2 on every time, and
    # so are all labels from _KEPT_LABELS on.
    spec = get_entry("motzkin").spec()
    plan = engine._class_plan(spec)
    describe, calls = describer(spec), []

    def counted(k):
        calls.append(k)
        return describe(k)

    lower = engine._kept_below(counted, plan)
    assert [lower(k) for k in (1, 1, 2, 2)] == [describe(k) for k in (1, 1, 2, 2)]
    assert calls == [1, 2, 2]
    monkeypatch.setattr(engine, "_KEPT_LABELS", 1)
    lower, calls[:] = engine._kept_below(counted, plan), []
    lower(1), lower(1)
    assert calls == [1, 1]


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
            assert len(row) >= engine._ROW_MIN_LABELS
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


def test_ceil_half_is_batched():
    # ceil_div(k, 2) is (k + 1) // 2 on odd labels and k // 2 on even ones,
    # so ceil_half batches per residue mod 2 from label 2 on.
    spec = get_entry("ceil_half").spec()
    assert engine._class_plan(spec) is not None
    n = 60
    table = count_levels(spec, n, "range")
    levels = list(iter_levels(spec, n, "naive"))
    assert table.totals == [sum(level.values()) for level in levels]
    # At most one label per level below the threshold, and every label of
    # the levels too small to batch.
    small = sum(len(level) for level in levels[:-1] if len(level) < engine._ROW_MIN_LABELS)
    assert table.stats["fallback_labels"] <= n + small
    g = back_table(spec, n)
    assert g == reference_back_table(spec, levels)
    layers, _ = engine._closure(spec, n, None, cache(describer(spec)), engine._class_plan(spec))
    sizes = [len(layer) for layer in reversed(layers)]
    wide = [m for m, size in enumerate(sizes) if size >= engine._ROW_MIN_LABELS]
    assert len(wide) > n - 2 * engine._ROW_MIN_LABELS
    assert all(isinstance(g[m], engine.Row) for m in wide)


@pytest.mark.parametrize("name", ["ceil_half", "catalan"])
def test_each_dense_layer_is_laid_out_once(monkeypatch, name):
    # The closure keeps the layout it stepped each dense layer with, and the
    # layer's row reads it instead of laying the layer out again.
    spec = get_entry(name).spec()
    n = 60
    plan = engine._class_plan(spec)
    levels = list(iter_levels(spec, n, "naive"))
    # Layer d is stepped unless it equals layer d - 1 (a reused fixed layer).
    stepped = [
        min(level)
        for d, level in enumerate(levels[:n])
        if engine._is_dense(plan, min(level), max(level), len(level))
        and (d == 0 or set(level) != set(levels[d - 1]))
    ]
    # Every layer from the first of _ROW_MIN_LABELS labels on.
    assert len(stepped) >= n - engine._ROW_MIN_LABELS
    bases = []
    layout = engine._dense_layout

    def counted(cur, base, *args):
        bases.append(base)
        return layout(cur, base, *args)

    monkeypatch.setattr(engine, "_dense_layout", counted)
    g = back_table(spec, n)
    assert bases == stepped
    assert g == reference_back_table(spec, levels)


def test_fixed_closure_layer_is_reused():
    # Fibonacci's layers are {1}, {2}, then {1, 2} at every depth.
    spec = get_entry("fibonacci").spec()
    n = 3000
    naive = list(iter_levels(spec, n, "naive"))
    layers, _ = engine._closure(spec, n, None, cache(describer(spec)), engine._class_plan(spec))
    assert [set(layer) for layer in layers] == [set(level) for level in naive]
    assert all(layer is layers[2] for layer in layers[3:])
    assert back_table(spec, n).cells == sum(map(len, naive)) == 2 * n


def budget_stop(spec, n, bits):
    """The level a back table stops at under BACK_BITS = bits, recounted from
    the naive levels and the reference table: first each closure layer's
    cells at _CELL_BITS, then the bits of each row's counts."""
    levels = list(iter_levels(spec, n, "naive"))
    cells = 0
    for depth, level in enumerate(levels):
        cells += len(level)
        if depth and cells * engine._CELL_BITS > bits:
            return depth - 1
    charged = cells * engine._CELL_BITS
    for m, row in enumerate(reference_back_table(spec, levels)):
        charged += sum(map(int.bit_length, row.values()))
        if m and charged > bits:
            return m - 1
    return None


@pytest.mark.parametrize(
    "name, n, bits",
    [
        ("fibonacci", 3000, 1024 * 3001),  # in the closure, past the fixed layer
        ("fibonacci", 3000, 1024 * 6000 + 3_000_000),  # in the rows
        ("ceil_half", 200, 1024 * 10_000),
        ("ceil_half", 200, 1024 * 20_100 + 1_000_000),
    ],
)
def test_back_bits_stop_at_the_same_level(monkeypatch, name, n, bits):
    spec = get_entry(name).spec()
    level = budget_stop(spec, n, bits)
    assert level is not None
    monkeypatch.setattr(engine, "BACK_BITS", bits)
    with pytest.raises(engine.TableBudgetError) as exc:
        back_table(spec, n)
    assert exc.value.level == level


# ---------------------------------------------------------------------------
# The semi-naive closure against the range step of every layer


def full_step_closure(spec, n, max_labels, describe, plan):
    """The closure with every layer the range step of the one before, its
    counts reset to 1: the oracle of `engine._closure`."""
    layers, layouts = [{spec.axiom: 1}], []
    cells = 1
    for depth in range(1, n + 1):
        try:
            level = engine._next_level_range(layers[-1], describe, plan, max_labels, layouts=layouts)[0]
        except engine._OverCap:
            raise engine.LabelCapError(max_labels, depth - 1) from None
        level = engine._ones(level)
        if max_labels is not None and len(level) > max_labels:
            raise engine.LabelCapError(max_labels, depth - 1)
        cells += len(level)
        if cells * engine._CELL_BITS > engine.BACK_BITS:
            raise engine.TableBudgetError(depth - 1)
        layers.append(level)
    return layers, layouts


def shape(layer):
    """A closure layer or back-table row as its type and contents: a Row's
    base, the type of its flags, its flags and counts and its size."""
    if type(layer) is engine.Row:
        return engine.Row, layer.base, type(layer.flags), layer.flags, layer.vals, layer.size
    return type(layer), layer


def closure_outcome(build, spec, n, max_labels=None, bits=None):
    """The layers (by `shape`) and layouts that `build` makes, or the type,
    level and text of the budget error it raises, under BACK_BITS = bits."""
    with pytest.MonkeyPatch.context() as mp:
        if bits is not None:
            mp.setattr(engine, "BACK_BITS", bits)
        try:
            layers, layouts = build(spec, n, max_labels, cache(describer(spec)), engine._class_plan(spec))
        except (engine.LabelCapError, engine.TableBudgetError) as exc:
            return type(exc), exc.level, str(exc)
    return [shape(layer) for layer in layers], layouts


def assert_closure_is_the_full_step(spec, n, max_labels=None, bits=None):
    got = closure_outcome(engine._closure, spec, n, max_labels, bits)
    assert got == closure_outcome(full_step_closure, spec, n, max_labels, bits)
    return got


# Every cell budget is in units of _CELL_BITS: 40 and 400 cells.
BUDGETS = (None, 40 * engine._CELL_BITS, 400 * engine._CELL_BITS)


@pytest.mark.parametrize("name", [e.name for e in ENTRIES])
def test_closure_is_the_full_step_on_every_entry(name):
    # Labels, Row or dict per layer, layouts, and the budget errors' levels
    # and texts under small label caps and cell budgets.  The cap keeps
    # even_jumps' doubling layers in bounds.
    spec = get_entry(name).spec()
    errors = set()
    for n in (0, 1, 2, 5, 13, 40):
        for cap in (engine.LABEL_CAP, 5, 40):
            for bits in BUDGETS:
                got = assert_closure_is_the_full_step(spec, n, cap, bits)
                if got[0] in (engine.LabelCapError, engine.TableBudgetError):
                    errors.add(got[0])
    # 40 levels take more than 40 cells; only fibonacci and permutations
    # keep every layer within 5 labels.
    wide = name not in ("fibonacci", "permutations")
    assert errors == {engine.TableBudgetError} | ({engine.LabelCapError} if wide else set())


# The largest sizes of the sample workload's slots, per system.
SAMPLE_SIZES = [
    ("catalan", 181), ("motzkin", 151), ("schroeder", 151), ("fan", 141), ("ternary", 101),
    ("quaternary", 80), ("walk_notch1", 161), ("bell", 323), ("involutions", 323),
    ("ceil_half", 323), ("switchboard", 323), ("fibonacci", 1212),
]


@pytest.mark.parametrize("name, n", SAMPLE_SIZES, ids=[name for name, _ in SAMPLE_SIZES])
def test_back_table_matches_the_full_step_at_the_sample_sizes(monkeypatch, name, n):
    spec = get_entry(name).spec()
    assert_closure_is_the_full_step(spec, n, engine.LABEL_CAP)
    g = back_table(spec, n, engine.LABEL_CAP)
    monkeypatch.setattr(engine, "_closure", full_step_closure)
    full = back_table(spec, n, engine.LABEL_CAP)
    assert [shape(row) for row in g] == [shape(row) for row in full]
    assert g.cells == full.cells


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(specs(), point_specs()),
    st.integers(0, 25),
    st.integers(1, 60),
    st.sampled_from(BUDGETS),
)
def test_closure_is_the_full_step_on_generated_specs(spec, n, cap, bits):
    assert_closure_is_the_full_step(spec, n, cap, bits)
    if n <= 6:
        assert_closure_is_the_full_step(spec, n)


def traced_closure(monkeypatch, spec, n):
    """(layers, indices of the layers stepped in full, (depth, period) at
    which a layer first held the one `period` before it or None, the label
    sets handed to `_gained`)."""
    stepped, nested, deltas = [], [], []
    step, within, gained = engine._next_level_range, engine._within, engine._gained

    def spy_step(level, *args, **kwargs):
        stepped.append(level)
        return step(level, *args, **kwargs)

    def spy_within(small, big):
        held = within(small, big)
        if held:
            nested.append((small, big))
        return held

    def spy_gained(delta, *args):
        deltas.append(set(delta))
        return gained(delta, *args)

    monkeypatch.setattr(engine, "_next_level_range", spy_step)
    monkeypatch.setattr(engine, "_within", spy_within)
    monkeypatch.setattr(engine, "_gained", spy_gained)
    layers, _ = engine._closure(spec, n, None, cache(describer(spec)), engine._class_plan(spec))

    def index(layer):
        return next(d for d, other in enumerate(layers) if other is layer)

    period = None
    if nested:
        ((small, big),) = nested
        period = index(big), index(big) - index(small)
    return layers, [index(level) for level in stepped], period, deltas


@pytest.mark.parametrize(
    "name, nested",
    [
        ("catalan", (1, 1)),
        ("bell", (2, 1)),
        ("tripling", (1, 1)),
        ("fibonacci", (2, 1)),
        ("involutions", (2, 2)),
        ("bicolored_involutions", (2, 2)),
        ("motzkin", (2, 2)),
        ("walk_notch1", (3, 3)),
        ("permutations", None),
        ("partial_permutations", None),
    ],
)
def test_closure_steps_only_the_gained_labels(monkeypatch, name, nested):
    spec = get_entry(name).spec()
    n = 120
    naive = [set(level) for level in iter_levels(spec, n, "naive")]
    layers, stepped, period, deltas = traced_closure(monkeypatch, spec, n)
    assert [set(layer) for layer in layers] == naive
    assert period == nested
    if nested is None:
        # Layers that never nest are each the range step of the one before.
        assert stepped == list(range(n))
        assert deltas == []
        return
    first, p = nested
    # Before they nest, and on a Row that gained more than 1/_GAIN_RATIO of
    # its labels, layers step in full; the rest hand on only what they
    # gained, D_d = R_d - R_{d-p}.
    big = [
        d
        for d in range(first, n)
        if type(layers[d]) is engine.Row
        and (len(naive[d]) - len(naive[d - p])) * engine._GAIN_RATIO > len(naive[d])
    ]
    assert stepped == list(range(first)) + big
    gains = [naive[d] - naive[d - p] for d in range(first, n) if d not in big]
    assert deltas == [delta for delta in gains if delta]
    # Each depth gains at most p labels; fibonacci's layers stop gaining.
    assert all(len(delta) <= p for delta in deltas)
    if name == "fibonacci":
        assert deltas == [{1}]
    if name == "tripling":
        # Labels near 3^n stay a dict of ones: no span is laid out.
        assert all(type(layer) is dict for layer in layers)
        assert max(layers[n]) > 3**n


# Labels 0..31 of a walk that turns back at both ends: from depth 31 on the
# layers alternate between the even and the odd labels, two Rows.
BOUNCE = EcoSpec("bounce", "walk", 0, (
    clause([GuardAtom("le", c=0)], [Item(Affine(1, 1), Affine(0, 1))]),
    clause(
        [GuardAtom("ge", c=1), GuardAtom("le", c=30)],
        [Item(Affine(1, -1), Affine(0, 1)), Item(Affine(1, 1), Affine(0, 1))],
    ),
    clause([GuardAtom("ge", c=31)], [Item(Affine(1, -1), Affine(0, 1))]),
))
# Labels 0..40 in one cycle with halving returns: from depth 40 on every
# layer is the Row of all of them.
CYCLE = parse_spec(
    "system cyc40 { mode walk; axiom 0;\n"
    " rule k <= 39: (k+1) x 1, (0) x 1, (ceil_div(k, 2)) x 1;\n"
    " rule k >= 40: (0) x 1; }\n"
)


@pytest.mark.parametrize("spec, period", [(BOUNCE, 2), (CYCLE, 1)], ids=["bounce", "cycle"])
def test_a_fixed_row_layer_is_reused_with_its_layout(spec, period):
    n = 80
    assert_closure_is_the_full_step(spec, n)
    layers, layouts = engine._closure(spec, n, None, cache(describer(spec)), engine._class_plan(spec))
    assert type(layers[n]) is engine.Row
    fixed = [d for d in range(period, n + 1) if layers[d] is layers[d - period]]
    assert fixed == list(range(fixed[0], n + 1)) and fixed[0] < 45
    assert all(layouts[d] is layouts[d - period] for d in fixed if d < n)


@st.composite
def descriptions(draw):
    """(labels, describe, prior): successor descriptions of a few labels, runs
    with steps up to 3 and cuts on their grids, and a layer of labels 0..40
    as a dict or a Row."""
    labels = draw(st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True))
    table = {}
    for k in labels:
        points = tuple(draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 3)), max_size=3)))
        runs = []
        for _ in range(draw(st.integers(0, 3))):
            lo, step = draw(st.integers(0, 40)), draw(st.integers(1, 3))
            grid = list(range(lo, draw(st.integers(lo, 45)) + 1, step))
            cuts = draw(st.lists(st.sampled_from(grid), max_size=3, unique=True))
            runs.append((lo, grid[-1], step, tuple(sorted(cuts))))
        table[k] = points, tuple(runs)
    prior = dict.fromkeys(draw(st.lists(st.integers(0, 40), min_size=1, unique=True)), 1)
    if draw(st.booleans()):
        low = min(prior)
        flags = bytes(j in prior for j in range(low, max(prior) + 1))
        prior = engine.Row(low, flags, flags, len(prior))
    return labels, table.__getitem__, prior


ODD = bytes([1, 0, 1, 0, 1])


@settings(max_examples=300, deadline=None)
@given(descriptions())
# A step-2 run from below a Row's base, off its grid; a cut label another
# run covers, one a point reaches, and one nothing else reaches.
@example(([0], {0: ((), ((0, 8, 2, ()),))}.__getitem__, engine.Row(1, ODD, ODD, 3)))
@example(([0], {0: (((4, 1),), ((0, 6, 1, (3, 4, 5)), (3, 9, 3, ())))}.__getitem__, {20: 1}))
def test_gained_labels_are_the_expanded_successors_outside_the_layer(case):
    # Runs of one grid merge, overlap other grids and cut labels that a
    # point or another run may still reach.
    labels, describe, prior = case
    reached = set().union(*(expand(describe(k)) for k in labels))
    assert engine._gained(labels, prior, describe, None) == reached - set(prior)
