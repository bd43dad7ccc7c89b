"""Property test: the naive and range propagators, the closure layers, the
back table and both sampling strategies agree on generated affine specs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit.dsl import (
    Affine,
    EcoSpec,
    Guard,
    GuardAtom,
    Interval,
    Item,
    RuleClause,
    successors,
)
from ecokit.engine import back_table, closure_layers, count_levels, sample_walks


def affine(slopes, lo, hi):
    return st.builds(Affine, st.sampled_from(slopes), st.integers(lo, hi))


# Labels, multiplicities and interval low ends stay nonnegative for k >= 0;
# high ends and exclusions may fall anywhere.
items = st.builds(Item, affine((0, 1, 2), 0, 3), affine((0, 1), 0, 2))
intervals = st.builds(
    Interval,
    affine((0, 1), 0, 3),
    affine((0, 1, 2), -2, 4),
    st.integers(1, 3),
    st.lists(affine((0, 1, 2), -1, 4), max_size=2).map(tuple),
)
bodies = st.tuples(
    st.lists(items, max_size=2).map(tuple), st.lists(intervals, max_size=2).map(tuple)
)


@st.composite
def specs(draw):
    """A walk-mode spec: one clause for every label, or a split at k <= t."""
    split = draw(st.one_of(st.none(), st.integers(0, 3)))
    if split is None:
        guards = [Guard(())]
    else:
        guards = [Guard((GuardAtom("le", c=split),)), Guard((GuardAtom("ge", c=split + 1),))]
    clauses = tuple(RuleClause(g, *draw(bodies)) for g in guards)
    return EcoSpec("generated", "walk", draw(st.integers(0, 3)), clauses)


@settings(max_examples=150, deadline=None)
@given(specs(), st.integers(0, 5), st.integers(0, 2**16))
def test_engine_routes_agree(spec, n, seed):
    naive = count_levels(spec, n, method="naive")
    ranged = count_levels(spec, n, method="range")
    assert naive.levels == ranged.levels
    assert closure_layers(spec, n) == [set(level) for level in naive.levels]
    total = naive.totals[n]
    assert back_table(spec, n)[n][spec.axiom] == total
    if total:
        seq = sample_walks(spec, n, 3, seed, strategy="sequential")
        assert sample_walks(spec, n, 3, seed, strategy="binary") == seq
        for walk in seq:
            assert all(b in successors(spec, a) for a, b in zip(walk, walk[1:]))
