"""Property test: every weight the residue-class evaluator folds, and every
fold over a concrete successor description, agrees with direct expansion of
generated affine clauses."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit.dsl import (
    Affine,
    Guard,
    GuardAtom,
    Interval,
    Item,
    RuleClause,
    _arity,
    _at_or_above,
    _label_sum,
    _odd_count,
    class_view,
    describe,
    expand,
    residue_split,
)


def affine(slopes, lo, hi):
    return st.builds(Affine, st.sampled_from(slopes), st.integers(lo, hi))


# Multiplicities stay nonnegative from k = 1 on, as expansion requires.
mults = st.one_of(affine((0, 1), 0, 3), st.just(Affine(1, -1)))
items = st.builds(Item, affine((0, 1, 2), -2, 4), mults)
intervals = st.builds(
    Interval,
    affine((0, 0, 1), 0, 3),
    affine((0, 1, 2), -3, 4),
    st.integers(1, 3),
    st.lists(affine((0, 1, 2), -3, 3), max_size=2).map(tuple),
)


@st.composite
def guards(draw):
    atoms = []
    if draw(st.booleans()):
        m = draw(st.integers(2, 3))
        atoms.append(GuardAtom("mod", m=m, r=draw(st.integers(0, m - 1))))
    if draw(st.booleans()):
        atoms.append(GuardAtom("ge", c=draw(st.integers(1, 4))))
    return Guard(tuple(atoms))


clauses = st.builds(
    RuleClause,
    guards(),
    st.lists(items, max_size=3).map(tuple),
    st.lists(intervals, max_size=2).map(tuple),
)


def class_labels(view):
    """Labels of the view's class from its threshold through 3 periods on."""
    m, r, t = view.modulus, view.residue, view.threshold
    return [k for k in range(t, t + 3 * m + 1) if k % m == r]


def views(clause, scale):
    modulus, split = residue_split([clause], scale)
    out = [class_view(clause, modulus, r) for r, owners in split if owners]
    assert all(why == "" for _, why in out)
    return [view for view, _ in out]


@settings(max_examples=250, deadline=None)
@given(clauses)
def test_weights_match_expansion(clause):
    for view in views(clause, 1) + views(clause, 2):
        slope, inter = view.count()
        for k in class_labels(view):
            desc = describe(clause, k)
            succ = expand(desc)
            assert slope * k + inter == sum(succ.values()), k
            # The description folds, at this one label, against the same
            # expansion.
            assert _arity(desc) == sum(succ.values()), k
            assert _label_sum(desc) == sum(v * c for v, c in succ.items()), k
            assert _odd_count(desc) == sum(c for v, c in succ.items() if v % 2), k
            for t in {k - 3, k - 1, k, k + 1, 0, 1, *succ}:
                assert _at_or_above(desc, t) == sum(c for v, c in succ.items() if v >= t), (k, t)
    # Parity needs scale 2: each grid then has a fixed parity on the class.
    for view in views(clause, 2):
        sums, _ = view.label_sum()
        odds, why = view.odd_count()
        assert why == ""
        for k in class_labels(view):
            succ = expand(describe(clause, k))
            if sums is not None:
                assert sums[0] * k + sums[1] == sum(v * c for v, c in succ.items()), k
            assert odds[0] * k + odds[1] == sum(c for v, c in succ.items() if v % 2), k


@settings(max_examples=250, deadline=None)
@given(clauses, st.integers(-1, 3))
def test_at_or_above_is_a_lower_bound(clause, b):
    for view in views(clause, 2):
        bound, _ = view.at_or_above(b)
        if bound is None:
            continue
        slope, inter, threshold = bound
        for k in class_labels(view):
            if k >= threshold:
                succ = expand(describe(clause, k))
                exact = sum(c for v, c in succ.items() if v >= k - b)
                assert slope * k + inter <= exact, k
