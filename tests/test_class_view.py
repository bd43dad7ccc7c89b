"""Property tests: every weight the residue-class evaluator folds, and every
fold over a concrete successor description, agrees with direct expansion of
generated affine clauses; the reachable closure walks generated specs exactly
as an `expand`-based walker does."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit.dsl import (
    MAX_SUCCESSORS,
    Affine,
    EcoSpec,
    Guard,
    GuardAtom,
    Interval,
    Issue,
    Item,
    RuleClause,
    SpecError,
    _arity,
    _at_or_above,
    _label_sum,
    _odd_count,
    _reachable_closure,
    _support,
    class_view,
    describe,
    describer,
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
            cuts = {c for _, _, _, cs in desc[1] for c in cs}
            edges = {t for c in cuts for t in (c - 1, c, c + 1)}
            for t in {k - 3, k - 1, k, k + 1, 0, 1, *succ, *edges}:
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


def expand_walk(spec, kprobe, describe_at):
    """The reachable closure as a depth-first walk that pushes the keys of
    each label's `expand` dict: the reference for `_reachable_closure`."""
    floor = 1 if spec.mode == "eco" else 0
    seen = set()
    stop = None
    frontier = [spec.axiom]
    while frontier:
        k = frontier.pop()
        if k in seen:
            continue
        issue = None
        if k < floor:
            issue = Issue("label-range", f"label {k} is below the label floor {floor}", k)
        elif k > kprobe:
            issue = Issue("probe", f"label {k} is beyond probe {kprobe}", k)
        else:
            seen.add(k)
            try:
                desc = describe_at(k)
            except SpecError as exc:
                issue = Issue("expansion", f"label {k} does not expand: {exc}", k)
            else:
                points, runs = desc
                width = len(points) + sum((last - lo) // step + 1 for lo, last, step, _ in runs)
                if width > MAX_SUCCESSORS:
                    issue = Issue(
                        "width",
                        f"label {k} has {width} successor labels, more than {MAX_SUCCESSORS}",
                        k,
                    )
                else:
                    frontier.extend(j for j in expand(desc) if j not in seen)
        stop = stop or issue
    return sorted(seen), stop


@st.composite
def crowded_clauses(draw):
    """A generated clause, often with labels that meet: a repeated item, an
    item on an interval's low end or cut, a repeated interval, and step-2
    intervals with cuts.  Its guard is often `always`."""
    clause = draw(clauses)
    items, ivs = list(clause.items), list(clause.intervals)
    if items and draw(st.booleans()):
        items.append(draw(st.sampled_from(items)))
    if ivs and draw(st.booleans()):
        iv = draw(st.sampled_from(ivs))
        items.append(Item(draw(st.sampled_from((iv.lo, *iv.minus))), Affine(0, 1)))
    if ivs and draw(st.booleans()):
        ivs.append(draw(st.sampled_from(ivs)))
    if draw(st.booleans()):
        cuts = draw(st.lists(affine((0, 1), -1, 4), max_size=3))
        ivs.append(Interval(Affine(0, draw(st.integers(0, 2))), Affine(1, 2), 2, tuple(cuts)))
    guard = Guard() if draw(st.booleans()) else clause.guard
    return RuleClause(guard, tuple(items), tuple(ivs))


@st.composite
def closure_specs(draw):
    """One crowded clause, or two that split the labels by parity; the axiom
    lies at, above or just below the label floor."""
    first = draw(crowded_clauses())
    spec_clauses = [first]
    if draw(st.booleans()):
        second = draw(crowded_clauses())
        spec_clauses = [
            RuleClause(Guard((GuardAtom("mod", m=2, r=r),)), c.items, c.intervals)
            for r, c in enumerate((first, second))
        ]
    mode = draw(st.sampled_from(("eco", "walk")))
    floor = 1 if mode == "eco" else 0
    return EcoSpec("c", mode, floor + draw(st.integers(-1, 4)), tuple(spec_clauses))


@settings(max_examples=300, deadline=None)
@given(closure_specs(), st.integers(2, 24))
def test_closure_matches_the_expand_walk(spec, kprobe):
    got = _reachable_closure(spec, kprobe, describer(spec))
    assert got == expand_walk(spec, kprobe, describer(spec))
    for clause in spec.clauses:
        for k in range(0, 12):
            try:
                desc = describe(clause, k)
            except SpecError:
                continue
            assert list(_support(desc)) == list(expand(desc)), k
