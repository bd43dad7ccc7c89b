import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit.catalog import ENTRIES, get_entry
from ecokit.classify import (
    ClassifyError,
    _affine_sigma,
    _bounded_plus_jumps,
    _closure,
    _parity_affine,
    _radius_zero,
    build_report,
    factorial_form,
    form_expansion,
    linear_bound_check,
    rational_from_finite,
    rational_gf_affine,
    rational_gf_parity,
    transition_matrix,
)
from ecokit.dsl import (
    Affine,
    EcoSpec,
    Guard,
    Interval,
    Item,
    RuleClause,
    describe,
    expand,
    match_clause,
    parse_spec,
)
from ecokit import engine
from ecokit.engine import total_series
from ecokit.qpoly import QPoly


def spec_of(name):
    return get_entry(name).spec()


def engine_match(rf, spec, order=25):
    return rf.expand(order).as_ints() == total_series(spec, order)


def reachable_labels(spec):
    """Every label reachable from the axiom, or None unless the closure
    completes within the probe."""
    _, labels, stop = _closure(spec)
    return None if stop else frozenset(labels)


def affine_sigma(spec):
    return _affine_sigma(spec, _closure(spec))[0]


def parity_affine(spec):
    return _parity_affine(spec, _closure(spec))[0]


def bounded_plus_jumps(spec):
    return _bounded_plus_jumps(spec)[0]


def radius_zero_check(spec):
    return _radius_zero(spec, _closure(spec))


def to_walk_spec(form, name="walk"):
    """The walk form as a spec over heights (labels shifted down by base)."""
    minus = tuple(Affine(1, -d) for d in sorted(form.removed_offsets))
    minus += tuple(Affine(0, c) for c in sorted(form.removed_low))
    interval = Interval(Affine(0, 0), Affine(1, -1), 1, minus)
    items = tuple(
        Item(Affine(1, j), Affine(0, c))
        for j, c in sorted(Counter(form.jumps).items())
    )
    clause = RuleClause(Guard(), items, (interval,))
    return EcoSpec(name, "walk", form.start_height, (clause,))


class TestFiniteLabels:
    def test_reachable_set_fibonacci(self):
        assert reachable_labels(spec_of("fibonacci")) == frozenset({1, 2})

    def test_unbounded_systems_return_none(self):
        assert reachable_labels(spec_of("catalan")) is None

    def test_transition_matrix_rows(self):
        spec = spec_of("fibonacci")
        pi = transition_matrix(spec, frozenset({1, 2}))
        assert pi[1] == {2: 1}
        assert pi[2] == {1: 1, 2: 1}

    def test_rational_solve_fibonacci(self):
        rf = rational_from_finite(spec_of("fibonacci"))
        assert rf.num == QPoly([1])
        assert rf.den == QPoly([1, -1, -1])

    def test_rational_solve_rejects_unbounded(self):
        with pytest.raises(ClassifyError):
            rational_from_finite(spec_of("catalan"))

    def test_finite_label_set_beyond_the_probe(self):
        # The only label, 300, lies above the probe: the closure does not
        # complete, and the closed form comes from the label sum instead.
        spec = parse_spec("system big { mode eco; axiom 300; rule always: (300) x 300; }")
        report = build_report(spec)
        finite = report.results[0]
        assert (finite.criterion, finite.verdict) == ("finite-labels", "none")
        assert finite.note == "label 300 is beyond probe 200"
        assert report.overall == "rational"
        assert report.closed_form_source == "affine-label-sum"
        assert report.closed_form.to_str() == "1/(1 - 300z)"


class TestAffineLabelSum:
    @pytest.mark.parametrize(
        "name,num,den",
        [
            ("fibonacci_bisection_a", [1, -1], [1, -3, 1]),
            ("fibonacci_bisection_b", [1], [1, -3, 1]),
            ("affine_jumps", [1, -3], [1, -6, -3]),
            ("tripling", [1, -3], [1, -6, -3]),
            ("goldbach", [1, -2], [1, -4, 3]),
        ],
    )
    def test_witness_and_closed_form(self, name, num, den):
        spec = spec_of(name)
        witness = affine_sigma(spec)
        assert witness is not None
        rf = rational_gf_affine(witness, spec.axiom)
        assert rf.num == QPoly(num)
        assert rf.den == QPoly(den)
        assert engine_match(rf, spec)

    def test_no_witness_when_sum_is_quadratic(self):
        assert affine_sigma(spec_of("catalan")) is None


class TestParityLabelSum:
    def test_parity_witness_and_form(self):
        spec = spec_of("parity_three_odd")
        w = parity_affine(spec)
        assert w is not None
        rf = rational_gf_parity(w)
        assert rf.num == QPoly([1, -1])
        assert rf.den == QPoly([1, -3, 1, -1])
        assert engine_match(rf, spec)

    def test_no_witness_for_interval_systems(self):
        assert parity_affine(spec_of("motzkin")) is None


class TestWalkForm:
    def test_catalan_shape(self):
        # interval(2, k+1) is the strictly-below range plus a stay and a
        # unit climb: offsets 0 and 1.
        form = factorial_form(spec_of("catalan"))
        assert form is not None
        assert form.base == 2
        assert form.jumps == (0, 1)
        assert form.removed_offsets == frozenset()
        assert form.removed_low == frozenset()
        assert form.start_height == 0

    def test_multiplicity_of_jumps(self):
        assert factorial_form(spec_of("schroeder")).jumps == (0, 1, 1)
        assert factorial_form(spec_of("fan")).jumps == (0, 1, 1, 1)
        assert factorial_form(spec_of("quinary")).jumps == (0, 1, 2, 3, 4)

    def test_notch_and_low_exclusions(self):
        assert factorial_form(spec_of("walk_notch1")).removed_offsets == frozenset({1})
        assert factorial_form(spec_of("walk_skip_low1")).removed_low == frozenset({1})
        mixed = factorial_form(spec_of("walk_skip_mixed"))
        assert mixed.removed_offsets == frozenset({2})
        assert mixed.removed_low == frozenset({2})

    def test_non_interval_systems_return_none(self):
        for name in ("bell", "fibonacci", "bessel", "goldbach"):
            assert factorial_form(spec_of(name)) is None

    def test_form_successors_agree_with_spec(self):
        for name in ("catalan", "motzkin", "schroeder", "walk_notch1"):
            spec = spec_of(name)
            form = factorial_form(spec)
            floor = spec.axiom
            for k in range(floor, 40):
                assert form_expansion(form, k) == expand(describe(match_clause(spec, k), k))

    def test_to_walk_spec_roundtrip(self):
        spec = spec_of("motzkin")
        form = factorial_form(spec)
        walk = to_walk_spec(form)
        assert total_series(walk, 15) == total_series(spec, 15)


class TestBoundedPlusJumps:
    def test_witness_on_parity_skew_system(self):
        w = bounded_plus_jumps(spec_of("parity_three_even"))
        assert w is not None
        assert w.jumps == (1,)

    def test_none_when_intervals_track_k(self):
        assert bounded_plus_jumps(spec_of("catalan")) is None


class TestLinearGrowth:
    def test_certified_for_fixed_jumps(self):
        lb = linear_bound_check(spec_of("catalan"))
        assert lb.certified and lb.slope == 1

    def test_uncertified_for_doubling_labels(self):
        assert not linear_bound_check(spec_of("even_jumps")).certified

    def test_uncertified_for_tripling_jump(self):
        assert not linear_bound_check(spec_of("tripling")).certified


class TestRadiusZero:
    @pytest.mark.parametrize(
        "name",
        [
            "permutations",
            "arrangements",
            "involutions",
            "partial_permutations",
            "switchboard",
            "bicolored_involutions",
            "bell",
            "bicolored_partitions",
            "bessel",
            "even_jumps",
            "runaway",
        ],
    )
    def test_holds_on_factorial_growth(self, name):
        verdict = radius_zero_check(spec_of(name))
        assert verdict.holds, verdict.reason

    @pytest.mark.parametrize("name", ["catalan", "motzkin", "fibonacci", "ceil_half"])
    def test_does_not_hold_on_tame_systems(self, name):
        assert not radius_zero_check(spec_of(name)).holds


EXPECT = {
    "fibonacci": ("rational", "finite-labels", "1/(1 - z - z^2)"),
    "fibonacci_bisection_a": ("rational", "affine-label-sum", None),
    "fibonacci_bisection_b": ("rational", "affine-label-sum", None),
    "affine_jumps": ("rational", "affine-label-sum", "(1 - 3z)/(1 - 6z - 3z^2)"),
    "tripling": ("rational", "affine-label-sum", "(1 - 3z)/(1 - 6z - 3z^2)"),
    "parity_three_odd": (
        "rational",
        "parity-label-sum",
        "(1 - z)/(1 - 3z + z^2 - z^3)",
    ),
    "parity_three_even": ("rational", "bounded-plus-jumps", None),
    "fredholm": ("inconclusive", None, None),
    "runaway": ("zero-radius", None, None),
    "goldbach": ("rational", "affine-label-sum", "(1 - 2z)/(1 - 4z + 3z^2)"),
    "catalan": ("algebraic-candidate", None, None),
    "motzkin": ("algebraic-candidate", None, None),
    "schroeder": ("algebraic-candidate", None, None),
    "ternary": ("algebraic-candidate", None, None),
    "walk_notch1": ("algebraic-candidate", None, None),
    "walk_skip_low1": ("inconclusive", None, None),
    "walk_skip_mixed": ("inconclusive", None, None),
    "permutations": ("zero-radius", None, None),
    "involutions": ("zero-radius", None, None),
    "bell": ("zero-radius", None, None),
    "bessel": ("zero-radius", None, None),
    "even_jumps": ("zero-radius", None, None),
    "ceil_half": ("inconclusive", None, None),
}


class TestReport:
    @pytest.mark.parametrize("name", sorted(EXPECT))
    def test_overall_verdicts(self, name):
        report = build_report(spec_of(name))
        overall, source, form = EXPECT[name]
        assert report.overall == overall
        if source is not None:
            assert report.closed_form_source == source
        if form is not None:
            assert report.closed_form.to_str() == form

    def test_closed_forms_always_engine_checked(self):
        report = build_report(spec_of("goldbach"))
        assert report.closed_form is not None
        assert engine_match(report.closed_form, spec_of("goldbach"), 30)

    def test_json_round_trip(self):
        report = build_report(spec_of("fibonacci"))
        blob = json.dumps(report.to_json_obj())
        assert "finite-labels" in blob

    def test_summary_mentions_verdict(self):
        report = build_report(spec_of("involutions"))
        assert "zero-radius" in report.summary()


class TestNoneReasons:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
    def test_every_none_verdict_says_why(self, entry):
        for r in build_report(entry.spec(), order=12).results:
            if r.verdict == "none":
                assert r.note and "\n" not in r.note, r.criterion

    def test_runaway_reasons(self):
        notes = {
            r.criterion: r.note
            for r in build_report(spec_of("runaway"), order=12).results
            if r.verdict == "none"
        }
        assert set(notes) >= {
            "affine-label-sum",
            "parity-label-sum",
            "interval-walk-shape",
            "bounded-plus-jumps",
        }

    def test_evaluator_reason_reaches_the_note(self):
        report = build_report(spec_of("catalan"), order=12)
        note = next(r.note for r in report.results if r.criterion == "affine-label-sum")
        assert note == "label sum not affine on k = 0 mod 2: quadratic in k"


def test_report_names_the_pair_budget_that_shortened_its_series(monkeypatch):
    monkeypatch.setattr(engine, "NAIVE_PAIRS", 100)
    spec = parse_spec(
        "system tri { mode walk; axiom 1; rule always: (2*k) x 1, (2*k+1) x 1, (2*k+2) x 1; }"
    )
    report = build_report(spec, order=12)
    assert report.budget == ("pairs", 100)
    assert report.to_json_obj()["partial"] == {"pairs": 100, "level": 4}
    assert report.series == (1, 3, 9, 27, 81)


@st.composite
def finite_walk_texts(draw):
    """(spec text, d): labels 0..d-1, each with its own bounded clause of
    point successors inside that set, plus a catch-all clause the walk
    never enters."""
    d = draw(st.integers(1, 30))
    point = st.tuples(st.integers(0, d - 1), st.integers(1, 3))
    lines = []
    for j in range(d):
        items = draw(st.lists(point, min_size=1, max_size=3))
        body = ", ".join(f"({k}) x {m}" for k, m in items)
        lines.append(f"  rule k >= {j} and k <= {j}: {body};")
    lines.append(f"  rule k >= {d}: (0) x 1;")
    axiom = draw(st.integers(0, d - 1))
    return f"system finite {{ mode walk; axiom {axiom};\n" + "\n".join(lines) + " }\n", d


@settings(max_examples=40, deadline=None)
@given(finite_walk_texts())
def test_finite_label_closed_form_matches_the_naive_engine(case):
    text, d = case
    spec = parse_spec(text)
    report = build_report(spec)
    finite = next(r for r in report.results if r.criterion == "finite-labels")
    assert finite.verdict == "holds"
    order = 2 * d + 10
    want = total_series(spec, order, method="naive")
    assert finite.closed_form.expand(order).as_ints() == want
