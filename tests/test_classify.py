import json
from collections import Counter
from fractions import Fraction

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
    _radius_for_width,
    _radius_zero,
    build_report,
    FORM_CHECK_TO,
    _walk_shape,
    factorial_form,
    linear_bound_check,
    rational_from_finite,
    rational_gf_affine,
    rational_gf_parity,
)
from ecokit.dsl import (
    Affine,
    EcoSpec,
    Guard,
    GuardAtom,
    Interval,
    Item,
    RuleClause,
    describe,
    expand,
    match_clause,
    parse_spec,
    validate_spec,
)
from ecokit import classify, cli, engine, kernel
from ecokit.engine import total_series
from ecokit.errors import KernelError
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


def form_expansion(form, k):
    """Successor multiset the walk form predicts for a node labeled k."""
    removed = {k - d for d in form.removed_offsets}
    removed |= {form.base + c for c in form.removed_low}
    out = Counter(v for v in range(form.base, k) if v not in removed)
    for j in form.jumps:
        out[k + j] += 1
    return out


def multiset_checked_form(spec):
    """factorial_form by the multiset check: the form from `_walk_shape`,
    kept only if `form_expansion` equals the expanded description at every
    guarded label up to FORM_CHECK_TO."""
    form, _ = _walk_shape(spec)
    if form is None:
        return None
    clause = spec.clauses[0]
    floor = max([1 if spec.mode == "eco" else 0, *(a.c for a in clause.guard.atoms)])
    for k in range(floor, FORM_CHECK_TO + 1):
        if form_expansion(form, k) != expand(describe(clause, k)):
            return None
    return form


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

    def test_rational_solve_fibonacci(self):
        rf = rational_from_finite(spec_of("fibonacci"))
        assert rf.num == QPoly([1])
        assert rf.den == QPoly([1, -1, -1])

    def test_naive_fit_is_rechecked_against_the_range_totals(self, monkeypatch):
        # The recurrence is fitted to the naive engine's totals; range
        # totals off by one at z^3 must still fail the solve.
        methods = []

        def off_by_one(spec, order, method="auto", max_labels=None):
            methods.append(method)
            terms = total_series(spec, order, method, max_labels)
            if method != "naive":
                terms[3] += 1
            return terms

        monkeypatch.setattr(classify, "total_series", off_by_one)
        with pytest.raises(ClassifyError, match="^finite-label solve disagrees with propagation$"):
            rational_from_finite(spec_of("fibonacci"))
        assert methods == ["naive", "auto"]

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

    @pytest.mark.parametrize(
        "rules, alpha, beta",
        [
            # Labels 1 and 2: the sum is fitted through both.
            ("rule k <= 1: (2) x 1; rule k >= 2 and k <= 2: (1) x 1, (2) x 1;", 1, 1),
            # Label 1 alone: the fit is the line through the origin.
            ("rule k <= 1: (1) x 1;", 1, 0),
        ],
        ids=["two-labels", "one-label"],
    )
    def test_bounded_clauses_fit_the_finite_label_form(self, rules, alpha, beta):
        # With every clause bounded there is no tail class to read the sum
        # from, so it is fitted through the lowest reachable labels; the
        # closed form must be the finite-label route's.
        spec = parse_spec(f"system b {{ mode eco; axiom 1; {rules} }}")
        closure = _closure(spec)
        witness, why = _affine_sigma(spec, closure)
        assert (witness.alpha, witness.beta, why) == (alpha, beta, "")
        rf = rational_gf_affine(witness, spec.axiom)
        assert rf == rational_from_finite(spec, closure)
        assert engine_match(rf, spec)

    def test_bounded_clauses_past_the_probe_have_no_witness(self):
        # Every clause is bounded, yet the walk climbs past the probe before
        # it runs out of rules: there are no labels to fit the sum through.
        spec = parse_spec("system up { mode walk; axiom 0; rule k <= 300: (k+1) x 1; }")
        assert _affine_sigma(spec, _closure(spec)) == (
            None,
            "every clause is bounded, yet label 201 is beyond probe 200",
        )


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

    @pytest.mark.parametrize("low", [False, True])
    def test_bound_clears_unequal_denominators(self, low):
        # No catalog view has a slope and an intercept with different
        # denominators: here k even keeps at least k/2 + 1 returns (1/2 and
        # 1), k odd at least k/2 + 1/2.  The probed counts meet that bound
        # exactly, or fall one below it at label 8.
        class View:
            def __init__(self, inter):
                self.inter = inter

            def at_or_above(self, b):
                if b < 0:
                    return (Fraction(1), Fraction(0), 0), ""
                return (Fraction(1, 2), self.inter, 0), ""

        views = [(0, View(Fraction(1)), None), (1, View(Fraction(1, 2)), None)]
        labels = list(range(12))
        counts = [k // 2 + 1 - (low and k == 8) for k in labels]
        descs = [(((k, m),), ()) for k, m in zip(labels, counts)]
        if low:
            with pytest.raises(ClassifyError, match="symbolic return bound exceeds the exact count"):
                _radius_for_width(2, views, labels, descs, 0)
        else:
            verdict = _radius_for_width(2, views, labels, descs, 0)
            assert verdict.holds and verdict.slope == Fraction(1, 2)


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
    # pow2 guards keep every label off the batched step, so each one is
    # lowered through the cached pairs the budget bounds.
    monkeypatch.setattr(engine, "NAIVE_PAIRS", 100)
    body = "(2*k) x 1, (2*k+1) x 1, (2*k+2) x 1"
    spec = parse_spec(
        f"system tri {{ mode walk; axiom 1; rule pow2(k): {body}; rule !pow2(k): {body}; }}"
    )
    assert engine._class_plan(spec) is None
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


@st.composite
def interval_walk_specs(draw):
    """One clause `k >= c: interval(base, k+h) minus {...}, (k+j) x m, ...`:
    constant exclusions below, on and above the base, k+c exclusions that
    notch below k, inside the top block or above it, jumps with repeated
    and zero multiplicities, and an axiom at, above or below the base."""
    base = draw(st.integers(0, 3))
    h = draw(st.integers(-3, 3))
    minus = draw(
        st.lists(
            st.one_of(
                st.builds(Affine, st.just(0), st.integers(0, 8)),
                st.builds(Affine, st.just(1), st.integers(-4, 4)),
            ),
            max_size=3,
        )
    )
    items = draw(
        st.lists(
            st.builds(Item, st.builds(Affine, st.just(1), st.integers(-3, 3)),
                      st.builds(Affine, st.just(0), st.integers(0, 2))),
            max_size=3,
        )
    )
    atoms = (GuardAtom("ge", c=draw(st.integers(0, 4))),) if draw(st.booleans()) else ()
    interval = Interval(Affine(0, base), Affine(1, h), 1, tuple(minus))
    clause = RuleClause(Guard(atoms), tuple(items), (interval,))
    mode = draw(st.sampled_from(("eco", "walk")))
    return EcoSpec("w", mode, base + draw(st.integers(-1, 3)), (clause,))


@settings(max_examples=300, deadline=None)
@given(interval_walk_specs())
def test_walk_form_check_matches_the_multiset_check(spec):
    assert factorial_form(spec) == multiset_checked_form(spec)


def test_walk_form_names_are_the_kernels():
    assert factorial_form is kernel.factorial_form
    assert _walk_shape is kernel._walk_shape
    assert FORM_CHECK_TO is kernel.FORM_CHECK_TO


def walk_shape_note(spec):
    report = build_report(spec, order=8)
    return next(r.note for r in report.results if r.criterion == "interval-walk-shape")


def kernel_refusal(form):
    """build_kernel's error message for the form, or None if it builds."""
    try:
        kernel.build_kernel(form, 8)
    except KernelError as exc:
        return str(exc)
    return None


def test_a_walk_form_without_a_forward_jump_gets_the_kernels_reason(tmp_path, capsys):
    # Every node keeps its label: the interval is empty at height 0, so the
    # walk never moves, and the kernel has no top jump to solve with.
    text = "system t { mode walk; axiom 0; rule always: interval(0, k-1), (k) x 1; }"
    path = tmp_path / "t.eco"
    path.write_text(text)
    assert cli.run(["gf", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: no forward jump: the kernel is degenerate\n")
    note = walk_shape_note(parse_spec(text))
    assert note == "recognized, but " + err.removeprefix("error: ").rstrip("\n")


WALK_TEXTS = {
    "no_forward_jump": "system t { mode walk; axiom 0; rule always: interval(0, k-1), (k) x 1; }",
    "raised_start": "system t { mode walk; axiom 2; rule always: interval(0, k-1), (k+1) x 1; }",
    **{e.name: e.text for e in ENTRIES},
}


def assert_note_follows_build_kernel(spec):
    form = factorial_form(spec)
    if form is None:
        return
    refusal = kernel_refusal(form)
    want = "algebraic route applies" if refusal is None else f"recognized, but {refusal}"
    assert walk_shape_note(spec) == want


@pytest.mark.parametrize("name", WALK_TEXTS)
def test_algebraic_route_applies_only_where_the_kernel_builds(name):
    assert_note_follows_build_kernel(parse_spec(WALK_TEXTS[name]))


@st.composite
def walk_form_texts(draw):
    """Walk-mode specs `interval(base, k-1, minus {...}), (k+j) x m, ...`
    whose labels never leave [base, oo): notches below k, at most one low
    exclusion, stay and upward jumps, and a start at or above the base."""
    base = draw(st.integers(0, 2))
    minus = [f"k-{d}" for d in sorted(draw(st.sets(st.integers(1, 3), max_size=2)))]
    low = draw(st.sampled_from((None, None, None, 0, 1, 2)))
    minus += [] if low is None else [str(base + low)]
    jumps = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), max_size=3))
    parts = [f"interval({base}, k-1" + (f", minus {{{', '.join(minus)}}})" if minus else ")")]
    parts += [f"(k+{j}) x {m}" for j, m in jumps]
    axiom = base + draw(st.sampled_from((0, 0, 1)))
    return f"system w {{ mode walk; axiom {axiom}; rule always: {', '.join(parts)}; }}"


@settings(max_examples=60, deadline=None)
@given(walk_form_texts())
def test_walk_shape_note_follows_build_kernel_on_generated_forms(text):
    spec = parse_spec(text)
    assert validate_spec(spec).ok and factorial_form(spec) is not None
    assert_note_follows_build_kernel(spec)
