import json
import math

import pytest

from ecokit import dsl
from ecokit.catalog import ENTRIES
from ecokit.dsl import (
    PRIME_BOUND,
    ParseError,
    SpecError,
    eval_expr,
    from_canonical_json,
    goldbach_pair,
    is_prime,
    match_clause,
    next_prime,
    parse_spec,
    spec_to_text,
    to_canonical_json,
    validate_spec,
)
from ecokit.dsl import Issue, _reachable_closure, describe, describer, expand

CATALAN = """
system catalan {
  mode eco;
  axiom 2;
  rule k >= 2: interval(2, k+1);
}
"""

def successors_of(spec, k):
    """The {label: multiplicity} expansion of label k's description."""
    return expand(describe(match_clause(spec, k), k))


FIB = """
system fib {
  mode eco;
  axiom 1;
  rule k <= 1: (2) x 1;
  rule k >= 2: (1) x 1, (2) x 1;
}
"""


class TestParsing:
    def test_header_fields(self):
        spec = parse_spec(CATALAN)
        assert spec.name == "catalan"
        assert spec.mode == "eco"
        assert spec.axiom == 2

    def test_successors_expand_interval(self):
        spec = parse_spec(CATALAN)
        assert dict(successors_of(spec, 2)) == {2: 1, 3: 1}
        assert dict(successors_of(spec, 5)) == {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}

    def test_item_multiplicities(self):
        spec = parse_spec(
            "system t { mode eco; axiom 3; rule always: (2) x k-1, (k+1) x 1; }"
        )
        assert dict(successors_of(spec, 4)) == {2: 3, 5: 1}

    def test_interval_step_and_minus(self):
        spec = parse_spec(
            "system t { mode walk; axiom 0;"
            " rule always: interval(0, 2*k, step 2, minus {2}); }"
        )
        assert dict(successors_of(spec, 3)) == {0: 1, 4: 1, 6: 1}

    def test_guard_dispatch(self):
        spec = parse_spec(FIB)
        assert match_clause(spec, 1) is spec.clauses[0]
        assert match_clause(spec, 7) is spec.clauses[1]

    def test_mod_guards(self):
        spec = parse_spec(
            "system t { mode eco; axiom 2;"
            " rule k mod 2 == 0: (2) x k-1, (k+1) x 1;"
            " rule k mod 2 == 1: (2) x k-2, (3) x 1, (k+1) x 1; }"
        )
        assert dict(successors_of(spec, 4)) == {2: 3, 5: 1}
        assert dict(successors_of(spec, 5)) == {2: 3, 3: 1, 6: 1}

    def test_pow2_guard_and_negation(self):
        spec = parse_spec(
            "system t { mode eco; axiom 2;"
            " rule pow2(k): (2) x k-1, (k+1) x 1;"
            " rule !pow2(k): (2) x k-2, (3) x 1, (k+1) x 1; }"
        )
        assert dict(successors_of(spec, 8)) == {2: 7, 9: 1}
        assert dict(successors_of(spec, 6)) == {2: 4, 3: 1, 7: 1}

    def test_negation_limited_to_pow2_prime(self):
        with pytest.raises(ParseError):
            parse_spec(
                "system t { mode eco; axiom 1; rule !(k >= 2): (1) x k; }"
            )

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ParseError):
            parse_spec(
                "system t { mode eco; axiom 1; rule always: (mystery(k)) x k; }"
            )

    def test_garbage_input(self):
        with pytest.raises(ParseError):
            parse_spec("once upon a time")


class TestBuiltins:
    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(2) == 3
        assert next_prime(13) == 17
        assert next_prime(89) == 97

    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        assert {n for n in range(2, 30) if is_prime(n)} == primes

    def test_is_prime_matches_trial_division(self):
        sieve = [True] * 20000
        sieve[0] = sieve[1] = False
        for p in range(2, 142):
            if sieve[p]:
                sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
        assert [n for n in range(20000) if is_prime(n)] == [
            n for n in range(20000) if sieve[n]
        ]

    @pytest.mark.parametrize("n", [2**31 - 1, 10**9 + 7, 2**61 - 1, 10**18 + 9, 10**24 + 7])
    def test_is_prime_known_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize(
        "n, factors",
        [
            (561, (3, 11, 17)),  # Carmichael
            (2**67 - 1, (193707721, 761838257287)),  # Mersenne composite
            (2047, (23, 89)),  # strong pseudoprime to base 2
            (3215031751, (151, 751, 28351)),  # strong to bases 2, 3, 5, 7
            (3825123056546413051, (149491, 747451, 34233211)),  # bases 2..23
            (318665857834031151167461, (399165290221, 798330580441)),  # bases 2..37
        ],
    )
    def test_is_prime_rejects_strong_pseudoprimes(self, n, factors):
        assert math.prod(factors) == n
        assert not is_prime(n)

    def test_is_prime_refuses_beyond_certified_bound(self):
        # The bound is itself a strong pseudoprime to all 13 bases.
        assert PRIME_BOUND == 1287836182261 * 2575672364521
        with pytest.raises(SpecError, match=f"primality of {PRIME_BOUND} is not certified"):
            is_prime(PRIME_BOUND)
        assert not is_prime(3 * PRIME_BOUND)  # a small factor still decides

    def test_goldbach_pair_sums_to_target(self):
        for k in range(3, 120):
            q, r = goldbach_pair(k)
            assert is_prime(q) and is_prime(r) and q <= r
            assert q + r == 2 * k - next_prime(k) + 3

    def test_ceil_div(self):
        spec = parse_spec(
            "system t { mode eco; axiom 1;"
            " rule always: (ceil_div(k, 2)) x k-1, (k+1) x 1; }"
        )
        assert dict(successors_of(spec, 5)) == {3: 4, 6: 1}
        assert dict(successors_of(spec, 4)) == {2: 3, 5: 1}

    def test_eval_expr_affine(self):
        spec = parse_spec(
            "system t { mode eco; axiom 1; rule always: (3*k+6) x k; }"
        )
        item = spec.clauses[0].items[0]
        assert eval_expr(item.label, 7) == 27


class TestRoundTrips:
    @pytest.mark.parametrize("text", [CATALAN, FIB])
    def test_text_roundtrip(self, text):
        spec = parse_spec(text)
        again = parse_spec(spec_to_text(spec))
        for k in range(1 if spec.mode == "eco" else 0, 40):
            try:
                a = successors_of(spec, k)
            except SpecError:
                continue
            assert a == successors_of(again, k)

    def test_json_roundtrip_is_byte_stable(self):
        spec = parse_spec(CATALAN)
        blob = to_canonical_json(spec)
        again = from_canonical_json(blob)
        assert to_canonical_json(again) == blob

    def test_json_rejects_wrong_schema(self):
        with pytest.raises(SpecError):
            from_canonical_json('{"schema": "other/9"}')

    @pytest.mark.parametrize("entry", ENTRIES, ids=[e.name for e in ENTRIES])
    def test_catalog_json_roundtrip_is_byte_stable(self, entry):
        blob = to_canonical_json(entry.spec())
        assert to_canonical_json(from_canonical_json(blob)) == blob


# A canonical document with an item, a ge atom and an interval.
JSON_BASE = {
    "schema": "ecospec/1", "name": "t", "mode": "eco", "axiom": 1,
    "clauses": [{
        "guard": [{"kind": "ge", "c": 1}],
        "items": [{"label": {"affine": [1, 1]}, "mult": {"const": 1}}],
        "intervals": [{"lo": {"const": 1}, "hi": {"affine": [1, 0]}, "step": 1, "minus": []}],
    }],
}
DROP = object()
ITEM = ("clauses", 0, "items", 0)
INTERVAL = ("clauses", 0, "intervals", 0)


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param(("clauses",), [1], id="clause-not-object"),
        pytest.param(("clauses",), [], id="no-clauses"),
        pytest.param(("clauses",), {}, id="clauses-not-list"),
        pytest.param(("clauses", 0, "items"), [1], id="item-not-object"),
        pytest.param(("clauses", 0, "guard"), {"kind": "ge", "c": 1}, id="guard-not-list"),
        pytest.param((*ITEM, "mult"), DROP, id="item-without-mult"),
        pytest.param((*ITEM, "label"), DROP, id="item-without-label"),
        pytest.param(("clauses", 0, "guard", 0, "c"), DROP, id="ge-without-c"),
        pytest.param(("clauses", 0, "guard", 0), {"kind": "mod", "m": True, "r": 0}, id="bool-modulus"),
        pytest.param(("clauses", 0, "guard", 0), {"kind": "prime", "negated": 1}, id="int-negated"),
        pytest.param(("name",), 5, id="int-name"),
        pytest.param(("axiom",), "a", id="string-axiom"),
        pytest.param(("axiom",), 2.7, id="float-axiom"),
        pytest.param(("axiom",), True, id="bool-axiom"),
        pytest.param((*ITEM, "label", "affine"), [1], id="short-affine"),
        pytest.param((*ITEM, "label", "affine"), ["1", 0], id="string-affine"),
        pytest.param((*ITEM, "mult", "const"), 2.9, id="float-const"),
        pytest.param((*ITEM, "mult", "const"), True, id="bool-const"),
        pytest.param((*ITEM, "label"), {"builtin": ["pow"], "args": []}, id="list-builtin"),
        pytest.param((*ITEM, "label"), {"builtin": "pow2", "args": {}}, id="args-not-list"),
        pytest.param((*INTERVAL, "step"), 1.0, id="float-step"),
        pytest.param((*INTERVAL, "hi"), DROP, id="interval-without-hi"),
        pytest.param((*INTERVAL, "minus"), [7], id="bad-minus"),
    ],
)
def test_malformed_json_raises_spec_error(path, value):
    doc = json.loads(json.dumps(JSON_BASE))
    assert from_canonical_json(json.dumps(doc)).axiom == 1
    *head, key = path
    node = doc
    for part in head:
        node = node[part]
    if value is DROP:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(SpecError):
        from_canonical_json(json.dumps(doc))


def test_deeply_nested_json_raises_spec_error():
    # The JSON decoder gives up on deep nesting with RecursionError.
    label = '{"builtin": "next_prime", "args": [' * 5000 + '{"const": 1}' + "]}" * 5000
    doc = json.dumps(JSON_BASE).replace('{"affine": [1, 1]}', label)
    assert label in doc
    with pytest.raises(SpecError):
        from_canonical_json(doc)


class TestValidation:
    def test_valid_systems_pass(self):
        for text in (CATALAN, FIB):
            report = validate_spec(parse_spec(text))
            assert report.ok, report

    def test_open_tail_clause_deferred_when_labels_finite(self):
        # Only labels 1 and 2 occur; the k >= 2 clause is off-law for k > 2
        # but that region is unreachable, so validation relies on the sweep.
        report = validate_spec(parse_spec(FIB))
        assert report.ok
        assert any("deferred" in line for line in report.clause_symbolic)

    def test_reachable_violation_fails_even_with_finite_labels(self):
        bad = parse_spec(
            "system t { mode eco; axiom 1; rule k <= 1: (1) x 2; }"
        )
        report = validate_spec(bad)
        assert not report.ok
        assert any(i.kind == "arity" for i in report.issues)

    def test_eco_arity_violation_detected(self):
        # Label k gets k+1 successors: breaks the eco arity law.
        bad = parse_spec(
            "system t { mode eco; axiom 1; rule always: (k+1) x k, (1) x 1; }"
        )
        report = validate_spec(bad)
        assert not report.ok

    def test_guard_gap_detected(self):
        gappy = parse_spec(
            "system t { mode eco; axiom 1;"
            " rule k <= 3: (k+1) x k; rule k >= 5: (k) x k; }"
        )
        report = validate_spec(gappy)
        assert not report.ok

    def test_walk_mode_allows_label_zero(self):
        spec = parse_spec(
            "system t { mode walk; axiom 0; rule always: (0) x 1, (k+1) x 1; }"
        )
        assert validate_spec(spec).ok

    def test_closure_stops_at_the_label_floor(self):
        down = parse_spec("system down { mode walk; axiom 1; rule always: (k-1) x 2; }")
        assert _reachable_closure(down, 200, describer(down)) == (
            [0, 1], Issue("label-range", "label -1 is below the label floor 0", -1)
        )
        report = validate_spec(down)
        assert [(i.kind, i.message) for i in report.issues] == [
            ("label-range", "label 0 produces label -1")
        ]

    def test_closure_builds_only_its_first_stop(self, monkeypatch):
        # Labels beyond the probe are listed by many labels below it; each is
        # popped once, and an Issue is built for the first stop only.
        built = []

        def counted(kind, message, k):
            built.append(k)
            return Issue(kind, message, k)

        monkeypatch.setattr(dsl, "Issue", counted)
        for entry in ENTRIES:
            spec = entry.spec()
            for probe in (dsl.PROBE, 7):
                built.clear()
                reach, stop = _reachable_closure(spec, probe, describer(spec))
                assert built == ([] if stop is None else [stop.k]), (entry.name, probe)
                assert reach == sorted(set(reach)) and all(k <= probe for k in reach)

    def test_match_clause_requires_unique_guard(self):
        overlapping = parse_spec(
            "system t { mode eco; axiom 1;"
            " rule k <= 3: (k+1) x k; rule k >= 3: (k) x k; }"
        )
        with pytest.raises(SpecError):
            match_clause(overlapping, 3)
