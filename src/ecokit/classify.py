"""Structural analysis of rewriting systems.

Each criterion here inspects the rule set itself, not the numbers it
produces, and emits a closed-form generating function when the structure
supports one:

* finite label set          -> shortest recurrence of the level totals, of
                               length at most the label count, fitted to
                               the naive engine's totals and re-checked
                               against the range engine's;
* affine label sum          -> order-2 rational form (child-count mode only);
* parity-split label sum    -> order-3 rational form;
* interval-plus-jumps shape -> walk form and kernel readiness, from `kernel`;
* bounded-plus-jumps shape  -> flagged, rational form fitted and re-verified;
* linear label growth       -> slope certificate for the propagation bound;
* shrinking-return count    -> zero-radius divergence certificate.

Symbolic arguments work per residue class of the label, which keeps every
piece affine.  One evaluator, `dsl.class_view`, turns a clause into its view
on a class, and each detector folds one weight over that view: the label sum,
the odd-label count, or the successors at or above k - b (the arity check in
`dsl.validate_spec` folds the count).  Anything outside that fragment yields
an honest "none" or "inconclusive", with the reason in the note, rather than
a claim.  Every closed form is re-expanded and compared against direct
propagation before it is reported.  The child-count formulas (finite
labels, affine and parity-split label sums in eco mode) assume that a
label k has k successors, so each first checks that on every reachable
label (`_check_arity`).

A report walks the reachable labels once, with `dsl._reachable_closure` to
`dsl.PROBE`: the label set counts as finite exactly when that walk
completes, and the numeric checks read its labels.  The walk pushes each
label's successor labels straight from its description's points and runs,
so no label's multiset is expanded to find them.  Those checks fold each
label's concrete successor description (`dsl.describe`), never a class view,
so they stay an independent check of the symbolic folds; each fold costs
the size of the description, not the number of successors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .dsl import (
    F0,
    PROBE,
    ClassView,
    SpecError,
    _arity,
    _at_or_above,
    _item_text,
    _label_sum,
    _odd_count,
    _reachable_closure,
    class_view,
    describer,
    expr_affine,
    expr_quotient,
    expr_text,
    residue_split,
)
from .engine import LABEL_CAP, count_levels, total_series
from .errors import ClassifyError
from .guess import guess_rational, shortest_recurrence
# The walk form lives in `kernel`; its names stay importable from here.
from .kernel import FORM_CHECK_TO, WalkForm, _kernel_obstacle, _walk_shape, factorial_form
from .qpoly import QPoly
from .ratfunc import RatFunc


class ClosureError(SpecError):
    """The reachable closure met a label that rules the spec out: one below
    the label floor, or one with too many successors to expand.  `issue` is
    the closure's stop."""

    def __init__(self, issue):
        super().__init__(issue.message)
        self.issue = issue


# ---------------------------------------------------------------------------
# Reachable labels and the finite-label closed form


def _closure(spec):
    """(describe, reachable labels up to PROBE, stop): one cached describer
    and one walk of `dsl._reachable_closure`, shared by a whole report."""
    describe_at = cache(describer(spec))
    return describe_at, *_reachable_closure(spec, PROBE, describe_at)


def _check_arity(closure):
    """ClassifyError unless each reachable label k of `closure` has k
    successors, as every child-count formula needs."""
    describe_at, reach, _ = closure
    for k in reach:
        if _arity(describe_at(k)) != k:
            raise ClassifyError(f"label {k} does not have {k} successors")


def rational_from_finite(spec, closure=None):
    """Exact totals generating function when finitely many labels occur.

    With d reachable labels, the level totals are u^T M^n v for the d x d
    transfer matrix M, M[j][k] being the k-successors of a node labeled j,
    so by Cayley-Hamilton they satisfy a recurrence of length at most d.
    The shortest one, found from 2d totals of the naive engine, is
    therefore the exact generating function; it is re-expanded and checked
    against the range engine before returning.  In child-count mode every
    label j must have j successors.  `closure` is a report's
    `_closure(spec)`, walked here when not given.
    """
    closure = closure or _closure(spec)
    _, ordered, stop = closure
    if stop is not None:
        raise ClassifyError(f"label set not finite within probe: {stop.message}")
    if spec.mode == "eco":
        _check_arity(closure)
    d = len(ordered)
    total = shortest_recurrence(total_series(spec, 2 * d, method="naive"), d)
    if total is None:
        raise ClassifyError(f"level totals need a recurrence longer than {d} labels")
    check = 2 * max(total.num.degree, total.den.degree, 1) + 5
    if tuple(total.expand(check).as_ints()) != tuple(total_series(spec, check)):
        raise ClassifyError("finite-label solve disagrees with propagation")
    return total


# ---------------------------------------------------------------------------
# Residue-class view of the rule tail


def _tail_views(spec):
    """Split large labels into residue classes, each owned by one clause.

    Returns (modulus, [(residue, ClassView or None, reason)]), the list
    empty when every clause is bounded, or (None, reason) when the tail
    resists this splitting (pow2/prime guards, overlapping or missing
    coverage).
    """
    for clause in spec.clauses:
        kinds = {a.kind for a in clause.guard.atoms}
        if "le" not in kinds and kinds & {"pow2", "prime"}:
            return None, "pow2/prime guard on an open-ended clause"
    modulus, split = residue_split(spec.clauses, 2)
    views = []
    for r, owners in split:
        if len(owners) != 1:
            return None, f"{len(owners)} open-ended clauses own k = {r} mod {modulus}"
        views.append((r, *class_view(owners[0], modulus, r)))
    return modulus, views


# ---------------------------------------------------------------------------
# Affine label sum -> order-2 rational form


@dataclass(frozen=True)
class AffineSigma:
    """Witness that the successor label sum is alpha*k + beta on every
    reachable label."""

    alpha: Fraction
    beta: Fraction


def _class_values(modulus, views, fold, weight):
    """{residue: fold(view)} over the tail classes, or (None, reason)."""
    values = {}
    for r, view, why in views:
        value, why = (None, why) if view is None else fold(view)
        if value is None:
            return None, f"{weight} not affine on k = {r} mod {modulus}: {why}"
        values[r] = value
    return values, ""


def _affine_sigma(spec, closure):
    """(AffineSigma, "") for the spec, or (None, reason).

    Proved symbolically on each tail residue class and then checked exactly
    on every reachable label of `closure` (which also covers the labels that
    only bounded clauses reach).
    """
    describe_at, reach, stop = closure
    modulus, views = _tail_views(spec)
    if modulus is None:
        return None, views
    if views:
        sums, why = _class_values(modulus, views, ClassView.label_sum, "label sum")
        if sums is None:
            return None, why
        if len(set(sums.values())) != 1:
            return None, "label sum differs between residue classes"
        alpha, beta = sums[0]
    elif stop is not None:
        return None, f"every clause is bounded, yet {stop.message}"
    else:
        # Fit through the two lowest reachable labels, or the only one.
        k0, k1 = reach[0], reach[min(1, len(reach) - 1)]
        s0, s1 = (Fraction(_label_sum(describe_at(k))) for k in (k0, k1))
        if k1 == k0:
            alpha = s0 / k0 if k0 else F0
        else:
            alpha = (s1 - s0) / (k1 - k0)
        beta = s0 - alpha * k0
    for k in reach:
        if _label_sum(describe_at(k)) != alpha * k + beta:
            return None, f"label {k} breaks the label sum {alpha}*k + {beta}"
    return AffineSigma(alpha, beta), ""


def rational_gf_affine(witness, s0):
    """Totals generating function under an affine label sum, for systems in
    child-count mode (next level's node count equals this level's label sum):
    (1 + (s0 - alpha) z) / (1 - alpha z - beta z^2)."""
    num = QPoly([Fraction(1), Fraction(s0) - witness.alpha])
    den = QPoly([Fraction(1), -witness.alpha, -witness.beta])
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# Parity-split label sum -> order-3 rational form


@dataclass(frozen=True)
class ParityWitness:
    """Label sum alpha*k + beta_even / beta_odd by label parity, with a fixed
    number of odd labels on every right-hand side."""

    alpha: Fraction
    beta_even: Fraction
    beta_odd: Fraction
    odd_per_rule: int
    s0: int
    s1: int


def _parity_affine(spec, closure):
    """(ParityWitness, "") for the spec, or (None, reason) (child-count mode
    only)."""
    describe_at, reach, _ = closure
    if spec.mode != "eco":
        return None, "child-count mode only"
    modulus, views = _tail_views(spec)
    if modulus is None or not views:
        return None, views or "every clause is bounded"
    sums, why = _class_values(modulus, views, ClassView.label_sum, "label sum")
    if sums is None:
        return None, why
    odds, why = _class_values(modulus, views, ClassView.odd_count, "odd-label count")
    if odds is None:
        return None, why
    if any(slope for slope, _ in odds.values()):
        return None, "odd-label count grows with k"
    alphas = {alpha for alpha, _ in sums.values()}
    betas = [{beta for r, (_, beta) in sums.items() if r % 2 == p} for p in (0, 1)]
    odd_counts = {c for _, c in odds.values()}
    if any(len(values) != 1 for values in (alphas, *betas, odd_counts)):
        return None, "label sum or odd-label count is not fixed by label parity"
    m = odd_counts.pop()
    if m.denominator != 1 or m < 0:
        return None, f"odd-label count {m} is not a nonnegative integer"
    witness = ParityWitness(
        alphas.pop(),
        betas[0].pop(),
        betas[1].pop(),
        int(m),
        spec.axiom,
        _label_sum(describe_at(spec.axiom)),
    )
    for k in reach:
        desc = describe_at(k)
        want = witness.alpha * k + (witness.beta_odd if k % 2 else witness.beta_even)
        if _label_sum(desc) != want:
            return None, f"label {k} breaks the parity-split label sum"
        if _odd_count(desc) != witness.odd_per_rule:
            return None, f"label {k} breaks the odd-label count {m}"
    return witness, ""


def rational_gf_parity(w):
    """Totals generating function under a parity-split affine label sum:
    the three-term recurrence the split induces, solved in closed form."""
    num = QPoly(
        [
            Fraction(1),
            Fraction(w.s0) - w.alpha,
            Fraction(w.s1) - w.alpha * w.s0 - w.beta_even,
        ]
    )
    den = QPoly(
        [
            Fraction(1),
            -w.alpha,
            -w.beta_even,
            -w.odd_per_rule * (w.beta_odd - w.beta_even),
        ]
    )
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# Bounded-plus-jumps shape (flag only; rational form comes from fitting)


@dataclass(frozen=True)
class BoundedPlusJumps:
    """Every right-hand side is bounded labels plus the same fixed upward
    jumps; `bound` caps the axiom and every non-jump label."""

    jumps: tuple
    bound: int


def _bounded_plus_jumps(spec):
    """(BoundedPlusJumps, "") for the spec, or (None, reason) (child-count
    mode only)."""
    if spec.mode != "eco":
        return None, "child-count mode only"
    shared = None
    bound = spec.axiom
    for clause in spec.clauses:
        jumps = Counter()
        for item in clause.items:
            la = expr_affine(item.label)
            mu = expr_affine(item.mult)
            if la is None or mu is None:
                return None, f"item {_item_text(item)} is not affine"
            a, t = la
            if a == 0:
                bound = max(bound, t)
            elif a == 1 and t >= 1 and mu[0] == 0 and mu[1] >= 1:
                jumps[t] += mu[1]
            else:
                return None, f"item {_item_text(item)}: not bounded, not a fixed jump"
        for iv in clause.intervals:
            lo = expr_affine(iv.lo)
            hi = expr_affine(iv.hi)
            if lo is None or hi is None or lo[0] != 0 or hi[0] != 0:
                span = f"{expr_text(iv.lo)}..{expr_text(iv.hi)}"
                return None, f"interval {span} moves with k"
            bound = max(bound, hi[1])
        key = tuple(sorted(jumps.elements()))
        if shared is None:
            shared = key
        elif shared != key:
            return None, "clauses jump by different amounts"
    if not shared:
        return None, "no upward jumps"
    return BoundedPlusJumps(shared, bound), ""


# ---------------------------------------------------------------------------
# Linear label growth


@dataclass(frozen=True)
class LinearBound:
    certified: bool
    slope: int | None = None
    reason: str = ""


def linear_bound_check(spec):
    """Certify that labels grow at most linearly with the level.

    The certificate is a constant cap on every upward jump; label doubling,
    prime-stepping and other unbounded jumps come back uncertified."""
    best = 0
    for clause in spec.clauses:
        for item in clause.items:
            la = expr_affine(item.label)
            if la is None:
                quo = expr_quotient(item.label)
                if quo is None or quo[0] != 1 or quo[2] < 2:
                    return LinearBound(False, reason=f"{expr_text(item.label)} has no jump cap")
                best = max(best, quo[1], 0)
            else:
                a, t = la
                if a >= 2:
                    why = f"{expr_text(item.label)} outgrows k"
                    return LinearBound(False, reason=why)
                if a == 1:
                    best = max(best, t)
        for iv in clause.intervals:
            hi = expr_affine(iv.hi)
            if hi is None or hi[0] >= 2:
                why = f"interval top {expr_text(iv.hi)} outgrows k"
                return LinearBound(False, reason=why)
            if hi[0] == 1:
                best = max(best, hi[1])
    return LinearBound(True, max(best, 0))


# ---------------------------------------------------------------------------
# Zero-radius certificate

BACK_WIDTHS = (0, 1, 2, 3)  # the back widths b tried, in order


@dataclass(frozen=True)
class RadiusVerdict:
    """Result of the shrinking-return test.

    `holds` certifies that, counting successors landing at or above k - b
    (b = back_width), every rule keeps at least slope*k + O(1) of them, a
    count that never decreases and grows without bound; totals then outgrow
    every exponential and the totals series has zero radius of convergence.
    """

    holds: bool
    back_width: int | None
    slope: Fraction | None
    classes: tuple
    probe: tuple
    reason: str


def _radius_zero(spec, closure):
    """The RadiusVerdict of the shrinking-return test, sweeping back_width
    over BACK_WIDTHS.  "Does not hold" is an inconclusive verdict, never a
    claim of a positive radius."""
    describe_at, labels, _ = closure
    descs = [describe_at(k) for k in labels]
    no_fwd = [k for k, desc in zip(labels, descs) if not _at_or_above(desc, k + 1)]
    if no_fwd:
        return RadiusVerdict(
            False, None, None, (), (), f"no forward jump from label {no_fwd[0]}"
        )
    modulus, views = _tail_views(spec)
    if modulus is None or not views:
        return RadiusVerdict(
            False, None, None, (), (), "tail structure not symbolically tractable"
        )
    verdict = None
    for b in BACK_WIDTHS:
        verdict = _radius_for_width(modulus, views, labels, descs, b)
        if verdict.holds:
            return verdict
    return verdict


def _radius_for_width(modulus, views, labels, descs, b):
    tally = tuple((k, _at_or_above(desc, k - b)) for k, desc in zip(labels, descs))
    shown = tally[:12]
    if any(m2 < m1 for (_, m1), (_, m2) in zip(tally, tally[1:])):
        return RadiusVerdict(
            False, b, None, (), shown, "return count decreases on probed labels"
        )
    by_residue = {}
    descriptions = []
    for r, view, _ in views:
        got = None if view is None else view.at_or_above(b)[0]
        if got is None:
            return RadiusVerdict(
                False, b, None, (), shown, "return count not symbolically affine"
            )
        # A forward jump is a successor at or above k + 1.
        fwd_slope, fwd_inter, _ = view.at_or_above(-1)[0]
        if fwd_slope < 0 or (fwd_slope == 0 and fwd_inter < 1):
            return RadiusVerdict(
                False, b, None, (), shown, "no certified forward jump in the tail"
            )
        slope, inter, threshold = got
        by_residue[r] = got
        descriptions.append(
            f"k = {r} mod {modulus}: at least {slope}*k + {inter} "
            f"returns (k >= {threshold})"
        )
    slopes = {slope for slope, _, _ in by_residue.values()}
    if len(slopes) != 1:
        return RadiusVerdict(
            False, b, None, tuple(descriptions), shown, "class growth rates differ"
        )
    slope = slopes.pop()
    if slope <= 0:
        return RadiusVerdict(
            False, b, slope, tuple(descriptions), shown, "return count stays bounded"
        )
    start = max(th for _, _, th in by_residue.values())
    window = []
    for k in range(start, start + 2 * modulus + 3):
        s, i, _ = by_residue[k % modulus]
        value = s * k + i
        if value.denominator != 1:
            raise ClassifyError("non-integer symbolic return count")
        window.append(int(value))
    if any(b2 < b1 for b1, b2 in zip(window, window[1:])):
        return RadiusVerdict(
            False, b, slope, tuple(descriptions), shown,
            "certified bound dips across residue classes",
        )
    # m < s*k + i, cleared of the denominators: m*sd*id < sn*id*k + in*sd.
    bounds = {
        r: (s.denominator * i.denominator, s.numerator * i.denominator, i.numerator * s.denominator)
        for r, (s, i, _) in by_residue.items()
    }
    for k, m in tally:
        if k >= start:
            den, a, c = bounds[k % modulus]
            if m * den < a * k + c:
                raise ClassifyError("symbolic return bound exceeds the exact count")
    return RadiusVerdict(
        True,
        b,
        slope,
        tuple(descriptions),
        shown,
        "return count is nondecreasing and grows without bound",
    )


# ---------------------------------------------------------------------------
# Aggregate report


def _coeff_json(c):
    return int(c) if c.denominator == 1 else str(c)


def _ratfunc_json(rf):
    return {
        "numerator": [_coeff_json(c) for c in rf.num.coeffs],
        "denominator": [_coeff_json(c) for c in rf.den.coeffs],
        "text": rf.to_str(),
    }


def _jsonable(value):
    if isinstance(value, Fraction):
        return _coeff_json(value)
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class CriterionResult:
    criterion: str
    verdict: str
    witness: dict = field(default_factory=dict)
    closed_form: RatFunc | None = None
    note: str = ""

    def to_json_obj(self):
        obj = {"criterion": self.criterion, "verdict": self.verdict}
        if self.witness:
            obj["witness"] = _jsonable(self.witness)
        if self.closed_form is not None:
            obj["closed_form"] = _ratfunc_json(self.closed_form)
        if self.note:
            obj["note"] = self.note
        return obj


@dataclass
class ClassificationReport:
    name: str
    mode: str
    axiom: int
    results: list
    closed_form: RatFunc | None
    closed_form_source: str | None
    overall: str
    series: tuple
    budget: tuple | None = None  # engine stats["budget"] when it stopped short

    def to_json_obj(self):
        obj = {
            "name": self.name,
            "mode": self.mode,
            "axiom": self.axiom,
            "overall": self.overall,
            "closed_form": None
            if self.closed_form is None
            else _ratfunc_json(self.closed_form),
            "closed_form_source": self.closed_form_source,
            "series": list(self.series),
        }
        if self.budget:
            obj["partial"] = dict([self.budget], level=len(self.series) - 1)
        obj["criteria"] = [r.to_json_obj() for r in self.results]
        return obj

    def summary(self):
        lines = [f"{self.name}: {self.overall}"]
        if self.closed_form is not None:
            lines.append(
                f"  F(z) = {self.closed_form.to_str()}  [{self.closed_form_source}]"
            )
        for r in self.results:
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"  {r.criterion}: {r.verdict}{note}")
        lines.append("  series: " + ", ".join(str(t) for t in self.series[:10]))
        return "\n".join(lines)


def build_report(spec, order=30):
    """Evaluate every criterion on the spec and bundle the verdicts.

    The reachable closure is walked once, to PROBE, and every detector reads
    it: the label set is finite exactly when the walk completes.  Any closed
    form is re-expanded to `order` terms and compared with direct
    propagation before it enters the report.  Systems whose label support
    widens exponentially get a shorter series (propagation capped at
    LABEL_CAP labels, or at the naive route's pair budget), with `budget`
    naming the budget that fired; their closed forms, when any exist, are
    checked on what was computed.
    Raises ClosureError, before any propagation, when the reachable closure
    falls below the label floor or meets a label too wide to expand.
    """
    closure = _closure(spec)
    _, reach, stop = closure
    if stop is not None and stop.kind in ("label-range", "width"):
        raise ClosureError(stop)
    table = count_levels(spec, max(order, 1) - 1, max_labels=LABEL_CAP)
    series = tuple(table.totals[:order])
    results = []
    closed = source = None

    def add(criterion, verdict, witness=None, rf=None, note=""):
        # Every closed form is checked against propagation; the first one
        # found becomes the report's.
        nonlocal closed, source
        if rf is not None:
            if tuple(rf.expand(len(series)).as_ints()) != series:
                raise ClassifyError("closed form disagrees with propagation")
            if closed is None:
                closed, source = rf, criterion
        results.append(CriterionResult(criterion, verdict, witness or {}, rf, note))

    if stop is None:
        add("finite-labels", "holds", {"labels": reach}, rational_from_finite(spec, closure))
    else:
        add("finite-labels", "none", note=stop.message)

    aw, why = _affine_sigma(spec, closure)
    if aw is None:
        add("affine-label-sum", "none", note=why)
    else:
        witness = {"alpha": aw.alpha, "beta": aw.beta}
        if spec.mode == "eco":
            _check_arity(closure)
            add("affine-label-sum", "holds", witness, rational_gf_affine(aw, spec.axiom))
        else:
            note = "no totals formula outside child-count mode"
            add("affine-label-sum", "holds", witness, note=note)

    pw, why = _parity_affine(spec, closure)
    if pw is None:
        add("parity-label-sum", "none", note=why)
    else:
        witness = {k: getattr(pw, k) for k in ("alpha", "beta_even", "beta_odd", "odd_per_rule")}
        _check_arity(closure)
        add("parity-label-sum", "holds", witness, rational_gf_parity(pw))

    form, why = factorial_form(spec, why=True)
    if form is None:
        add("interval-walk-shape", "none", note=why)
    else:
        why = _kernel_obstacle(form)
        note = f"recognized, but {why}" if why else "algebraic route applies"
        add("interval-walk-shape", "holds", form.to_json_obj(), note=note)
    kernel_ready = form is not None and why is None

    bj, why = _bounded_plus_jumps(spec)
    if bj is None:
        add("bounded-plus-jumps", "none", note=why)
    else:
        note = ""
        fit = None
        if closed is None:
            need = 2 * 8 + 10 + 2
            terms = (
                series
                if len(series) >= need
                else tuple(total_series(spec, need, max_labels=LABEL_CAP))
            )
            fit = guess_rational(terms, 8, 10) if len(terms) >= need else None
            note = (
                "no rational fit within degree 8"
                if fit is None
                else f"rational form fitted from {len(terms)} terms, "
                f"{fit.verified_terms} beyond the fitting window"
            )
        witness = {"jumps": list(bj.jumps), "bound": bj.bound}
        add("bounded-plus-jumps", "holds", witness, fit.func if fit else None, note)

    lb = linear_bound_check(spec)
    witness = {"slope": lb.slope} if lb.certified else {}
    add("linear-label-growth", "holds" if lb.certified else "none", witness, note=lb.reason)

    rz = _radius_zero(spec, closure)
    if rz.holds:
        witness = {
            "back_width": rz.back_width,
            "slope": rz.slope,
            "classes": rz.classes,
            "probe": rz.probe,
        }
        add("zero-radius", "holds", witness, note=rz.reason)
    else:
        add("zero-radius", "inconclusive", note=rz.reason)

    if closed is not None:
        overall = "rational"
    elif kernel_ready:
        overall = "algebraic-candidate"
    elif rz.holds:
        overall = "zero-radius"
    else:
        overall = "inconclusive"
    return ClassificationReport(
        name=spec.name,
        mode=spec.mode,
        axiom=spec.axiom,
        results=results,
        closed_form=closed,
        closed_form_source=source,
        overall=overall,
        series=series,
        budget=table.stats.get("budget"),
    )
