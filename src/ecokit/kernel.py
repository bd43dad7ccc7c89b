"""Algebraic generating functions for interval-plus-jumps walks.

A walk in this shape (step to any lower height, a few notches near the top
excluded, plus fixed jumps) satisfies one functional equation whose kernel
K(z,u) is quadratic-free in z: K = K0(u) + z*K1(u).  The b+1 branches of
K = 0 that stay finite at z = 0 collect into a monic factor S(z,u) of degree
b+1 in u, and the full bivariate count is F(z,u) = -S/K.  Everything here is
exact:

* factorial_form recognizes a spec's walk form; _kernel_obstacle, the one
  readiness test of build_kernel and `classify`, says why a form is refused;
* build_kernel assembles K from the walk form and checks its shape;
* kernel_gfs extracts S by one Hensel lift for every b, reads off
  F(z,1) = -S(z,1)/z, expands -S/K row by row for F(z,u) and the excursion
  column F(z,0), and cross-checks the rows against F(z,1);
* closed_form_check compares a series against a closed form: a square-root
  expression ("sqrt", num, disc, den) or the relation ("power", m).

Guards raise KernelError; a negative or fractional walk count anywhere means
the form was mis-detected, never a warning to ignore.  The walk-form
functions import `dsl` when they run, so the closed-form text loads no parser.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .errors import KernelError
from .qpoly import QPoly, _exact_all
from .series import TruncSeries, UPoly, hensel_small_factor


@dataclass(frozen=True)
class KernelPoly:
    """The kernel K(z,u) of a walk's functional equation plus its shape data:
    jump multiset, notch offsets, largest jump a, boundary width b, and the
    multiplicity p_a of the largest jump."""

    K: UPoly
    p_a: int
    jumps: tuple
    notches: tuple
    a: int
    b: int

    def to_json_obj(self):
        return {
            "z0": [str(c) for c in self.K.z_slice(0).coeffs],
            "z1": [str(c) for c in self.K.z_slice(1).coeffs],
            "jumps": list(self.jumps),
            "notches": list(self.notches),
            "a": self.a,
            "b": self.b,
            "p_a": str(self.p_a),
        }


def build_kernel(form, order=32):
    """Kernel polynomial for a walk form.

    K(z,u) = u^b (1-u) + z u^b - z (1-u) sum_j p_j u^(j+b)
                                + z (1-u) sum_d u^(b-d)
    over jumps j with multiplicity p_j and notch offsets d; b clears every
    negative power.  Raises KernelError with `_kernel_obstacle`'s reason.
    """
    if why := _kernel_obstacle(form):
        raise KernelError(why)
    a, b = form.max_jump, form.back_width
    one_minus_u = QPoly([1, -1])
    k0 = QPoly([0] * b + [1, -1])
    jump_sum = QPoly.zero()
    for j in form.jumps:
        jump_sum = jump_sum + QPoly([0] * (j + b) + [1])
    notch_sum = QPoly.zero()
    for d in form.removed_offsets:
        notch_sum = notch_sum + QPoly([0] * (b - d) + [1])
    k1 = QPoly([0] * b + [1]) - one_minus_u * jump_sum + one_minus_u * notch_sum
    kp = UPoly.from_z_slices([k0, k1], order)
    if kp.degree_u != a + b + 1:
        raise KernelError(f"kernel degree {kp.degree_u}, expected {a + b + 1}")
    p_a = form.jumps.count(a)
    top = kp.coeffs[a + b + 1]
    if top != TruncSeries.from_poly([0, p_a], order):
        raise KernelError("kernel top coefficient is not p_a * z")
    if kp.z_slice(0) != k0:
        raise KernelError("kernel constant slice is not u^b (1-u)")
    return KernelPoly(
        K=kp,
        p_a=p_a,
        jumps=form.jumps,
        notches=tuple(sorted(form.removed_offsets)),
        a=a,
        b=b,
    )


@dataclass(frozen=True)
class GFResult:
    """Series extracted from one kernel: all walks F1 = F(z,1), excursions
    F0 = F(z,0), the height columns Fu[k] = [u^k] F(z,u), the small factor,
    and which printed excursion formula the computed column matched."""

    F1: TruncSeries
    F0: TruncSeries
    Fu: list
    small_factor: UPoly
    kernel: KernelPoly
    excursion_variant: str


def _divide_rows(kp, small, order):
    """Yield the rows f_n(u) of F = -S/K from K0 f_n = -S_n - K1 f_{n-1},
    keeping only the previous row.

    K0 = u^b (1-u), so each row divides exactly: strip u^b (the low
    coefficients must vanish) and then peel (1-u) with a running sum whose
    final value must be zero.
    """
    k1 = kp.K.z_slice(1)
    b = kp.b
    row = None
    for n in range(order):
        rhs = -small.z_slice(n)
        if n > 0:
            rhs = rhs - k1 * row
        if rhs.is_zero():
            row = QPoly.zero()
        else:
            coeffs = list(rhs.coeffs)
            if any(coeffs[:b]):
                raise KernelError(f"row {n} not divisible by u^{b}")
            quotient = list(accumulate(coeffs[b:]))
            if quotient[-1] != 0:
                raise KernelError(f"row {n} not divisible by (1-u)")
            row = QPoly._of(_exact_all(quotient[:-1]))
        yield row


def kernel_gfs(kp, order=32, window=16):
    """All the generating functions one kernel yields, cross-verified.

    The small factor S comes from a Hensel lift, and F(z,1) = -S(z,1)/z is
    read off as a coefficient shift.  Every walk count must be a
    nonnegative integer, each row must sum to the matching F(z,1)
    coefficient, and the excursion column is reconciled against both printed
    single-formula variants.  The rows are checked and their low
    coefficients collected as they are divided, one row in memory at a time.
    """
    small, _ = hensel_small_factor(kp.K.truncate(order), kp.b, order)
    at_one = small.eval_scalar(1)
    if at_one[0] != 0:
        raise KernelError("small factor does not vanish at u = 1, z = 0")
    f1 = _over_z(at_one)
    f0, columns = [], [[] for _ in range(window + 1)]
    for n, row in enumerate(_divide_rows(kp, small, order)):
        for c in row.coeffs:
            if c.denominator != 1 or c < 0:
                raise KernelError(
                    f"negative or fractional walk count {c} at z^{n}"
                )
        if n < f1.order and row.eval(1) != f1[n]:
            raise KernelError(f"row {n} sum disagrees with F(z,1)")
        f0.append(row[0])
        for k, column in enumerate(columns):
            column.append(row[k])
    f0 = TruncSeries(f0)
    variant = _reconcile_excursions(kp, small, f0)
    return GFResult(
        F1=f1,
        F0=f0,
        Fu=[TruncSeries(column) for column in columns],
        small_factor=small,
        kernel=kp,
        excursion_variant=variant,
    )


def _over_z(s):
    """-s/z for a series s with s[0] = 0: its coefficients shifted down by one
    and negated, one order shorter."""
    return TruncSeries._of([-c for c in s.coeffs[1:]])


def _reconcile_excursions(kp, small, f0):
    """Which single-formula excursion variant reproduces the u^0 column:
    -S(z,0)/z, or -S(z,0) divided by the constant-term slice of K."""
    s_low = small.coeffs[0]
    matches = []
    if s_low[0] == 0:
        if _over_z(s_low).agrees_with(f0):
            matches.append("-S(z,0)/z")
    p0 = Counter(kp.jumps).get(0, 0)
    denom = TruncSeries.from_poly([1, 1 - p0], s_low.order)
    if (-s_low / denom).agrees_with(f0):
        matches.append("-S(z,0)/(1+(1-p0)z)")
    if not matches:
        return "neither printed variant"
    return " and ".join(matches)


# ---------------------------------------------------------------------------
# The walk form: interval-plus-jumps shape and kernel readiness


@dataclass(frozen=True)
class WalkForm:
    """Successor structure "interval up to k-1, with notches, plus jumps".

    A node labeled k has the successors {base..k-1}
                    minus {k-d : d in removed_offsets}
                    minus {base+c : c in removed_low}
                    plus the multiset {k+j : j in jumps}.

    Heights are labels shifted down by base, so walks start at start_height.
    """

    base: int
    jumps: tuple
    removed_offsets: frozenset
    removed_low: frozenset
    start_height: int

    @property
    def max_jump(self):
        return max(self.jumps) if self.jumps else None

    @property
    def back_width(self):
        """How far below the current label the structure can distinguish:
        the deepest notch or the deepest downward jump."""
        return max([0, *self.removed_offsets, *(-j for j in self.jumps if j < 0)])

    def to_json_obj(self):
        return {
            "base": self.base,
            "jumps": list(self.jumps),
            "removed_offsets": sorted(self.removed_offsets),
            "removed_low": sorted(self.removed_low),
            "start_height": self.start_height,
            "max_jump": self.max_jump,
            "back_width": self.back_width,
        }


def _form_description(form, k):
    """The walk form at a node labeled k as a `dsl.describe` description:
    the jumps as points and {base..k-1} less its notches as one step-1 run."""
    points = tuple((k + j, 1) for j in form.jumps)
    if form.base > k - 1:
        return points, ()
    removed = {k - d for d in form.removed_offsets}
    removed |= {form.base + c for c in form.removed_low}
    cuts = tuple(sorted(v for v in removed if form.base <= v < k))
    return points, ((form.base, k - 1, 1, cuts),)


def _add_differences(diff, desc, sign):
    """Add sign times the difference map j -> M[j] - M[j-1] of the multiset
    M that a description with step-1 runs lists: a point gives +m at j and
    -m at j+1, a run +1 at lo and -1 past last, a cut -1 at itself and +1
    past it.  Two multisets are equal exactly when their maps are."""
    get = diff.get
    points, runs = desc
    for j, m in points:
        diff[j] = get(j, 0) + sign * m
        diff[j + 1] = get(j + 1, 0) - sign * m
    for lo, last, _, cuts in runs:
        diff[lo] = get(lo, 0) + sign
        diff[last + 1] = get(last + 1, 0) - sign
        for c in cuts:
            diff[c] = get(c, 0) - sign
            diff[c + 1] = get(c + 1, 0) + sign


FORM_CHECK_TO = 100  # last label a recognized walk form is checked on


def factorial_form(spec, why=False):
    """Recognize the interval-plus-jumps shape, or None; with `why`, the pair
    (form, "") or (None, the reason the spec has no form).

    The single clause must expand one step-1 interval from a fixed base up
    to k plus a constant, minus constant labels or fixed-offset notches,
    together with fixed jumps of constant multiplicity.  The recognized form
    is checked against the spec for every guarded label up to FORM_CHECK_TO
    before it is returned: at each label the form's successor multiset and
    the clause's description are compared as difference maps, which costs
    O(jumps + notches + points + cuts) rather than O(k).
    """
    from .dsl import describe

    form, reason = _walk_shape(spec)
    if form is not None:
        clause = spec.clauses[0]  # the only one, guarding every k from here on
        floor = max([1 if spec.mode == "eco" else 0, *(a.c for a in clause.guard.atoms)])
        for k in range(floor, FORM_CHECK_TO + 1):
            diff = {}
            _add_differences(diff, _form_description(form, k), 1)
            _add_differences(diff, describe(clause, k), -1)
            if any(diff.values()):
                form, reason = None, "the recognized shape disagrees with the rules"
                break
    return (form, reason) if why else form


def _walk_shape(spec):
    """The unverified WalkForm the rule text spells out: (form, "") or
    (None, reason)."""
    from .dsl import _item_text, expr_affine, expr_text

    if len(spec.clauses) != 1:
        return None, f"{len(spec.clauses)} clauses, the shape needs one"
    clause = spec.clauses[0]
    if any(a.kind != "ge" for a in clause.guard.atoms):
        return None, "guard is more than a lower bound on k"
    if len(clause.intervals) != 1 or clause.intervals[0].step != 1:
        return None, "the shape needs exactly one step-1 interval"
    iv = clause.intervals[0]
    lo, hi = expr_affine(iv.lo), expr_affine(iv.hi)
    if lo is None or hi is None or lo[0] != 0 or hi[0] != 1 or lo[1] < 0:
        return None, "interval does not run from a fixed base up to k plus a constant"
    base, h = lo[1], hi[1]
    jumps = Counter(range(h + 1))
    offsets = set(range(1, -h)) if h < 0 else set()
    low = set()
    for e in iv.minus:
        aff = expr_affine(e)
        if aff is None or aff[0] not in (0, 1):
            return None, f"exclusion {expr_text(e)} is neither constant nor k+c"
        a, t = aff
        if a == 0:
            if t >= base:
                low.add(t - base)
        elif t >= 0:
            # A notch inside the top block cancels that jump slot; above
            # the block it never lands, so it is a no-op.
            if t <= h and jumps[t] > 0:
                jumps[t] -= 1
        else:
            offsets.add(-t)
    for item in clause.items:
        la, mu = expr_affine(item.label), expr_affine(item.mult)
        if la is None or mu is None or la[0] != 1 or mu[0] != 0 or mu[1] < 0:
            return None, f"item {_item_text(item)} is not a fixed jump from k"
        jumps[la[1]] += mu[1]
    start = spec.axiom - base
    if start < 0:
        return None, f"axiom {spec.axiom} lies below the interval base {base}"
    form = WalkForm(
        base=base,
        jumps=tuple(sorted(jumps.elements())),
        removed_offsets=frozenset(offsets),
        removed_low=frozenset(low),
        start_height=start,
    )
    return form, ""


def _kernel_obstacle(form):
    """Why the kernel route does not apply to a walk form, or None."""
    if form.removed_low:
        return "low exclusions are outside the kernel construction"
    if form.start_height != 0:
        return "kernel route needs the walk to start at height 0"
    if not form.jumps or form.max_jump < 1:
        return "no forward jump: the kernel is degenerate"
    return None


# ---------------------------------------------------------------------------
# Closed forms: ("sqrt", num, disc, den) is (num - sqrt(disc)) / den with
# coefficient-list polynomials in z, and ("power", m) is F = (1 + zF)^m.


def closed_form_text(form):
    """The printed form of a "sqrt" or "power" closed form."""
    if form[0] == "power":
        return f"F = (1+zF)^{form[1]}"
    _, num, disc, den = form
    return f"({QPoly(num).to_str()} - sqrt({QPoly(disc).to_str()}))/({QPoly(den).to_str()})"


def closed_form_series(form, order):
    """Expand a "sqrt" closed form to `order` terms."""
    if not form or form[0] != "sqrt":
        raise KernelError(f"not a square-root closed form: {form!r}")
    num, disc, den = (TruncSeries.from_poly(c, order + 2) for c in form[1:])
    return (num - disc.sqrt()) / den


def closed_form_check(form, f1):
    """Compare a computed series against a "sqrt" or "power" closed form.

    Square-root forms are expanded and compared coefficientwise; a power
    form is checked through its defining relation F = (1 + zF)^m.  Returns
    a verdict dict with the first mismatching index on failure.
    """
    order = f1.order
    if form[0] == "power":
        power = TruncSeries.one(order) + f1.shift(1).truncate(order)
        acc = TruncSeries.one(order)
        for _ in range(form[1]):
            acc = acc * power
        residual = acc - f1
        first = next((i for i in range(order) if residual[i]), None)
    else:
        want = closed_form_series(form, order)
        first = next((i for i in range(min(order, want.order)) if want[i] != f1[i]), None)
    return {"form": closed_form_text(form), "match": first is None, "first_mismatch": first}


def gf_report(name, form, order=32, window=12, closed=None):
    """JSON-ready record of one kernel run: kernel and small-factor
    coefficients, the extracted series, and the internal verdicts, plus the
    check against `closed` when it is a "sqrt" or "power" closed form."""
    kp = build_kernel(form, order)
    gf = kernel_gfs(kp, order, window)
    report = {
        "name": name,
        "kernel": kp.to_json_obj(),
        "small_factor": [
            [str(c) for c in coeff.coeffs] for coeff in gf.small_factor.coeffs
        ],
        "F1": gf.F1.as_ints(),
        "F0": gf.F0.as_ints(),
        "columns": [col.as_ints() for col in gf.Fu],
        "excursion_variant": gf.excursion_variant,
        "checks": {
            "rows_sum_to_F1": True,
            "coefficients_nonnegative_integers": True,
        },
    }
    if closed is not None and closed[0] in ("sqrt", "power"):
        report["closed_form"] = {"name": name, **closed_form_check(closed, gf.F1)}
    return report
