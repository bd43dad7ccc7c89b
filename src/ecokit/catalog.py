"""Built-in systems with frozen reference data and self-verification.

Every entry carries the spec source, a frozen prefix of its level totals,
and whatever independent evidence exists for it: a closed form, an oracle
recurrence computed without the engine, a kernel route, a continued
fraction, or a numeric radius estimate.  verify_entry recomputes everything
and compares; catalog_verify runs the whole table in order.

The golden prefixes were derived by running both propagation methods
against each other and cross-checking hand-computable terms; they are
deliberately embedded as literals so that any future regression in the
engine, the solver, or a spec text fails loudly here.

Importing this module loads no other ecokit module but `errors`: an
entry's text and frozen data are plain literals, `spec()` loads `dsl`, and
the closed forms and `verify_entry` load the modules they run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .errors import CatalogError


# ---------------------------------------------------------------------------
# Oracles: reference sequences computed without the engine


@dataclass(frozen=True)
class OracleSequence:
    """An independent integer-sequence recurrence or formula."""

    name: str
    description: str
    func: object

    def values(self, order, *params):
        return self.func(order, *params)


def _involutions(order):
    out = [1, 1]
    for n in range(1, order):
        out.append(out[n] + n * out[n - 1])
    return out[:order]


def _arrangements(order):
    return [sum(factorial(n) // factorial(k) for k in range(n + 1)) for n in range(order)]


def _bell(order):
    # Bell triangle: each row starts with the previous row's last entry,
    # then adds left neighbour + the entry above it; row heads are Bell numbers.
    rows = [[1]]
    while len(rows) < order:
        prev = rows[-1]
        row = [prev[-1]]
        for x in prev:
            row.append(row[-1] + x)
        rows.append(row)
    return [r[0] for r in rows][:order]


def _partial_injections(order):
    return [
        sum(factorial(k) * comb(n, k) ** 2 for k in range(n + 1)) for n in range(order)
    ]


def _m_catalan(order, m):
    out = []
    for n in range(order):
        num = comb(m * (n + 1), n + 1)
        den = (m - 1) * (n + 1) + 1
        if num % den:
            raise ValueError(f"m-Catalan value at n={n} is not integral")
        out.append(num // den)
    return out


ORACLES = {
    "involutions": OracleSequence(
        "involutions", "I(n+1) = I(n) + n I(n-1)", _involutions
    ),
    "arrangements": OracleSequence(
        "arrangements", "sum over k of n!/k!", _arrangements
    ),
    "bell": OracleSequence("bell", "Bell triangle row heads", _bell),
    "partial_injections": OracleSequence(
        "partial_injections", "sum over k of k! C(n,k)^2", _partial_injections
    ),
    "m_catalan": OracleSequence(
        "m_catalan", "C(m(n+1), n+1) / ((m-1)(n+1) + 1)", _m_catalan
    ),
}


# ---------------------------------------------------------------------------
# Entries


@dataclass(frozen=True)
class CatalogEntry:
    """One built-in system: source text, frozen data, verification hooks.

    form is None or one of ("rational", num, den), ("sqrt", num, disc, den)
    for (num - sqrt(disc)) / den, ("power", m) for the relation
    F = (1 + zF)^m, ("special", builder name); oracle is None or (oracle
    name, params);
    kernel marks systems whose walk shape supports the algebraic route;
    radius_ratio = (n, target, rel_tol) checks f_n / f_(n+1) numerically.
    """

    name: str
    description: str
    text: str
    golden: tuple
    sequence_id: str = ""
    form: tuple | None = None
    oracle: tuple | None = None
    kernel: bool = False
    excursion_golden: tuple = ()
    radius_ratio: tuple | None = None
    flags: tuple = ()

    def spec(self):
        return _spec_cache(self.name)

    def closed_form_series(self, order):
        """Expand the entry's closed form to `order` terms, or None when it
        has none or only a relation ("power", checked by the kernel)."""
        if self.form is None or self.form[0] == "power":
            return None
        kind = self.form[0]
        if kind == "rational":
            return self.rational_form().expand(order)
        if kind == "sqrt":
            from .kernel import closed_form_series

            return closed_form_series(self.form, order)
        if kind == "special":
            return _SPECIAL_FORMS[self.form[1]](order)
        raise ValueError(f"unknown form kind {kind!r}")

    def rational_form(self):
        if self.form is None or self.form[0] != "rational":
            return None
        from .qpoly import QPoly
        from .ratfunc import RatFunc

        num = QPoly([Fraction(c) for c in self.form[1]])
        den = QPoly([Fraction(c) for c in self.form[2]])
        return RatFunc(num, den)

    def form_text(self):
        if self.form is None:
            return None
        if self.form[0] == "rational":
            return self.rational_form().to_str()
        if self.form[0] in ("sqrt", "power"):
            from .kernel import closed_form_text

            return closed_form_text(self.form)
        return _SPECIAL_TEXT[self.form[1]]


def _lacunary_ratio(order):
    # h(z) = sum of z^(2^p) for p >= 1; the totals satisfy
    # F = (1-z)^2 h / ((1-2z)(1-z)^2 h - z^4), both sides vanishing to z^2.
    from .series import TruncSeries

    n = order + 2
    coeffs = [0] * n
    p = 2
    while p < n:
        coeffs[p] = 1
        p *= 2
    h = TruncSeries(coeffs)
    one = TruncSeries.one(n)
    z = TruncSeries.from_poly([0, 1], n)
    omz2 = (one - z) * (one - z)
    num = omz2 * h
    den = (one - z.scale(2)) * omz2 * h - TruncSeries.from_poly([0, 0, 0, 0, 1], n)
    return num / den


_SPECIAL_FORMS = {"lacunary_ratio": _lacunary_ratio}
_SPECIAL_TEXT = {
    "lacunary_ratio": "(1-z)^2 h(z) / ((1-2z)(1-z)^2 h(z) - z^4),  "
    "h(z) = z^2 + z^4 + z^8 + z^16 + ..."
}


ENTRIES = (
    CatalogEntry(
        name="fibonacci",
        description="Fibonacci numbers: two labels, 1 renews to 2, 2 splits",
        text="system fibonacci { mode eco; axiom 1;\n"
        "  rule k <= 1: (2) x 1;\n  rule k >= 2: (1) x 1, (2) x 1; }",
        golden=(1, 1, 2, 3, 5, 8, 13, 21, 34, 55),
        sequence_id="M0692",
        form=("rational", (1,), (1, -1, -1)),
    ),
    CatalogEntry(
        name="fibonacci_bisection_a",
        description="odd-position Fibonacci numbers 1, 2, 5, 13: twos fill, one push",
        text="system fibonacci_bisection_a { mode eco; axiom 2;\n"
        "  rule always: (2) x k-1, (k+1) x 1; }",
        golden=(1, 2, 5, 13, 34, 89, 233, 610, 1597, 4181),
        sequence_id="M1439",
        form=("rational", (1, -1), (1, -3, 1)),
    ),
    CatalogEntry(
        name="fibonacci_bisection_b",
        description="even-position Fibonacci numbers 1, 3, 8, 21: same rule, axiom 3",
        text="system fibonacci_bisection_b { mode eco; axiom 3;\n"
        "  rule always: (2) x k-1, (k+1) x 1; }",
        golden=(1, 3, 8, 21, 55, 144, 377, 987, 2584, 6765),
        sequence_id="M2741",
        form=("rational", (1,), (1, -3, 1)),
    ),
    CatalogEntry(
        name="affine_jumps",
        description="threes fill plus jumps +1, +2, +9; label sum 6k+3",
        text="system affine_jumps { mode eco; axiom 3;\n"
        "  rule k >= 3: (3) x k-3, (k+1) x 1, (k+2) x 1, (k+9) x 1; }",
        golden=(1, 3, 21, 135, 873, 5643, 36477, 235791, 1524177, 9852435),
        form=("rational", (1, -3), (1, -6, -3)),
    ),
    CatalogEntry(
        name="tripling",
        description="threes fill plus one tripling jump 3k+6; same totals as affine_jumps",
        text="system tripling { mode eco; axiom 3;\n"
        "  rule k >= 1: (3) x k-1, (3*k+6) x 1; }",
        golden=(1, 3, 21, 135, 873, 5643, 36477, 235791, 1524177, 9852435),
        form=("rational", (1, -3), (1, -6, -3)),
    ),
    CatalogEntry(
        name="parity_three_odd",
        description="twos fill and a push; odd labels emit one extra (3)",
        text="system parity_three_odd { mode eco; axiom 2;\n"
        "  rule k mod 2 == 0: (2) x k-1, (k+1) x 1;\n"
        "  rule k mod 2 == 1: (2) x k-2, (3) x 1, (k+1) x 1; }",
        golden=(1, 2, 5, 14, 39, 108, 299, 828, 2293, 6350),
        form=("rational", (1, -1), (1, -3, 1, -1)),
    ),
    CatalogEntry(
        name="parity_three_even",
        description="mirror of parity_three_odd: even labels emit the extra (3)",
        text="system parity_three_even { mode eco; axiom 2;\n"
        "  rule k mod 2 == 0: (2) x k-2, (3) x 1, (k+1) x 1;\n"
        "  rule k mod 2 == 1: (2) x k-1, (k+1) x 1; }",
        golden=(1, 2, 6, 16, 48, 132, 388, 1084, 3148, 8876),
        form=("rational", (1, 1, -2), (1, -1, -6, 2)),
    ),
    CatalogEntry(
        name="fredholm",
        description="extra (3) on non-powers-of-two; totals track the lacunary "
        "series h(z), first differing from parity_three_odd at z^6",
        text="system fredholm { mode eco; axiom 2;\n"
        "  rule pow2(k): (2) x k-1, (k+1) x 1;\n"
        "  rule !pow2(k): (2) x k-2, (3) x 1, (k+1) x 1; }",
        golden=(1, 2, 5, 14, 39, 108, 300, 834, 2316, 6430),
        form=("special", "lacunary_ratio"),
        radius_ratio=(60, 0.360102, 0.01),
        flags=("transcendental",),
    ),
    CatalogEntry(
        name="runaway",
        description="fan of k-2 copies of (k+2): totals outgrow every exponential",
        text="system runaway { mode eco; axiom 2;\n"
        "  rule k >= 2: (2) x 1, (3) x 1, (k+2) x k-2; }",
        golden=(1, 2, 5, 15, 56, 277, 1885, 17250, 200281, 2796947),
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="goldbach",
        description="prime-splitting rule with totals (1 + 3^n)/2",
        text="system goldbach { mode eco; axiom 2;\n"
        "  rule k <= 2: (2) x 1, (3) x 1;\n"
        "  rule k >= 3: (next_prime(k)) x 1, (goldbach_low(k)) x 1,"
        " (goldbach_high(k)) x 1, (2) x k-3; }",
        golden=(1, 2, 5, 14, 41, 122, 365, 1094, 3281, 9842),
        form=("rational", (1, -2), (1, -4, 3)),
    ),
    CatalogEntry(
        name="catalan",
        description="Catalan numbers 1, 2, 5, 14 (shifted): full interval plus one",
        text="system catalan { mode eco; axiom 2;\n  rule k >= 2: interval(2, k+1); }",
        golden=(1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796),
        sequence_id="M1459",
        form=("sqrt", (1, -2), (1, -4), (0, 0, 2)),
        oracle=("m_catalan", (2,)),
        kernel=True,
    ),
    CatalogEntry(
        name="motzkin",
        description="Motzkin numbers: fall anywhere below, or step up by one",
        text="system motzkin { mode eco; axiom 1;\n"
        "  rule always: interval(1, k-1), (k+1) x 1; }",
        golden=(1, 1, 2, 4, 9, 21, 51, 127, 323, 835),
        sequence_id="M1184",
        form=("sqrt", (1, -1), (1, -2, -3), (0, 0, 2)),
        kernel=True,
    ),
    CatalogEntry(
        name="schroeder",
        description="Schroeder numbers 1, 3, 11, 45: interval to k plus a double push",
        text="system schroeder { mode eco; axiom 3;\n"
        "  rule k >= 3: interval(3, k), (k+1) x 2; }",
        golden=(1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859),
        sequence_id="M2898",
        form=("sqrt", (1, -3), (1, -6, 1), (0, 0, 4)),
        kernel=True,
    ),
    CatalogEntry(
        name="fan",
        description="interval to k plus a triple push: the m = 4 member of the "
        "family whose m = 3 member is schroeder",
        text="system fan { mode eco; axiom 4;\n"
        "  rule k >= 4: interval(4, k), (k+1) x 3; }",
        golden=(1, 4, 19, 100, 562, 3304, 20071, 124996, 793774, 5120632),
        sequence_id="M3556",
        form=("sqrt", (1, -4), (1, -8, 4), (0, 0, 6)),
        kernel=True,
    ),
    CatalogEntry(
        name="ternary",
        description="ternary trees: 3-Catalan numbers, F = (1+zF)^3",
        text="system ternary { mode eco; axiom 3;\n  rule k >= 3: interval(3, k+2); }",
        golden=(1, 3, 12, 55, 273, 1428, 7752, 43263, 246675, 1430715),
        sequence_id="M2926",
        form=("power", 3),
        oracle=("m_catalan", (3,)),
        kernel=True,
    ),
    CatalogEntry(
        name="quaternary",
        description="quaternary trees: 4-Catalan numbers, F = (1+zF)^4",
        text="system quaternary { mode eco; axiom 4;\n"
        "  rule k >= 4: interval(4, k+3); }",
        golden=(1, 4, 22, 140, 969, 7084, 53820, 420732, 3362260, 27343888),
        sequence_id="M3587",
        form=("power", 4),
        oracle=("m_catalan", (4,)),
        kernel=True,
    ),
    CatalogEntry(
        name="quinary",
        description="quinary trees: 5-Catalan numbers, F = (1+zF)^5",
        text="system quinary { mode eco; axiom 5;\n"
        "  rule k >= 5: interval(5, k+4); }",
        golden=(1, 5, 35, 285, 2530, 23751, 231880, 2330445, 23950355, 250543370),
        form=("power", 5),
        oracle=("m_catalan", (5,)),
        kernel=True,
    ),
    CatalogEntry(
        name="walk_notch1",
        description="Motzkin-like walk whose fall range stops two below the "
        "current height (the landing one below is removed)",
        text="system walk_notch1 { mode walk; axiom 0;\n"
        "  rule always: interval(0, k-2), (k+1) x 1; }",
        golden=(1, 1, 1, 2, 4, 7, 14, 30, 62, 131),
        kernel=True,
    ),
    CatalogEntry(
        name="walk_skip_low1",
        description="Motzkin-like walk that never lands on height 1",
        text="system walk_skip_low1 { mode walk; axiom 0;\n"
        "  rule always: interval(0, k-1, minus {1}), (k+1) x 1; }",
        golden=(1, 1, 2, 3, 6, 12, 26, 59, 139, 338),
        flags=("engine-verified", "symbolic route out of scope"),
    ),
    CatalogEntry(
        name="walk_skip_mixed",
        description="walk that never lands on height 2 nor two below the top",
        text="system walk_skip_mixed { mode walk; axiom 0;\n"
        "  rule always: interval(0, k-1, minus {2, k-2}), (k+1) x 1; }",
        golden=(1, 1, 2, 3, 6, 11, 23, 47, 101, 221),
        flags=("engine-verified", "symbolic route out of scope"),
    ),
    CatalogEntry(
        name="permutations",
        description="factorial numbers: every node pushes k copies of k+1",
        text="system permutations { mode eco; axiom 1;\n"
        "  rule always: (k+1) x k; }",
        golden=(1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880),
        sequence_id="M1675",
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="arrangements",
        description="arrangements (partial permutations of a row): "
        "sums of n!/k!",
        text="system arrangements { mode eco; axiom 2;\n"
        "  rule always: (k) x 1, (k+1) x k-1; }",
        golden=(1, 2, 5, 16, 65, 326, 1957, 13700, 109601, 986410),
        sequence_id="M1497",
        oracle=("arrangements", ()),
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="involutions",
        description="involutions: I(n+1) = I(n) + n I(n-1)",
        text="system involutions { mode eco; axiom 1;\n"
        "  rule always: (k-1) x k-1, (k+1) x 1; }",
        golden=(1, 1, 2, 4, 10, 26, 76, 232, 764, 2620),
        sequence_id="M1221",
        oracle=("involutions", ()),
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="partial_permutations",
        description="partial injections on n points: sums of k! C(n,k)^2",
        text="system partial_permutations { mode eco; axiom 2;\n"
        "  rule always: (k+1) x k-1, (k+2) x 1; }",
        golden=(1, 2, 7, 34, 209, 1546, 13327, 130922, 1441729, 17572114),
        sequence_id="M1795",
        oracle=("partial_injections", ()),
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="switchboard",
        description="switchboard states: t(n) = 2 t(n-1) + (n-1) t(n-2)",
        text="system switchboard { mode eco; axiom 2;\n"
        "  rule always: (k-1) x k-2, (k) x 1, (k+1) x 1; }",
        golden=(1, 2, 5, 14, 43, 142, 499, 1850, 7193, 29186),
        sequence_id="M1461",
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="bicolored_involutions",
        description="involutions with bicolored fixed points: "
        "b(n) = 2 b(n-1) + 2(n-1) b(n-2)",
        text="system bicolored_involutions { mode eco; axiom 2;\n"
        "  rule always: (k-1) x k-2, (k+1) x 2; }",
        golden=(1, 2, 6, 20, 76, 312, 1384, 6512, 32400, 168992),
        sequence_id="M1648",
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="bell",
        description="Bell numbers: set partitions of n",
        text="system bell { mode eco; axiom 1;\n"
        "  rule always: (k) x k-1, (k+1) x 1; }",
        golden=(1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147),
        sequence_id="M1484",
        oracle=("bell", ()),
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="bicolored_partitions",
        description="set partitions with bicolored singleton blocks",
        text="system bicolored_partitions { mode eco; axiom 2;\n"
        "  rule always: (k) x k-2, (k+1) x 2; }",
        golden=(1, 2, 6, 22, 94, 454, 2430, 14214, 89918, 610182),
        sequence_id="M1662",
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="bessel",
        description="Bessel walk: nearest-neighbour steps with k loops at "
        "height k; excursions count non-overlapping partitions",
        text="system bessel { mode walk; axiom 0;\n"
        "  rule k <= 0: (0) x 1, (1) x 1;\n"
        "  rule k >= 1: (k-1) x 1, (k) x k, (k+1) x 1; }",
        golden=(1, 2, 5, 14, 44, 154, 597, 2547, 11871, 59981),
        sequence_id="M1462",
        excursion_golden=(1, 1, 2, 4, 9, 22, 58, 164, 496, 1601),
        flags=("zero-radius",),
    ),
    CatalogEntry(
        name="even_jumps",
        description="steps to every even label up to 2k: support doubles "
        "each level, totals outgrow every exponential",
        text="system even_jumps { mode eco; axiom 1;\n"
        "  rule always: interval(2, 2*k, step 2); }",
        golden=(1, 1, 2, 6, 26, 166, 1626, 25510, 664666, 29559718),
        flags=("zero-radius", "exponential-width"),
    ),
    CatalogEntry(
        name="ceil_half",
        description="halving fill: k-1 copies of ceil(k/2) plus one push",
        text="system ceil_half { mode eco; axiom 1;\n"
        "  rule always: (ceil_div(k, 2)) x k-1, (k+1) x 1; }",
        golden=(1, 1, 2, 4, 10, 23, 60, 153, 397, 1037),
        flags=("back-table-example",),
    ),
)


_BY_NAME = {e.name: e for e in ENTRIES}


def get_entry(name) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise CatalogError(f"unknown system {name!r}; see `catalog` for the list")


@cache
def _spec_cache(name):
    from .dsl import parse_spec

    return parse_spec(_BY_NAME[name].text)


# ---------------------------------------------------------------------------
# Verification


def verify_entry(entry, form_order=25):
    """Recompute one entry's evidence and compare against the frozen data.

    Checks, each pass/fail/skip: both propagation methods against the golden
    prefix; the closed form against the engine to `form_order`; the oracle
    sequence against the engine; the kernel route's F(z,1) against the
    golden prefix (plus the registered closed-form identity); the continued
    fraction against the frozen excursion prefix; the numeric radius ratio.
    """
    from .contfrac import BirthDeathRule, cf_excursions
    from .engine import total_series
    from .kernel import build_kernel, closed_form_check, factorial_form, kernel_gfs

    spec = entry.spec()
    checks = {}
    diagnostics = []
    L = len(entry.golden)

    want = entry.closed_form_series(form_order)
    # The range method runs once, to the longest prefix any check reads.  A
    # budget stops it at the same level whatever the length, so each check's
    # slice is the run it would make on its own.
    longest = max(
        L,
        want.order if want is not None else 0,
        L + 8 if entry.oracle is not None else 0,
        entry.radius_ratio[0] + 2 if entry.radius_ratio is not None else 0,
    )
    series = total_series(spec, longest, method="range")
    naive = tuple(total_series(spec, L, method="naive"))
    ranged = tuple(series[:L])
    if naive == entry.golden and ranged == entry.golden:
        checks["golden"] = "pass"
    else:
        checks["golden"] = "fail"
        diagnostics.append(
            f"golden mismatch: naive={list(naive)} range={list(ranged)}"
            f" expected={list(entry.golden)}"
        )

    if want is None:
        checks["closed_form"] = "skip"
    else:
        got = series[: want.order]
        ok = want.as_ints() == got
        checks["closed_form"] = "pass" if ok else "fail"
        if not ok:
            first = next(
                i for i in range(want.order) if want.as_ints()[i] != got[i]
            )
            diagnostics.append(
                f"closed form differs from engine first at z^{first}"
            )

    if entry.oracle is None:
        checks["oracle"] = "skip"
    else:
        oname, params = entry.oracle
        L2 = L + 8
        want = ORACLES[oname].values(L2, *params)
        ok = want == series[:L2]
        checks["oracle"] = "pass" if ok else "fail"
        if not ok:
            diagnostics.append(f"oracle {oname} disagrees with engine")

    if not entry.kernel:
        checks["kernel"] = "skip"
    else:
        form = factorial_form(spec)
        if form is None:
            checks["kernel"] = "fail"
            diagnostics.append("walk shape not recognized")
        else:
            gf = kernel_gfs(build_kernel(form, L + 1), L + 1)
            ok = tuple(gf.F1.as_ints()[:L]) == entry.golden
            if ok and entry.form and entry.form[0] in ("sqrt", "power"):
                verdict = closed_form_check(entry.form, gf.F1)
                ok = verdict["match"]
                if not ok:
                    diagnostics.append(
                        f"closed-form identity fails at z^{verdict['first_mismatch']}"
                    )
            elif not ok:
                diagnostics.append("kernel F(z,1) disagrees with golden prefix")
            checks["kernel"] = "pass" if ok else "fail"

    if not entry.excursion_golden:
        checks["excursions"] = "skip"
    else:
        rule = BirthDeathRule.from_spec(spec)
        got = cf_excursions(rule, len(entry.excursion_golden))
        ok = tuple(got.as_ints()) == entry.excursion_golden
        checks["excursions"] = "pass" if ok else "fail"
        if not ok:
            diagnostics.append("continued fraction disagrees with frozen excursions")

    if entry.radius_ratio is None:
        checks["radius"] = "skip"
    else:
        n, target, tol = entry.radius_ratio
        ratio = series[n] / series[n + 1]
        ok = abs(ratio - target) <= tol * target
        checks["radius"] = "pass" if ok else "fail"
        if not ok:
            diagnostics.append(
                f"ratio f_{n}/f_{n + 1} = {ratio:.6f}, target {target} +- {tol:.0%}"
            )

    ok = all(v != "fail" for v in checks.values())
    return {
        "name": entry.name,
        "ok": ok,
        "checks": checks,
        "diagnostics": diagnostics,
    }


def catalog_verify(form_order=25):
    """Verify every entry in catalog order; overall ok only if all pass."""
    reports = [verify_entry(e, form_order) for e in ENTRIES]
    return {"ok": all(r["ok"] for r in reports), "entries": reports}
