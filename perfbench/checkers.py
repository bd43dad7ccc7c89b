"""Output checkers for the benchmark jobs, using only the benchmark's own
arithmetic.

Every reference here is computed without ecokit: binomial forms for the
Catalan and m-ary systems, quadratic equations F = 1 + a z F + b z^2 F^2 for
Motzkin, Schroeder and fan, integer recurrences for the point-rule systems,
series division for the rational ones, a height-by-height path count for
walks and continued fractions, and per-system successor rules for sampled
walks.  A checker raises CheckError on the first disagreement.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb, factorial


class CheckError(Exception):
    """A job's output disagrees with the benchmark's own computation."""


# ---------------------------------------------------------------------------
# Reference sequences: f_0 .. f_{N-1}


def _m_ary(m):
    # m-Catalan numbers, shifted by one as the catalog systems count them.
    return lambda N: [
        comb(m * (n + 1), n + 1) // ((m - 1) * (n + 1) + 1) for n in range(N)
    ]


def _quadratic(a, b):
    # Coefficients of F = 1 + a z F + b z^2 F^2.
    def terms(N):
        f = []
        for n in range(N):
            v = 1 if n == 0 else a * f[n - 1]
            if n >= 2:
                v += b * sum(f[i] * f[n - 2 - i] for i in range(n - 1))
            f.append(v)
        return f

    return terms


def _rational(num, den):
    # Coefficients of num(z) / den(z) with den(0) = 1.
    def terms(N):
        f = []
        for n in range(N):
            v = num[n] if n < len(num) else 0
            for j in range(1, min(n, len(den) - 1) + 1):
                v -= den[j] * f[n - j]
            f.append(v)
        return f

    return terms


def _two_term(f0, f1, a, b):
    # f_n = a(n) f_{n-1} + b(n) f_{n-2}.
    def terms(N):
        f = [f0, f1]
        for n in range(2, N):
            f.append(a(n) * f[n - 1] + b(n) * f[n - 2])
        return f[:N]

    return terms


def _fibonacci(offset, stride):
    # F_{stride*n + offset} with F_1 = F_2 = 1.
    def terms(N):
        fib = [0, 1]
        while len(fib) <= stride * N + offset:
            fib.append(fib[-1] + fib[-2])
        return [fib[stride * n + offset] for n in range(N)]

    return terms


def _bell(N):
    # B_{n+1} = sum_k C(n, k) B_k.
    b = [1]
    while len(b) < N:
        n = len(b) - 1
        b.append(sum(comb(n, k) * b[k] for k in range(n + 1)))
    return b[:N]


def _arrangements(N):
    a = [1]
    while len(a) < N:
        a.append(len(a) * a[-1] + 1)
    return a[:N]


FORMULAS = {
    "catalan": _m_ary(2),
    "ternary": _m_ary(3),
    "quaternary": _m_ary(4),
    "quinary": _m_ary(5),
    "motzkin": _quadratic(1, 1),
    "schroeder": _quadratic(3, 2),
    "fan": _quadratic(4, 3),
    "fibonacci": _fibonacci(1, 1),
    "fibonacci_bisection_a": _fibonacci(1, 2),
    "fibonacci_bisection_b": _fibonacci(2, 2),
    "goldbach": lambda N: [(1 + 3**n) // 2 for n in range(N)],
    "affine_jumps": _rational((1, -3), (1, -6, -3)),
    "tripling": _rational((1, -3), (1, -6, -3)),
    "parity_three_odd": _rational((1, -1), (1, -3, 1, -1)),
    "parity_three_even": _rational((1, 1, -2), (1, -1, -6, 2)),
    "permutations": lambda N: [factorial(n) for n in range(N)],
    "arrangements": _arrangements,
    "involutions": _two_term(1, 1, lambda n: 1, lambda n: n - 1),
    "switchboard": _two_term(1, 2, lambda n: 2, lambda n: n - 1),
    "bicolored_involutions": _two_term(1, 2, lambda n: 2, lambda n: 2 * (n - 1)),
    "partial_permutations": lambda N: [
        sum(factorial(k) * comb(n, k) ** 2 for k in range(n + 1)) for n in range(N)
    ],
    "bell": _bell,
}


# ---------------------------------------------------------------------------
# Successor rules: label k -> {successor: multiplicity}


def _interval(lo, hi):
    return {j: 1 for j in range(lo, hi + 1)}


def _plus(d, j, mult):
    if mult > 0:
        d[j] = d.get(j, 0) + mult
    return d


RULES = {
    # name: (axiom, successor rule)
    "catalan": (2, lambda k: _interval(2, k + 1)),
    "motzkin": (1, lambda k: _plus(_interval(1, k - 1), k + 1, 1)),
    "schroeder": (3, lambda k: _plus(_interval(3, k), k + 1, 2)),
    "fan": (4, lambda k: _plus(_interval(4, k), k + 1, 3)),
    "ternary": (3, lambda k: _interval(3, k + 2)),
    "quaternary": (4, lambda k: _interval(4, k + 3)),
    "walk_notch1": (0, lambda k: _plus(_interval(0, k - 2), k + 1, 1)),
    "bell": (1, lambda k: _plus({k: k - 1} if k > 1 else {}, k + 1, 1)),
    "involutions": (1, lambda k: _plus({k - 1: k - 1} if k > 1 else {}, k + 1, 1)),
    "ceil_half": (1, lambda k: _plus({-(-k // 2): k - 1} if k > 1 else {}, k + 1, 1)),
    "switchboard": (
        2,
        lambda k: _plus(_plus({k - 1: k - 2} if k > 2 else {}, k, 1), k + 1, 1),
    ),
    "fibonacci": (1, lambda k: {2: 1} if k <= 1 else {1: 1, 2: 1}),
}


def walk_counts(system, N):
    """Totals and level-0 counts of the first N levels, by direct propagation
    with the benchmark's rule table and prefix sums over each interval."""
    axiom, rule = RULES[system]
    level = {axiom: 1}
    totals, zeros = [], []
    for _ in range(N):
        totals.append(sum(level.values()))
        zeros.append(level.get(0, 0))
        nxt = {}
        for k, c in level.items():
            for j, m in rule(k).items():
                nxt[j] = nxt.get(j, 0) + c * m
        level = nxt
    return totals, zeros


def excursions(down, stay, up, N):
    """Weighted nearest-neighbour paths 0 -> 0 of each length below N,
    counted height by height; heights above N/2 cannot return in time."""
    top = N // 2 + 1
    weight = [lambda k, c=c: c[0] + c[1] * k for c in (down, stay, up)]
    d, s, u = weight
    cnt = [1] + [0] * top
    out = []
    for _ in range(N):
        out.append(cnt[0])
        nxt = [0] * (top + 1)
        for h, c in enumerate(cnt):
            if c:
                nxt[h] += c * s(h)
                if h < top:
                    nxt[h + 1] += c * u(h)
                if h > 0:
                    nxt[h - 1] += c * d(h)
        cnt = nxt
    return out


def _chi_square_z(walks, system, n):
    """Wilson-Hilferty normal score of the chi-square statistic of the drawn
    label sequences against their exact probabilities."""
    axiom, rule = RULES[system]
    weights = {}
    stack = [((axiom,), 1)]
    while stack:
        path, w = stack.pop()
        if len(path) == n + 1:
            weights[path] = weights.get(path, 0) + w
            continue
        for j, m in rule(path[-1]).items():
            stack.append((path + (j,), w * m))
    total = sum(weights.values())
    seen = {}
    for walk in walks:
        seen[tuple(walk)] = seen.get(tuple(walk), 0) + 1
    draws = len(walks)
    stat = 0.0
    for path, w in weights.items():
        e = draws * w / total
        stat += (seen.get(path, 0) - e) ** 2 / e
    dof = len(weights) - 1
    c = 2 / (9 * dof)
    return ((stat / dof) ** (1 / 3) - (1 - c)) / c**0.5


CHI_SQUARE_Z_MAX = 5.0  # one-sided p of about 3e-7 per test


# ---------------------------------------------------------------------------
# Series helpers on plain lists


def expand_ratio(num, den, N):
    """First N coefficients of num/den: lists of ints or "p/q" strings, as
    ecokit prints them, with den[0] != 0."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    out = []
    for n in range(N):
        v = num[n] if n < len(num) else Fraction(0)
        for j in range(1, min(n, len(den) - 1) + 1):
            v -= den[j] * out[n - j]
        out.append(v / den[0])
    return out


def _mul_trunc(a, b, N):
    out = [0] * N
    for i, x in enumerate(a[:N]):
        if x:
            for j, y in enumerate(b[: N - i]):
                out[i + j] += x * y
    return out


def relation_residual(grid, terms):
    """sum_j sum_i grid[j][i] z^i F^j truncated to len(terms), as a list."""
    N = len(terms)
    out = [0] * N
    power = [1] + [0] * (N - 1)
    for row in grid:
        for n in range(N):
            out[n] += sum(row[i] * power[n - i] for i in range(min(n, len(row) - 1) + 1))
        power = _mul_trunc(power, terms, N)
    return out


# ---------------------------------------------------------------------------
# Checkers


def _need(cond, message):
    if not cond:
        raise CheckError(message)


class Checker:
    """Checks one job's stdout at a time; cross-job checks run in end_pass.

    Reference sequences are cached per system and extended on demand, so the
    cost of the benchmark's own arithmetic is paid once per run.
    """

    EXTRA_TERMS = 20  # independent terms beyond a guessed relation's fit

    def __init__(self):
        self._refs = {}
        self._walks = {}
        self._digests = {}
        self._walk_totals = []
        self._classify = {}
        self._texts = []

    def terms(self, system, N):
        have = self._refs.get(system)
        if have is None or len(have) < N:
            have = FORMULAS[system](N)
            self._refs[system] = have
        return have[:N]

    def walk_reference(self, system, N):
        have = self._walks.get(system)
        if have is None or len(have[0]) < N:
            have = walk_counts(system, N)
            self._walks[system] = have
        return have[0][:N], have[1][:N]

    def check(self, job, out):
        getattr(self, "_check_" + job["kind"])(job, out)

    def end_pass(self):
        """Cross-job checks over the pass just run, then reset pass state."""
        by_system = {}
        for system, method, totals in self._walk_totals:
            by_system.setdefault(system, {}).setdefault(method, []).append(totals)
        for system, runs in by_system.items():
            naive, ranged = runs.get("naive", []), runs.get("range", [])
            _need(naive and ranged, f"{system}: walk system lacks a naive/range pair")
            for a in naive:
                for b in ranged:
                    n = min(len(a), len(b))
                    _need(a[:n] == b[:n], f"{system}: naive and range totals differ")
        for job, out in self._texts:
            self._check_text(job, out)
        self._walk_totals = []
        self._classify = {}
        self._texts = []

    # count ------------------------------------------------------------------

    def _check_count(self, job, out):
        doc = json.loads(out)
        system, n = job["system"], job["n"]
        totals = doc["totals"]
        _need(doc["system"] == system and doc["n"] == n, "wrong system or depth")
        _need(len(totals) == n + 1, f"{system}: {len(totals)} levels for n={n}")
        if job["method"] != "auto":
            _need(doc["stats"]["method"] == job["method"], "method not honoured")
        if system in FORMULAS:
            _need(totals == self.terms(system, n + 1), f"{system}: totals differ from formula")
        if doc["mode"] == "eco":
            sums = doc["label_sums"]
            _need(
                all(totals[i + 1] == sums[i] for i in range(n)),
                f"{system}: f_(n+1) != label sum at level n",
            )
        else:
            self._walk_totals.append((system, doc["stats"]["method"], totals))

    # sample -----------------------------------------------------------------

    def _check_sample(self, job, out):
        digest = hashlib.sha256(out.encode()).hexdigest()
        key = tuple(job["argv"])
        _need(self._digests.setdefault(key, digest) == digest,
              f"{job['system']}: same seed gave different walks")
        doc = json.loads(out)
        system, n = job["system"], job["n"]
        axiom, rule = RULES[system]
        walks = doc["walks"]
        _need(len(walks) == job["draws"], f"{system}: {len(walks)} walks drawn")
        for walk in walks:
            _need(len(walk) == n + 1, f"{system}: walk of {len(walk)} labels for n={n}")
            _need(walk[0] == axiom, f"{system}: walk starts at {walk[0]}")
            for k, j in zip(walk, walk[1:]):
                _need(j in rule(k), f"{system}: illegal step {k} -> {j}")
        if job.get("chi_square"):
            z = _chi_square_z(walks, system, n)
            _need(z <= CHI_SQUARE_Z_MAX, f"{system}: draws not uniform (z = {z:.2f})")

    # solve ------------------------------------------------------------------

    def _check_gf(self, job, out):
        doc = json.loads(out)
        system, order = job["system"], job["order"]
        f1, f0 = doc["F1"], doc["F0"]
        _need(len(f1) >= order - 1, f"{system}: F(z,1) has {len(f1)} terms")
        if system in FORMULAS:
            want = self.terms(system, len(f1))
        else:
            want, zeros = self.walk_reference(system, max(len(f1), len(f0)))
            _need(f0 == zeros[: len(f0)], f"{system}: F(z,0) differs from walk count")
            want = want[: len(f1)]
        _need(f1 == want, f"{system}: F(z,1) differs from the reference")

    def _check_guess(self, job, out):
        doc = json.loads(out)
        system, order, expect = job["system"], job["order"], job["expect"]
        _need(doc["terms"] == order, f"{system}: fitted {doc['terms']} terms")
        rational, algebraic = doc["rational"], doc["algebraic"]
        if expect == "none":
            _need(rational is None and algebraic is None,
                  f"{system}: zero-radius system got a relation")
            return
        terms = self.terms(system, order + self.EXTRA_TERMS)
        if expect == "rational":
            _need(rational is not None, f"{system}: no rational form found")
            got = expand_ratio(rational["numerator"], rational["denominator"], len(terms))
            _need(got == terms, f"{system}: rational form fails on fresh terms")
        else:
            _need(rational is None and algebraic is not None,
                  f"{system}: expected an algebraic relation only")
            res = relation_residual(algebraic["grid"], terms)
            _need(not any(res), f"{system}: relation fails on fresh terms")

    def _check_cf(self, job, out):
        want = excursions(job["down"], job["stay"], job["up"], job["order"])
        _need(out == want, f"{job['rule']}: excursions differ from the path count")

    # survey -----------------------------------------------------------------

    def _check_classify(self, job, out):
        if job["format"] == "text":
            self._texts.append((job, out))
            return
        doc = json.loads(out)
        system, order = job["system"], job["order"]
        series = doc["series"]
        _need(doc["system"] == system, f"report names {doc['system']}")
        _need(0 < len(series) <= order, f"{system}: series of {len(series)} terms")
        if system in FORMULAS:
            _need(series == self.terms(system, len(series)),
                  f"{system}: series differs from formula")
        forms = [doc["closed_form"]] + [c.get("closed_form") for c in doc["criteria"]]
        for form in forms:
            if form is not None:
                got = expand_ratio(form["numerator"], form["denominator"], len(series))
                _need(got == series, f"{system}: closed form {form['text']} != series")
        _need((doc["closed_form"] is not None) == (doc["overall"] == "rational"),
              f"{system}: overall verdict and closed form disagree")
        self._classify[(system, order)] = doc

    def _check_text(self, job, out):
        system = job["system"]
        doc = self._classify.get((system, job["order"]))
        _need(doc is not None, f"{system}: text report has no JSON counterpart")
        want = [f"system: {system}", f"{system}: {doc['overall']}"]
        if doc["closed_form"] is not None:
            want.append(f"  F(z) = {doc['closed_form']['text']}  [{doc['closed_form_source']}]")
        lines = out.splitlines()
        _need(len(lines) == len(want) + len(doc["criteria"]) + 1,
              f"{system}: text report has {len(lines)} lines")
        _need(lines[: len(want)] == want, f"{system}: text report header differs")
        crit = lines[len(want): len(want) + len(doc["criteria"])]
        for line, c in zip(crit, doc["criteria"]):
            _need(line.startswith(f"  {c['criterion']}: {c['verdict']}"),
                  f"{system}: text verdict line {line!r}")
        series = ", ".join(str(t) for t in doc["series"][:10])
        _need(lines[-1] == f"  series: {series}", f"{system}: text series line differs")

    def _check_verify(self, job, out):
        doc = json.loads(out)
        entries = doc["entries"]
        _need(doc["ok"] is True and len(entries) == 1, f"{job['system']}: verify not ok")
        entry = entries[0]
        _need(entry["name"] == job["system"] and entry["ok"] is True,
              f"{job['system']}: entry not ok")
        _need("fail" not in entry["checks"].values(), f"{job['system']}: a check failed")
