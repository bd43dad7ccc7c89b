"""Succession-rule specifications: text format, AST, expansion, validation.

A spec names a rewriting system: an axiom label and guarded clauses that send
a node labeled k to a finite multiset of successor labels.  In eco mode a
node labeled k must produce exactly k successors with labels >= 1; walk mode
drops the arity law and allows label 0, which models paths on the half line.

The concrete syntax is line oriented:

    system catalan {
      mode eco;
      axiom 2;
      rule k >= 2: interval(2, k-1), (k) x 1, (k+1) x 1;
    }

Items are written ``(LABEL) x MULT``; interval items enumerate an arithmetic
progression of labels and support ``step`` and a ``minus { ... }`` exclusion
list.  Guards are conjunctions of ``k >= c``, ``k <= c``, ``k mod m == r``,
``pow2(k)``, ``prime(k)`` and their negations ``!pow2(k)``, ``!prime(k)``;
``always`` matches every label.  Label expressions are affine forms ``a*k+b``
or one call to a registered builtin (``ceil_div``, ``next_prime``,
``goldbach_low``, ``goldbach_high``, ``pow``).

``describe`` lowers a clause at one label into its successor description:
points (label, mult) and runs of labels an interval step apart, less their
exclusions.  The engine, ``validate_spec``, ``classify`` and ``contfrac``
read only this form; folds such as the arity, the label sum and the count
at or above a label cost O(points + runs).

``class_view`` evaluates a clause on one residue class of k, where the
successor count, label sum and similar weights are affine in k; the arity
check here and the symbolic detectors in ``classify`` fold over it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, filterfalse
from math import lcm

from .errors import SpecError


class ParseError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Affine:
    """The label expression a*k + b."""

    a: int
    b: int


@dataclass(frozen=True)
class Builtin:
    name: str
    args: tuple


LabelExpr = Affine | Builtin

BUILTIN_ARITY = {
    "ceil_div": 2,
    "next_prime": 1,
    "goldbach_low": 1,
    "goldbach_high": 1,
    "pow": 2,
}


@dataclass(frozen=True)
class GuardAtom:
    kind: str  # ge | le | mod | pow2 | prime
    c: int = 0
    m: int = 0
    r: int = 0
    negated: bool = False

    def matches(self, k):
        if self.kind == "ge":
            return k >= self.c
        if self.kind == "le":
            return k <= self.c
        if self.kind == "mod":
            return k % self.m == self.r
        if self.kind == "pow2":
            return _is_pow2(k) != self.negated
        if self.kind == "prime":
            return is_prime(k) != self.negated
        raise SpecError(f"unknown guard atom {self.kind}")


@dataclass(frozen=True)
class Guard:
    """Conjunction of atoms; the empty conjunction is 'always'."""

    atoms: tuple = ()

    def matches(self, k):
        return all(a.matches(k) for a in self.atoms)


@dataclass(frozen=True)
class Item:
    label: LabelExpr
    mult: LabelExpr


@dataclass(frozen=True)
class Interval:
    lo: LabelExpr
    hi: LabelExpr
    step: int = 1
    minus: tuple = ()


@dataclass(frozen=True)
class RuleClause:
    guard: Guard
    items: tuple = ()
    intervals: tuple = ()


@dataclass(frozen=True)
class EcoSpec:
    name: str
    mode: str  # eco | walk
    axiom: int
    clauses: tuple = ()


# ---------------------------------------------------------------------------
# Number-theoretic builtins (exact; primality certified below PRIME_BOUND)


def _is_pow2(k):
    return k >= 1 and (k & (k - 1)) == 0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base above (Sorenson and Webster
# 2015), so Miller-Rabin on those bases decides every n below it.
PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(n):
    """Deterministic Miller-Rabin on the first 13 prime bases, proven exact
    below PRIME_BOUND (about 3.3e24).  At or above it only a factor among
    the bases decides; otherwise SpecError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= PRIME_BOUND:
        raise SpecError(f"primality of {n} is not certified at or above {PRIME_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def next_prime(n):
    """Smallest prime strictly greater than n."""
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


@lru_cache(maxsize=None)
def goldbach_pair(k):
    """Deterministic prime pair (q, r), q <= r, with q + r = 2k - next_prime(k) + 3.

    The target is even and at least 4 for k >= 2, and q is the smallest prime
    that works, so the choice is canonical.
    """
    m = 2 * k - next_prime(k) + 3
    if m < 4 or m % 2 != 0:
        raise SpecError(f"goldbach pair undefined for k = {k} (target {m})")
    q = 2
    while q <= m // 2:
        if is_prime(q) and is_prime(m - q):
            return q, m - q
        q = 3 if q == 2 else q + 2
    raise SpecError(f"no prime pair found for target {m} (k = {k})")


def eval_expr(e, k):
    """Evaluate a label expression at label k."""
    if type(e) is Affine:
        return e.a * k + e.b
    name, args = e.name, [eval_expr(a, k) for a in e.args]
    if name == "ceil_div":
        v, m = args
        if m <= 0:
            raise SpecError("ceil_div needs a positive modulus")
        return -(-v // m)
    if name == "next_prime":
        return next_prime(args[0])
    if name == "goldbach_low":
        return goldbach_pair(args[0])[0]
    if name == "goldbach_high":
        return goldbach_pair(args[0])[1]
    if name == "pow":
        base, exp = args
        if exp < 0 or exp > 10**6:
            raise SpecError(f"pow exponent {exp} out of range")
        return base**exp
    raise SpecError(f"unknown builtin {name}")


def expr_affine(e):
    """The (a, b) of an affine expression, or None for builtins."""
    if isinstance(e, Affine):
        return e.a, e.b
    return None


# ---------------------------------------------------------------------------
# Lexer / parser

_SYMBOLS = (">=", "<=", "==", "{", "}", "(", ")", ",", ":", ";", "*", "+", "-", "!")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i : i + 2]
        if two in _SYMBOLS:
            tokens.append((two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        kind, value, line, col = self.peek()
        raise ParseError(message, line, col)

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.pos += 1
            return True
        return False

    def parse_spec(self):
        self.expect("ident", "system")
        name = self.expect("ident")[1]
        self.expect("{")
        mode = None
        axiom = None
        clauses = []
        while not self.accept("}"):
            tok = self.peek()
            if tok[0] != "ident":
                self.fail("expected 'mode', 'axiom' or 'rule'")
            if tok[1] == "mode":
                self.next()
                mode_tok = self.expect("ident")
                if mode_tok[1] not in ("eco", "walk"):
                    raise ParseError("mode must be 'eco' or 'walk'", mode_tok[2], mode_tok[3])
                mode = mode_tok[1]
                self.expect(";")
            elif tok[1] == "axiom":
                self.next()
                axiom = self.parse_int()
                self.expect(";")
            elif tok[1] == "rule":
                self.next()
                clauses.append(self.parse_clause())
            else:
                raise ParseError(f"unexpected keyword {tok[1]!r}", tok[2], tok[3])
        self.expect("eof")
        if mode is None:
            raise ParseError("spec is missing a 'mode' statement", 1, 1)
        if axiom is None:
            raise ParseError("spec is missing an 'axiom' statement", 1, 1)
        if not clauses:
            raise ParseError("spec has no rule clauses", 1, 1)
        return EcoSpec(name=name, mode=mode, axiom=axiom, clauses=tuple(clauses))

    def parse_int(self):
        neg = self.accept("-")
        tok = self.expect("int")
        return -tok[1] if neg else tok[1]

    def parse_clause(self):
        guard = self.parse_guard()
        self.expect(":")
        items = []
        intervals = []
        while True:
            tok = self.peek()
            if tok[0] == "ident" and tok[1] == "interval":
                intervals.append(self.parse_interval())
            elif tok[0] == "(":
                items.append(self.parse_item())
            else:
                self.fail("expected an item '(label) x mult' or 'interval(...)'")
            if self.accept(";"):
                break
            self.expect(",")
        return RuleClause(guard=guard, items=tuple(items), intervals=tuple(intervals))

    def parse_guard(self):
        if self.peek()[:2] == ("ident", "always"):
            self.next()
            return Guard(())
        atoms = [self.parse_atom()]
        while self.accept("ident", "and"):
            atoms.append(self.parse_atom())
        return Guard(tuple(atoms))

    def parse_atom(self):
        negated = self.accept("!")
        tok = self.next()
        if tok[0] != "ident":
            raise ParseError("expected a guard atom", tok[2], tok[3])
        if tok[1] in ("pow2", "prime"):
            self.expect("(")
            self.expect("ident", "k")
            self.expect(")")
            return GuardAtom(kind=tok[1], negated=negated)
        if negated:
            raise ParseError("only pow2/prime atoms can be negated", tok[2], tok[3])
        if tok[1] != "k":
            raise ParseError(f"guard atom must test k, found {tok[1]!r}", tok[2], tok[3])
        op = self.next()
        if op[0] == ">=":
            return GuardAtom(kind="ge", c=self.parse_int())
        if op[0] == "<=":
            return GuardAtom(kind="le", c=self.parse_int())
        if op[0] == "ident" and op[1] == "mod":
            m = self.parse_int()
            self.expect("==")
            r = self.parse_int()
            if m <= 0 or not 0 <= r < m:
                raise ParseError("need modulus > 0 and 0 <= residue < modulus", op[2], op[3])
            return GuardAtom(kind="mod", m=m, r=r)
        raise ParseError("expected '>=', '<=' or 'mod'", op[2], op[3])

    def parse_item(self):
        self.expect("(")
        label = self.parse_expr()
        self.expect(")")
        self.expect("ident", "x")
        mult = self.parse_expr()
        return Item(label=label, mult=mult)

    def parse_interval(self):
        self.expect("ident", "interval")
        self.expect("(")
        lo = self.parse_expr()
        self.expect(",")
        hi = self.parse_expr()
        step = 1
        minus = []
        while self.accept(","):
            tok = self.expect("ident")
            if tok[1] == "step":
                step = self.parse_int()
                if step <= 0:
                    raise ParseError("step must be positive", tok[2], tok[3])
            elif tok[1] == "minus":
                self.expect("{")
                minus.append(self.parse_expr())
                while self.accept(","):
                    minus.append(self.parse_expr())
                self.expect("}")
            else:
                raise ParseError(f"expected 'step' or 'minus', found {tok[1]!r}", tok[2], tok[3])
        self.expect(")")
        return Interval(lo=lo, hi=hi, step=step, minus=tuple(minus))

    def parse_expr(self):
        # Affine combination of 'k' and integers, or a single builtin call.
        a, b = 0, 0
        builtin = None
        sign = 1
        first = True
        while True:
            if not first:
                if self.accept("+"):
                    sign = 1
                elif self.accept("-"):
                    sign = -1
                else:
                    break
            else:
                sign = -1 if self.accept("-") else 1
            term_a, term_b, term_builtin = self.parse_term()
            if term_builtin is not None:
                if not first or sign != 1:
                    self.fail("builtin calls cannot be combined arithmetically")
                builtin = term_builtin
            else:
                a += sign * term_a
                b += sign * term_b
            first = False
        if builtin is not None:
            if a or b:
                self.fail("builtin calls cannot be combined arithmetically")
            return builtin
        return Affine(a=a, b=b)

    def parse_term(self):
        tok = self.peek()
        if tok[0] == "int":
            self.next()
            coeff = tok[1]
            if self.accept("*"):
                var = self.expect("ident")
                if var[1] != "k":
                    raise ParseError("only k can be scaled", var[2], var[3])
                return coeff, 0, None
            return 0, coeff, None
        if tok[0] == "ident" and tok[1] == "k":
            self.next()
            return 1, 0, None
        if tok[0] == "ident" and tok[1] in BUILTIN_ARITY:
            return 0, 0, self.parse_builtin()
        self.fail("expected an integer, 'k' or a builtin call")

    def parse_builtin(self):
        tok = self.expect("ident")
        name = tok[1]
        self.expect("(")
        args = [self.parse_expr()]
        while self.accept(","):
            args.append(self.parse_expr())
        self.expect(")")
        if len(args) != BUILTIN_ARITY[name]:
            raise ParseError(
                f"{name} takes {BUILTIN_ARITY[name]} argument(s), got {len(args)}",
                tok[2],
                tok[3],
            )
        return Builtin(name=name, args=tuple(args))


def parse_spec(text) -> EcoSpec:
    """Parse the textual format into an EcoSpec."""
    return _Parser(text).parse_spec()


# ---------------------------------------------------------------------------
# Printer


def expr_text(e):
    if isinstance(e, Builtin):
        return f"{e.name}({', '.join(expr_text(a) for a in e.args)})"
    a, b = e.a, e.b
    if a == 0:
        return str(b)
    if a == 1:
        head = "k"
    elif a == -1:
        head = "-k"
    else:
        head = f"{a}*k"
    if b == 0:
        return head
    return f"{head}+{b}" if b > 0 else f"{head}-{-b}"


def _atom_text(atom):
    if atom.kind == "ge":
        return f"k >= {atom.c}"
    if atom.kind == "le":
        return f"k <= {atom.c}"
    if atom.kind == "mod":
        return f"k mod {atom.m} == {atom.r}"
    bang = "!" if atom.negated else ""
    return f"{bang}{atom.kind}(k)"


def _item_text(item):
    return f"({expr_text(item.label)}) x {expr_text(item.mult)}"


def spec_to_text(spec) -> str:
    """Render a spec in the canonical textual form (parse round-trips it)."""
    lines = [f"system {spec.name} {{", f"  mode {spec.mode};", f"  axiom {spec.axiom};"]
    for clause in spec.clauses:
        guard = " and ".join(_atom_text(a) for a in clause.guard.atoms) or "always"
        parts = []
        for iv in clause.intervals:
            inner = f"{expr_text(iv.lo)}, {expr_text(iv.hi)}"
            if iv.step != 1:
                inner += f", step {iv.step}"
            if iv.minus:
                inner += ", minus {" + ", ".join(expr_text(e) for e in iv.minus) + "}"
            parts.append(f"interval({inner})")
        for item in clause.items:
            parts.append(_item_text(item))
        lines.append(f"  rule {guard}: {', '.join(parts)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Canonical JSON


def _expr_json(e):
    if isinstance(e, Builtin):
        return {"builtin": e.name, "args": [_expr_json(a) for a in e.args]}
    if e.a == 0:
        return {"const": e.b}
    return {"affine": [e.a, e.b]}


def _expr_from_json(obj):
    if not isinstance(obj, dict):
        raise SpecError(f"bad expression node {obj!r}")
    if "const" in obj:
        return Affine(a=0, b=int(obj["const"]))
    if "affine" in obj:
        a, b = obj["affine"]
        return Affine(a=int(a), b=int(b))
    if "builtin" in obj:
        name = obj["builtin"]
        if name not in BUILTIN_ARITY:
            raise SpecError(f"unknown builtin {name!r}")
        args = tuple(_expr_from_json(a) for a in obj.get("args", ()))
        if len(args) != BUILTIN_ARITY[name]:
            raise SpecError(f"{name} takes {BUILTIN_ARITY[name]} argument(s)")
        return Builtin(name=name, args=args)
    raise SpecError(f"bad expression node {obj!r}")


def _atom_json(a):
    out = {"kind": a.kind}
    if a.kind in ("ge", "le"):
        out["c"] = a.c
    elif a.kind == "mod":
        out["m"] = a.m
        out["r"] = a.r
    else:
        out["negated"] = a.negated
    return out


def _atom_from_json(obj):
    kind = obj.get("kind")
    if kind in ("ge", "le"):
        return GuardAtom(kind=kind, c=int(obj["c"]))
    if kind == "mod":
        m, r = int(obj["m"]), int(obj["r"])
        if m <= 0 or not 0 <= r < m:
            raise SpecError("bad mod atom")
        return GuardAtom(kind="mod", m=m, r=r)
    if kind in ("pow2", "prime"):
        return GuardAtom(kind=kind, negated=bool(obj.get("negated", False)))
    raise SpecError(f"unknown guard atom kind {kind!r}")


def to_canonical_json(spec) -> str:
    """Byte-stable JSON mirror of a spec."""
    obj = {
        "schema": "ecospec/1",
        "name": spec.name,
        "mode": spec.mode,
        "axiom": spec.axiom,
        "clauses": [
            {
                "guard": [_atom_json(a) for a in clause.guard.atoms],
                "items": [
                    {"label": _expr_json(it.label), "mult": _expr_json(it.mult)}
                    for it in clause.items
                ],
                "intervals": [
                    {
                        "lo": _expr_json(iv.lo),
                        "hi": _expr_json(iv.hi),
                        "step": iv.step,
                        "minus": [_expr_json(e) for e in iv.minus],
                    }
                    for iv in clause.intervals
                ],
            }
            for clause in spec.clauses
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def from_canonical_json(text) -> EcoSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("schema") != "ecospec/1":
        raise SpecError("missing or unsupported schema tag (want ecospec/1)")
    for key in ("name", "mode", "axiom", "clauses"):
        if key not in obj:
            raise SpecError(f"missing field {key!r}")
    if obj["mode"] not in ("eco", "walk"):
        raise SpecError(f"bad mode {obj['mode']!r}")
    clauses = []
    for c in obj["clauses"]:
        guard = Guard(tuple(_atom_from_json(a) for a in c.get("guard", ())))
        items = tuple(
            Item(label=_expr_from_json(i["label"]), mult=_expr_from_json(i["mult"]))
            for i in c.get("items", ())
        )
        intervals = []
        for iv in c.get("intervals", ()):
            step = int(iv.get("step", 1))
            if step <= 0:
                raise SpecError("interval step must be positive")
            intervals.append(
                Interval(
                    lo=_expr_from_json(iv["lo"]),
                    hi=_expr_from_json(iv["hi"]),
                    step=step,
                    minus=tuple(_expr_from_json(e) for e in iv.get("minus", ())),
                )
            )
        clauses.append(RuleClause(guard=guard, items=items, intervals=tuple(intervals)))
    return EcoSpec(
        name=str(obj["name"]), mode=obj["mode"], axiom=int(obj["axiom"]), clauses=tuple(clauses)
    )


# ---------------------------------------------------------------------------
# Expansion

# The reachable closure expands no label with more successor labels than this,
# and no label above PROBE; validate_spec and the classify detectors probe
# the labels up to PROBE.
MAX_SUCCESSORS = 100_000
PROBE = 200


def match_clause(spec, k):
    """The unique clause guarding k."""
    hits = [c for c in spec.clauses if c.guard.matches(k)]
    if not hits:
        raise SpecError(f"no clause matches label {k}")
    if len(hits) > 1:
        raise SpecError(f"guards overlap at label {k}")
    return hits[0]


def describe(clause, k):
    """The successor description of a node labeled k under `clause`.

    Returns (points, runs).  `points` holds (label, mult) pairs with
    mult >= 1.  `runs` holds (lo, last, step, cuts): the labels lo, lo+step,
    ..., last (lo <= last) once each, less the labels in `cuts`, a sorted
    tuple of distinct labels on that grid.  Multiplicities of a label that
    appears more than once add up.  A negative multiplicity raises SpecError
    here, and exclusions off the grid are dropped here, so no consumer can
    take a count below zero.
    """
    runs = []
    for iv in clause.intervals:
        lo = eval_expr(iv.lo, k)
        hi = eval_expr(iv.hi, k)
        if lo <= hi:
            step = iv.step
            last = hi - (hi - lo) % step
            cuts = ()
            if iv.minus:
                cuts = {eval_expr(e, k) for e in iv.minus}
                cuts = tuple(sorted(v for v in cuts if lo <= v <= last and (v - lo) % step == 0))
            runs.append((lo, last, step, cuts))
    points = []
    for item in clause.items:
        mult = eval_expr(item.mult, k)
        if mult < 0:
            raise SpecError(f"multiplicity {mult} is negative at label {k}")
        if mult:
            points.append((eval_expr(item.label, k), mult))
    return tuple(points), tuple(runs)


def describer(spec):
    """k -> describe(clause of k, k); each distinct label is matched to its
    clause once, and its description is rebuilt on every call."""
    clause_of = {}

    def describe_label(k):
        clause = clause_of.get(k)
        if clause is None:
            clause = clause_of[k] = match_clause(spec, k)
        return describe(clause, k)

    return describe_label


def expand(desc):
    """{label: multiplicity} of a successor description."""
    points, runs = desc
    out = {}
    get = out.get
    for j, m in points:
        out[j] = get(j, 0) + m
    for lo, last, step, cuts in runs:
        for j in range(lo, last + 1, step):
            out[j] = get(j, 0) + 1
        for j in cuts:
            if out[j] == 1:
                del out[j]
            else:
                out[j] -= 1
    return out


def _arity(desc):
    """Number of successors in a description, counted with multiplicity."""
    points, runs = desc
    return sum(m for _, m in points) + sum(
        (last - lo) // step + 1 - len(cuts) for lo, last, step, cuts in runs
    )


def _lowest_label(desc):
    """Smallest successor label of a description, or None when it has none."""
    points, runs = desc
    lows = [j for j, _ in points]
    for lo, last, step, cuts in runs:
        for v in cuts:  # sorted, so the cut labels at the bottom come first
            if v != lo:
                break
            lo += step
        if lo <= last:
            lows.append(lo)
    return min(lows, default=None)


def _label_sum(desc):
    """Sum of the successor labels of a description, with multiplicity."""
    points, runs = desc
    return sum(j * m for j, m in points) + sum(
        ((last - lo) // step + 1) * (lo + last) // 2 - sum(cuts) for lo, last, step, cuts in runs
    )


def _odd_count(desc):
    """Number of odd successor labels of a description, with multiplicity.
    A run with an odd step alternates parities from lo on; one with an even
    step keeps the parity of lo."""
    points, runs = desc
    total = sum(m for j, m in points if j % 2)
    for lo, last, step, cuts in runs:
        n = (last - lo) // step + 1
        total += ((n + lo % 2) // 2 if step % 2 else n * (lo % 2)) - sum(j % 2 for j in cuts)
    return total


def _at_or_above(desc, t):
    """Number of successors labeled t or more, with multiplicity.  In a run,
    -((lo - t) // step) grid labels lie below t when t > lo, and the cuts at
    or above t are counted by bisecting the sorted cuts, so a description
    costs O(points + runs * log cuts)."""
    points, runs = desc
    total = 0
    for j, m in points:
        if j >= t:
            total += m
    for lo, last, step, cuts in runs:
        total += max(0, (last - lo) // step + 1 + min(0, (lo - t) // step))
        if cuts:
            total -= len(cuts) - bisect_left(cuts, t)
    return total


def _support(desc):
    """The distinct labels of expand(desc), in its key order.

    Listed straight from the points and the runs between their cuts when no
    label can come twice: the point labels are distinct, no point lies on a
    run's grid and no two runs span overlapping ranges.  Otherwise the list
    would repeat a label that `expand` keeps once, so the dict is built."""
    points, runs = desc
    labels = [j for j, _ in points]
    if len(set(labels)) < len(labels):
        return expand(desc)
    if not runs:
        return labels
    for lo, last, step, _ in runs:
        for j in labels:
            if lo <= j <= last and (j - lo) % step == 0:
                return expand(desc)
    spans = sorted((lo, last) for lo, last, _, _ in runs)
    for (_, a_last), (b_lo, _) in zip(spans, spans[1:]):
        if a_last >= b_lo:
            return expand(desc)
    pieces = [labels]
    for lo, last, step, cuts in runs:
        for c in cuts:
            pieces.append(range(lo, c, step))
            lo = c + step
        pieces.append(range(lo, last + 1, step))
    return chain.from_iterable(pieces)


def successors(spec, k) -> Counter:
    """Successor label multiset of a node labeled k.  The library reads
    `describer` and `expand` instead; this stays because
    `perfbench/tracing.py` wraps it by name for `dsl.successors_calls`."""
    return Counter(expand(describe(match_clause(spec, k), k)))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Issue:
    kind: str
    message: str
    k: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    mode: str
    issues: tuple = ()
    clause_symbolic: tuple = ()
    domain_min: int | None = None
    probed_to: int = 0

    def summary(self):
        if self.ok:
            return f"valid ({self.mode} mode, probed to {self.probed_to})"
        lines = [f"invalid ({len(self.issues)} issue(s)):"]
        lines += [f"  [{i.kind}] {i.message}" for i in self.issues]
        return "\n".join(lines)


F0 = Fraction(0)


@dataclass(frozen=True)
class Progression:
    """An interval on one residue class of k, for k >= threshold.

    The grid starts at first(k), holds count(k) labels `step` apart and ends
    at or below hi(k); each form in `removed` hits the grid exactly once and
    is excluded.  `first`, `hi` and the removed forms are integer
    (slope, intercept) pairs, `count` a pair of Fractions.
    """

    first: tuple
    hi: tuple
    step: int
    count: tuple
    removed: tuple
    threshold: int


def _interval_tail(iv, modulus, residue):
    """Progression of iv on the class k = residue mod modulus, or None when
    a bound or exclusion is not affine.  modulus must be a multiple of the
    step."""
    bounds = [expr_affine(e) for e in (iv.lo, iv.hi, *iv.minus)]
    if None in bounds:
        return None
    (la, lb), (ha, hb), forms = bounds[0], bounds[1], bounds[2:]
    da, db = ha - la, hb - lb
    if da < 0 or (da == 0 and db < 0):
        # Eventually empty.
        threshold = max(1, -(-(db + 1) // -da)) if da < 0 else 1
        return Progression((la, lb), (ha, hb), iv.step, (F0, F0), (), threshold)
    # Not empty once da*k + db >= 0.
    threshold = -(db // da) if da > 0 and db < 0 else 1
    rho = (da * residue + db) % iv.step
    count = (Fraction(da, iv.step), Fraction(db - rho, iv.step) + 1)

    def settles(x, y):
        # From which k on x(k) <= y(k) holds, or None when it never settles.
        if x[0] < y[0]:
            return -((y[1] - x[1]) // (y[0] - x[0])) + 1 if y[1] < x[1] else 1
        return 1 if x[0] == y[0] and x[1] <= y[1] else None

    # An exclusion on the grid ends up in range for all large k in the class,
    # and is removed, or out of range for good, and is ignored from then on.
    removed = []
    for e in dict.fromkeys(forms):
        if ((e[0] - la) * residue + e[1] - lb) % iv.step:
            continue
        above_lo = settles((la, lb), e)
        below_hi = above_lo and settles(e, (ha, hb))
        if above_lo is None:
            threshold = max(threshold, settles((e[0], e[1] + 1), (la, lb)))
        elif below_hi is None:
            threshold = max(threshold, above_lo, settles((ha, hb + 1), e))
        else:
            threshold = max(threshold, above_lo, below_hi)
            removed.append(e)
    # Collisions between distinct exclusion forms happen at single labels;
    # push the threshold past them.
    for i, (xa, xb) in enumerate(forms):
        for ya, yb in forms[i + 1 :]:
            if xa != ya:
                threshold = max(threshold, int(Fraction(yb - xb, xa - ya)) + 2)
    return Progression((la, lb), (ha, hb), iv.step, count, tuple(removed), threshold)


@dataclass(frozen=True)
class ClassView:
    """A clause on the labels k = residue mod modulus with k >= threshold.

    `points` holds the items as (label, mult) pairs: mult an integer
    (slope, intercept) pair, the label one too or, for a builtin label, the
    Builtin itself.  `runs` holds the intervals as Progressions.  On such a
    class every weight below is affine in k, and each method folds one of
    them over the successor multiset.
    """

    modulus: int
    residue: int
    points: tuple
    runs: tuple
    threshold: int

    def count(self):
        """(slope, intercept) of the number of successors."""
        slope = sum((m[0] for _, m in self.points), F0)
        inter = sum((m[1] for _, m in self.points), F0)
        for run in self.runs:
            slope += run.count[0]
            inter += run.count[1] - len(run.removed)
        return slope, inter

    def label_sum(self):
        """(slope, intercept) of the successor label sum, or (None, reason)."""
        quad = [F0, F0, F0]  # k^2, k, 1
        calls = Counter()
        for label, (m1, m0) in self.points:
            if isinstance(label, Builtin):
                if m1:
                    return None, f"{label.name} label with a k-dependent multiplicity"
                calls[label] += m0
            else:
                quad[0] += label[0] * m1
                quad[1] += label[0] * m0 + label[1] * m1
                quad[2] += label[1] * m0
        for run in self.runs:
            (la, lb), (fa, fb), s = run.first, run.count, run.step
            # Arithmetic-progression sum: count*first + step*count*(count-1)/2.
            quad[0] += fa * la + s * fa * fa / 2
            quad[1] += fa * lb + fb * la + s * (2 * fa * fb - fa) / 2
            quad[2] += fb * lb + s * (fb * fb - fb) / 2
            for ra, rb in run.removed:
                quad[1] -= ra
                quad[2] -= rb
        # The two half-sums of an even split recombine into an affine form
        # minus the next prime: low(t) + high(t) = 2t + 3 - next_prime(t).
        for low in [b for b in calls if b.name == "goldbach_low"]:
            high = Builtin("goldbach_high", low.args)
            c = calls[low]
            arg = expr_affine(low.args[0])
            if c and calls.get(high) == c and arg is not None:
                del calls[low], calls[high]
                quad[1] += 2 * c * arg[0]
                quad[2] += c * (2 * arg[1] + 3)
                calls[Builtin("next_prime", low.args)] -= c
        if quad[0]:
            return None, "quadratic in k"
        left = [b.name for b, c in calls.items() if c]
        if left:
            return None, f"{left[0]} labels do not cancel"
        return (quad[1], quad[2]), ""

    def odd_count(self):
        """(slope, intercept) of the number of odd successor labels, or
        (None, reason)."""
        r = self.residue
        slope, inter = F0, F0
        for label, (m1, m0) in self.points:
            if isinstance(label, Builtin):
                return None, f"parity of {label.name} labels is unknown"
            if (label[0] * r + label[1]) % 2:
                slope += m1
                inter += m0
        for run in self.runs:
            (la, lb), (fa, fb) = run.first, run.count
            low_odd = (la * r + lb) % 2
            if run.step % 2 == 0:
                # One fixed parity along the whole progression.
                slope += fa * low_odd
                inter += fb * low_odd
            else:
                # Alternating parities; the count's own parity is fixed on the
                # class, which makes the halved counts affine.
                count_par = int(fa * r + fb) % 2
                slope += fa / 2
                inter += (fb + count_par) / 2 if low_odd else (fb - count_par) / 2
            inter -= sum((a * r + t) % 2 for a, t in run.removed)
        return (slope, inter), ""

    def at_or_above(self, b):
        """Certified lower bound (slope, intercept, threshold) on how many
        successors land at or above k - b for large k, or (None, reason)."""
        slope, inter, threshold = F0, F0, self.threshold
        for label, (m1, m0) in self.points:
            if m1 < 0:
                return None, "a multiplicity shrinks as k grows"
            if m1 > 0 and m0 < 0:
                threshold = max(threshold, -(m0 // m1))
            if isinstance(label, Builtin):
                # next_prime(k + t) >= k + t + 1, which clears k - b.
                arg = expr_affine(label.args[0]) if label.name == "next_prime" else None
                if arg is None or arg[0] != 1 or arg[1] < -b - 1:
                    continue
            elif label[0] >= 2:
                threshold = max(threshold, -((label[1] + b) // (label[0] - 1)) + 1)
            elif label[0] != 1 or label[1] < -b:
                continue
            slope += m1
            inter += m0
        for run in self.runs:
            if run.count == (F0, F0):
                continue
            (la, lb), (ha, hb), s = run.first, run.hi, run.step
            if la != 0:
                return None, "an interval's low end moves with k"
            if ha == 0:
                threshold = max(threshold, hb + b + 1)
                continue
            # The grid points below k - b are the first (k - b - lb + rho)/s,
            # rho being the gap from k - b up to the next grid point.
            threshold = max(threshold, lb + b + 1)
            rho = (lb + b - self.residue) % s
            cnt_slope = run.count[0] - Fraction(1, s)
            cnt_inter = run.count[1] - Fraction(rho - b - lb, s)
            if cnt_slope == 0 and cnt_inter <= 0:
                continue
            if cnt_slope > 0 and cnt_inter < 0:
                threshold = max(threshold, int(-cnt_inter / cnt_slope) + 2)
            slope += cnt_slope
            inter += cnt_inter
            for a, t in run.removed:
                if a == 0:
                    # Constant notches fall below k - b once k is large enough.
                    threshold = max(threshold, t + b + 1)
                elif a >= 2:
                    inter -= 1
                    threshold = max(threshold, -((t + b) // (a - 1)) + 1)
                elif t >= -b:
                    inter -= 1
        return (slope, inter, threshold), ""


def class_view(clause, modulus, residue):
    """(ClassView, "") of the clause on k = residue mod modulus, or
    (None, reason) when a multiplicity or an interval bound is not affine.
    modulus must be a multiple of every interval step."""
    points = []
    for item in clause.items:
        mult = expr_affine(item.mult)
        if mult is None:
            return None, f"multiplicity {expr_text(item.mult)} is not affine"
        points.append((expr_affine(item.label) or item.label, mult))
    threshold = max([1] + [a.c for a in clause.guard.atoms if a.kind == "ge"])
    runs = []
    for iv in clause.intervals:
        run = _interval_tail(iv, modulus, residue)
        if run is None:
            return None, "an interval bound or exclusion is not affine"
        runs.append(run)
        threshold = max(threshold, run.threshold)
    return ClassView(modulus, residue, tuple(points), tuple(runs), threshold), ""


def residue_split(clauses, scale=1):
    """Residue classes k = r mod M of the labels past every `k <= c` guard.

    M is the lcm of `scale`, of every `mod` guard and of `scale` times every
    interval step in the open-ended clauses, so each interval grid has a
    fixed offset on each class (and, for scale 2, a fixed parity and count
    parity).  Returns (M, [(r, open-ended clauses whose mod guards admit r)]),
    the list empty when every clause is bounded.  pow2/prime guards are not
    looked at.
    """
    open_ended = [c for c in clauses if all(a.kind != "le" for a in c.guard.atoms)]
    mods = [[a for a in c.guard.atoms if a.kind == "mod"] for c in open_ended]
    steps = [scale * iv.step for c in open_ended for iv in c.intervals]
    modulus = lcm(scale, *(a.m for ms in mods for a in ms), *steps)
    if not open_ended:
        return modulus, []
    return modulus, [
        (r, [c for c, ms in zip(open_ended, mods) if all(r % a.m == a.r for a in ms)])
        for r in range(modulus)
    ]


def _reachable_closure(spec, kprobe, describe_at):
    """(sorted reachable labels from the label floor to kprobe, stop), each
    label lowered through `describe_at`, a `describer(spec)`; this is the
    one walker of reachable labels.

    The floor is 1 in eco mode and 0 in walk mode.  `stop` is None when the
    closure never produced a label outside that range and every label
    expanded cleanly, so the returned set is the entire reachable label set
    of the system; otherwise it is an Issue for the first label that was cut
    off ("label-range" below the floor, "probe" above kprobe), failed to
    expand ("expansion") or has more than MAX_SUCCESSORS successor labels
    ("width", counted before anything is expanded).

    The walk is a depth-first search: each expanded label pushes its unseen
    successor labels in `expand`'s key order, listed by `_support` from the
    description itself, so a label costs O(points + runs + cuts) plus one
    set lookup per listed label, not a multiplicity dict.  Every popped
    label is marked seen, in range or not, so none is pushed or reported
    twice, and an Issue is built only for the first stop.
    """
    floor = 1 if spec.mode == "eco" else 0
    seen = set()
    reach = []
    stop = None
    frontier = [spec.axiom]
    while frontier:
        k = frontier.pop()
        if k in seen:
            continue
        seen.add(k)
        if k < floor or k > kprobe:
            if stop is None:
                if k < floor:
                    stop = Issue("label-range", f"label {k} is below the label floor {floor}", k)
                else:
                    stop = Issue("probe", f"label {k} is beyond probe {kprobe}", k)
            continue
        reach.append(k)
        try:
            desc = describe_at(k)
        except SpecError as exc:
            if stop is None:
                stop = Issue("expansion", f"label {k} does not expand: {exc}", k)
            continue
        # The labels the description lists; multiplicities cost nothing.
        points, runs = desc
        width = len(points)
        for lo, last, step, _ in runs:
            width += (last - lo) // step + 1
        if width <= MAX_SUCCESSORS:
            frontier.extend(filterfalse(seen.__contains__, _support(desc)))
        elif stop is None:
            stop = Issue(
                "width",
                f"label {k} has {width} successor labels, more than {MAX_SUCCESSORS}",
                k,
            )
    reach.sort()
    return reach, stop


def validate_spec(spec) -> ValidationReport:
    """Check the structural laws: guard coverage, arity, label positivity.

    The arity law (eco mode: a node labeled k has exactly k successors) is
    checked symbolically per clause where the clause is affine, and by direct
    expansion on every reachable label up to PROBE.  A symbolic mismatch on
    an open-ended clause is only an error when labels beyond the probed set
    can actually occur: finite-label systems are routinely written with a
    catch-all tail clause that the tree never enters, and for those the
    exhaustive numeric sweep is authoritative.
    """
    issues = []
    if spec.mode not in ("eco", "walk"):
        issues.append(Issue("mode", f"unknown mode {spec.mode!r}"))
        return ValidationReport(ok=False, mode=spec.mode, issues=tuple(issues))
    label_floor = 1 if spec.mode == "eco" else 0
    if spec.axiom < label_floor:
        issues.append(Issue("axiom", f"axiom {spec.axiom} below {label_floor}"))

    # Guard coverage from the smallest guarded label on.
    domain_min = None
    for k in range(label_floor, PROBE + 1):
        hits = sum(1 for c in spec.clauses if c.guard.matches(k))
        if domain_min is None:
            if hits:
                domain_min = k
            continue
        if hits == 0:
            issues.append(Issue("guard-gap", f"no clause matches label {k}", k))
            break
        if hits > 1:
            issues.append(Issue("guard-overlap", f"{hits} clauses match label {k}", k))
            break
    if domain_min is None:
        issues.append(Issue("guard-gap", "no label is guarded at all"))
    elif spec.axiom < domain_min:
        issues.append(Issue("axiom", f"axiom {spec.axiom} has no matching clause"))

    describe_at = describer(spec)
    reach, reach_stop = _reachable_closure(spec, PROBE, describe_at)
    if reach_stop is not None and reach_stop.kind == "width":
        issues.append(reach_stop)

    # Symbolic arity per clause (eco mode only).
    symbolic = []
    if spec.mode == "eco":
        for idx, clause in enumerate(spec.clauses):
            modulus, split = residue_split([clause])
            views = [class_view(clause, modulus, r)[0] for r, owners in split if owners]
            if not views:
                symbolic.append(f"clause {idx}: bounded guard, numeric probes only")
                continue
            if any(v is None for v in views):
                symbolic.append(f"clause {idx}: skipped (non-affine parts)")
                continue
            bad = [v for v in views if v.count() != (1, 0)]
            if bad:
                (a, b), m, r = bad[0].count(), bad[0].modulus, bad[0].residue
                if reach_stop is None:
                    # The whole reachable label set is in hand; the numeric
                    # sweep below decides, and the off-law guard region is
                    # provably never entered.
                    symbolic.append(
                        f"clause {idx}: count is {a}k+{b} on k = {r} mod {m}; "
                        "deferred to the exhaustive reachable sweep"
                    )
                    continue
                why = f"clause {idx}: count is {a}k+{b} on k = {r} mod {m}, want k"
                issues.append(Issue("arity-symbolic", why))
                symbolic.append(f"clause {idx}: FAILED")
            else:
                thr = max(v.threshold for v in views)
                if thr > PROBE:
                    why = f"clause {idx}: tail threshold {thr} beyond probe {PROBE}"
                    issues.append(Issue("arity-symbolic", why))
                symbolic.append(f"clause {idx}: count = k for k >= {thr}")
    else:
        symbolic.append("walk mode: arity law not applicable")

    # Numeric probes along reachable labels.
    for k in reach:
        try:
            desc = describe_at(k)
        except SpecError as exc:
            issues.append(Issue("expansion", str(exc), k))
            continue
        count = _arity(desc)
        if spec.mode == "eco" and count != k:
            issues.append(Issue("arity", f"label {k} produces {count} successors, want {k}", k))
        low = _lowest_label(desc)
        if low is not None and low < label_floor:
            issues.append(Issue("label-range", f"label {k} produces label {low}", k))

    return ValidationReport(
        ok=not issues,
        mode=spec.mode,
        issues=tuple(issues),
        clause_symbolic=tuple(symbolic),
        domain_min=domain_min,
        probed_to=PROBE,
    )
