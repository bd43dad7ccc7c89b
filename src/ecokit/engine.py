"""Exact level-by-level enumeration, backward counts and uniform sampling.

Everything here runs on Python integers, so the counts are exact at any
depth.  Every routine reads successors through `dsl.describer`: for each
label, points (label, mult) and runs (lo, last, step, cuts) of labels spaced
`step` apart, less the cut labels.  Forward propagation is one generator,
``iter_levels``, which holds only the current level; ``count_levels`` reads
per-level totals (and label sums on request) from the same propagation,
which folds each level as it is made, ahead of its step.  Two forward
propagation methods are provided, and ``auto``, the default, is a name for
``range``:

* ``naive`` expands each label's description once into (successor label,
  multiplicity) pairs and applies them to every level the label populates.
  It is the oracle for the other.
* ``range`` records two difference events per run, keyed by (step, residue
  of lo), and rebuilds the next level with one running sum
  (``itertools.accumulate``) per key.  On interval-heavy systems a level
  then costs about (number of distinct labels) instead of (sum of run
  lengths).  A level of at least ``_ROW_MIN_LABELS`` labels whose span is
  near their number is held as a list indexed by label, and on each
  residue class k = r mod M where one affine clause guards every label
  from a threshold on (``dsl.residue_split``, ``dsl.class_view``) the class
  is batched: each point, each run end and each cut is one strided slice
  operation over the class's counts, with no per-label description.  The
  layout (``_dense_layout``) takes those counts as one slice of the level's
  list, from the first to the last nonzero count at or above the threshold,
  and bounds the next level's span by the class's label and run-end forms
  (``_Class.ends``) at the slice's two ends.  When no label of the level
  was lowered one at a time, the first batched point assigns its weights
  to the fresh next level instead of adding them to zeros.  A point label
  ``ceil_div(a*k + b, q)`` with a constant q is batched too: M is widened
  until q divides a*M, so on each class the label is the exact integer
  quotient (a*k + b + c) // q for a fixed c, and steps by a*M // q.
  Labels below a class threshold (a ``k <= c`` guard, a multiplicity still
  below 1, a run not yet of its affine shape), labels of classes
  ``class_view`` rejects (a builtin interval bound, exclusion or
  multiplicity) or a pow2/prime guard tests, labels of any other builtin,
  and every label of any other level are lowered one at a time;
  ``stats["fallback_labels"]`` counts them.  On a spec with intervals the
  descriptions of the labels below the highest class threshold, a bounded
  set, are kept from level to level.  A level is a read-only ``Row``
  over its list of counts exactly when ``_is_dense`` holds for its labels,
  else a dict (``_level_of``), so a dense level stays a list from step to
  step and ``count_levels`` sums that list directly: the label sum too,
  from the list's running sums from the top (``_row_fold``), with no
  multiply per label: one running sum for a level of at most
  ``_FOLD_CHUNK`` labels, a chunk at a time for a longer one.
  On a spec without intervals, whose labels are a few points each, every
  label lowered one at a time goes through ``naive``'s cached (label,
  multiplicity) pairs instead of a new description on each visit.  A dict
  level of at least ``_ROW_MIN_LABELS`` labels is then batched too, by
  ``_class_step`` over each class's lists of labels and counts: an affine
  or ``ceil_div`` point label maps all the class's labels in one pass.

A level's fold, its (total, label sum or None), goes into the range step.
A batched target that does not move with k is one write of the class's S0
(sum of counts) and S1 (of labels times counts): c*S1 + d*S0 for a constant
point label of multiplicity c*k + d, S0 for a run's constant lo or end.
When one batched class holds every label not lowered alone, S0 and S1 are
the fold less the lone labels'; when that class also has ``moments``, the
step returns the next level's fold (``_class_fold``), else it is
``_fold``.  Only ``count_levels`` passes folds; when the plan is that one
class, its folds carry label sums even if only totals are asked for.

``stats["update_ops"]`` counts the updates a method made: for ``naive`` one
per (populated label, distinct successor label) pair; for ``range`` one per
point, two per run, one per cut and one per label the rebuild writes.  The
batched route counts the same: per class, the per-label ops times the
nonzero counts of its slice, and per (step, residue) key, the nonzero
entries of the rebuilt running sum.  On a spec without intervals ``range``
counts a label lowered through the cached pairs as ``naive`` does, and a
label of a batched class, on a Row or a dict level, one per point of its
clause.  Without a label cap, propagation still stops (marked truncated)
before a run wider than ``dsl.MAX_SUCCESSORS``, and before its cached
pairs pass ``NAIVE_PAIRS`` when it keeps them; see ``stop_text``.

The back table's closure (``_closure``) holds the labels reachable at each
depth, each layer a ``Row`` whose flags and counts are one bytes object of
0/1 when dense, else a dict of ones, and keeps each dense layer's
``_dense_layout``.  Its first layers are the range step of the one before
on levels of ones.  That step's support F is a union over labels, and it
grows with its layer, so once a layer R_d holds R_{d-p} for a period p of
1, 2 or 3, so does every later one, and R_{d+1} is R_{d+1-p} plus
F(R_d - R_{d-p}): only the labels a layer gained are described
(semi-naive evaluation).  A Row grows by one slice write of the earlier
layer's flags, a dict by the gained labels; a layer that gains nothing is
the earlier layer itself, with its layout.  A Row that gained more than
1/``_GAIN_RATIO`` of its labels, and every layer of a closure that never
nests, takes the full step.
``back_table`` builds each row from that layout as the transpose of the
step: on a dense layer each batched residue class reads a point as one
strided slice of the padded previous row times its affine multiplicity, a
run as the difference of two strided slices of its per-(step, residue)
prefix array, and a removed label as a strided slice taken away, and
writes its counts as one strided slice of a ``Row`` over the layer's
flags.  Other labels are lowered one at a time, each run summed from the
same kind of prefix sums, into a dict row.  The table stops, raising
``TableBudgetError``, before its cells (charged ``_CELL_BITS`` each in the
closure) plus the bits of its counts pass ``BACK_BITS``.  ``WalkSampler``
reuses the closure's cached descriptions and memoizes a flat draw entry per
(label, remaining depth): the total, its bit length, the successor labels
and the prefix sums of their weights, read from a ``Row``'s list by index.
It draws with the ``getrandbits`` rejection loop that ``Random.randrange``
runs, so a seed gives the same walks as one ``randrange`` per step.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain, compress, count, islice, repeat
from math import gcd, inf, lcm
from operator import add, mul, sub
from random import Random

from .dsl import (
    MAX_SUCCESSORS,
    Builtin,
    SpecError,
    class_view,
    describer,
    expand,
    expr_affine,
    residue_split,
)


class LabelCapError(SpecError):
    """A level would hold more distinct labels than the cap allows; `level`
    is the last one that fit."""

    def __init__(self, cap, level):
        super().__init__(stop_text(("cap", cap), level))
        self.cap = cap
        self.level = level


# The label cap of the analysis commands: a classify report's propagation
# (and the CLI's guess and sample) stops before a level with more distinct
# labels than this, and the report marks its series partial.
LABEL_CAP = 100_000

# The naive route keeps every lowered label's (successor, multiplicity)
# pairs, about 100 bytes each, and stops before the label that would take it
# past this many.  Through level 600 (bench's naive cap) only even_jumps
# passes it, at level 12; quinary holds the most of the rest, 2,883,591.
# range keeps them on a spec without intervals, only for the labels it lowers
# one at a time: the labels of a batched class, on a Row or a dict level,
# cache no pairs.
NAIVE_PAIRS = 4_000_000

# The back table charges each cell its count's bit length plus _CELL_BITS for
# the label's entries in its closure layer and its row (about 130 bytes in
# CPython), and stops before the charge passes BACK_BITS.  Under an 800 MiB
# address-space limit, `sample --count 1` on the catalog systems ran out of
# memory at 3.0e9 bits for permutations and 3.3e9 for fibonacci, whose walk's
# draw entries copy nearly every count of their narrow layers once more, and
# at 5.1e9 to 6.4e9 for the other systems (even_jumps meets its label cap
# first).  BACK_BITS is three quarters of the largest charge permutations
# still fit (2.9e9 at n=20500, 771 MiB peak RSS).  Walks then stop from
# catalan n=1394, motzkin 1442, bell 1066, permutations 17827 and fibonacci
# 54162.
BACK_BITS = 2**31
_CELL_BITS = 1024

# The words for a stats["budget"] (kind, limit).
_BUDGETS = {
    "cap": "label cap {}",
    "width": "width budget of {} labels per successor run",
    "pairs": "naive budget of {} cached successor pairs",
    "bits": "back-table budget of {} stored bits",
}


def stop_text(budget, level):
    """Why a table ends early: its stats["budget"] and last level."""
    return f"{_BUDGETS[budget[0]].format(budget[1])} exceeded after level {level}"


class _OverCap(Exception):
    """A run alone puts more distinct labels into the next level than the cap
    allows, found before any of them is written; or args[0], the (kind,
    limit) of another budget that would be exceeded."""


def _check_runs(runs, cap):
    # A run of L grid labels less its cuts holds L - len(cuts) distinct labels.
    for lo, last, step, cuts in runs:
        if (last - lo) // step - len(cuts) >= cap:
            raise _OverCap


@dataclass
class CountTable:
    """Per-level results of a propagation: totals[n] nodes at depth n and,
    when asked for, label_sums[n], the sum of their labels."""

    mode: str
    totals: list
    label_sums: list | None = None
    stats: dict = field(default_factory=dict)

    @property
    def depth(self):
        return len(self.totals) - 1


def _next_level_naive(level, succ):
    """(next level, update ops, labels lowered one at a time: all of them)
    from each label's expanded successors."""
    nxt = {}
    get = nxt.get
    ops = 0
    for k, c in level.items():
        pairs = succ(k)
        for j, m in pairs:
            nxt[j] = get(j, 0) + c * m
        ops += len(pairs)
    return nxt, ops, len(level)


# ---------------------------------------------------------------------------
# Range propagation: per-label events on sparse levels, strided slices of a
# dense level on the residue classes an affine clause covers


# A level goes dense when its label span is at most this many times its
# number of labels, plus the slack, and at least the modulus; the next
# level's span must keep the same ratio to a bound on its number of labels.
_DENSE_RATIO = 4
_DENSE_SLACK = 64
# A batched level or back-table row costs about 10 us up front and a label
# lowered alone about 1 us (more with runs), so a level or closure layer of
# fewer labels is a dict, stepped and read label by label.
_ROW_MIN_LABELS = 8
# Each residue class costs a class view up front and a slice per level, so
# specs whose guards and steps need a larger modulus are not batched.
_MAX_MODULUS = 1024


@dataclass(frozen=True)
class _Class:
    """An affine clause on the labels k = residue mod modulus, k >= threshold.

    Forms are integer (slope, intercept) pairs in k.  `points` holds
    (label, multiplicity form), every multiplicity at least 1 from the
    threshold on, the label an integer triple (a, b, q) that stands for the
    exact quotient (a*k + b) // q: q is 1 for an affine label, and for a
    `ceil_div` label q divides a times the modulus, so the labels of the
    class step by a*modulus // q.  `runs` holds (lo form, end form, step,
    removed forms), `end` being one step past the last grid label.  `ops` is
    the update ops one label of the class costs: one per point, two per run
    and one per removed label.  `moments`: no runs, and every point's label
    or multiplicity is constant, so the label sum of the class's successors
    is affine in its S0 and S1 (`_class_fold`).  `ends` holds (a, b, q) of
    each point label and each run's lo and last grid label, so a slice of
    labels k0..k1 reaches labels between their values at k0 and at k1;
    `widths` holds (end - lo form, step, number removed) of each run.
    """

    threshold: int
    points: tuple
    runs: tuple
    ops: int
    moments: bool
    ends: tuple
    widths: tuple


def _quotient(label):
    """(a, b, q) of a builtin label ceil_div(a*k + b, q) with a constant
    divisor q >= 1, or None for any other builtin label."""
    if label.name != "ceil_div":
        return None
    num, den = map(expr_affine, label.args)
    if num is None or den is None or den[0] or den[1] < 1:
        return None
    return (*num, den[1])


def _class_of(clauses, modulus, residue, floor):
    """The _Class of one residue class, or None when its labels must be
    lowered one at a time: no single open-ended clause guards it, a guard
    tests pow2 or prime, a label is neither affine nor a `ceil_div` of an
    affine form by a constant, a bound is not affine, or a multiplicity
    turns negative."""
    if len(clauses) != 1:
        return None
    (clause,) = clauses
    if any(a.kind in ("pow2", "prime") for a in clause.guard.atoms):
        return None
    view, _ = class_view(clause, modulus, residue)
    if view is None:
        return None
    threshold = max(view.threshold, floor)
    points = []
    for label, (c, d) in view.points:
        if c < 0 or (c == 0 and d < 0):
            return None
        if isinstance(label, Builtin):
            label = _quotient(label)
            if label is None:
                return None
            a, b, q = label
            # q divides a*modulus, so a*k + b keeps its residue mod q on the
            # class, and rounding up adds the same amount to every label.
            label = (a, b + (-(a * residue + b)) % q, q)
        else:
            label = (*label, 1)
        if c:
            # c*k + d >= 1 from here on.
            threshold = max(threshold, -((d - 1) // c))
        if c or d:
            points.append((label, (c, d)))
    runs = []
    for run in view.runs:
        if run.count != (0, 0):  # else empty from the threshold on
            (la, lb), s = run.first, run.step
            end = (la + int(s * run.count[0]), lb + int(s * run.count[1]))
            runs.append(((la, lb), end, s, run.removed))
    ops = len(points) + sum(2 + len(run[3]) for run in runs)
    moments = not runs and all(not a or not c for (a, _, _), (c, _) in points)
    ends = [label for label, _ in points]
    ends += [f for (la, lb), (ea, eb), s, _ in runs for f in ((la, lb, 1), (ea, eb - s, 1))]
    widths = tuple(((ea - la, eb - lb), s, len(rm)) for (la, lb), (ea, eb), s, rm in runs)
    return _Class(threshold, tuple(points), tuple(runs), ops, moments, tuple(ends), widths)


def _class_plan(spec):
    """(modulus, [_Class or None for each residue]) for the batched step, or
    None when no residue class can be batched.  Labels up to every `k <= c`
    guard are left to the per-label route, so a bounded clause never meets
    a batched label.  The modulus of `dsl.residue_split` is widened until
    each `ceil_div(a*k + b, q)` label's q divides a times it."""
    steps = [a.m for c in spec.clauses for a in c.guard.atoms if a.kind == "mod"]
    steps += [iv.step for c in spec.clauses for iv in c.intervals]
    labels = [i.label for c in spec.clauses for i in c.items if isinstance(i.label, Builtin)]
    divisors = [q // gcd(a, q) for a, _, q in filter(None, map(_quotient, labels))]
    if lcm(*steps, *divisors) > _MAX_MODULUS:
        return None
    modulus, split = residue_split(spec.clauses)
    if not split:
        return None
    floor = 1 + max(
        (a.c for c in spec.clauses for a in c.guard.atoms if a.kind == "le"), default=0
    )
    # The guards' mod atoms divide residue_split's modulus, so a residue r of
    # the wider one is guarded as r mod that modulus is.
    wide = lcm(modulus, *divisors)
    classes = [_class_of(split[r % modulus][1], wide, r, floor) for r in range(wide)]
    if not any(classes):
        return None
    return wide, classes


def _strided(arr, start, stride, n, weights, op):
    """arr[start + t*stride] = op(arr[start + t*stride], weights[t]) for
    t < n, or = weights[t] when op is None; a zero stride folds every weight
    into arr[start].  The n slots must lie inside arr: a stride-1 slice that
    held fewer would be resized by the assignment."""
    if stride:
        stop = start + stride * n
        sl = slice(start, stop if stop >= 0 else None, stride)
        arr[sl] = weights if op is None else map(op, arr[sl], weights)
    elif op is None:
        arr[start] = sum(weights)
    else:
        arr[start] = op(arr[start], sum(weights))


def _sparse_step(items, describe, cap):
    """(next level, update ops) from per-label difference events on the runs,
    each (step, residue of lo) key rebuilt with one running sum."""
    nxt, cuts = {}, {}
    get = nxt.get
    events = {}  # (step, residue of lo) -> {label: signed change}
    ops = 0
    for k, c in items:
        points, runs = describe(k)
        if cap is not None:
            _check_runs(runs, cap)
        for j, m in points:
            nxt[j] = get(j, 0) + c * m
        ops += len(points)
        for lo, last, step, cut in runs:
            key = (step, lo % step)
            ev = events.get(key)
            if ev is None:
                ev = events[key] = {}
            ev[lo] = ev.get(lo, 0) + c
            end = last + step
            ev[end] = ev.get(end, 0) - c
            ops += 2 + len(cut)
            for j in cut:
                cuts[j] = cuts.get(j, 0) + c
    for (step, _), ev in events.items():
        marks = sorted(ev)
        running = list(accumulate(ev[x] for x in marks))
        if running[-1]:
            raise SpecError("difference map did not close")
        for lo, end, run in zip(marks, marks[1:], running):
            if run:
                for j in range(lo, end, step):
                    nxt[j] = get(j, 0) + run
                ops += (end - lo) // step
    for j, c in cuts.items():
        left = nxt[j] - c
        if left < 0:
            raise SpecError(f"negative count at label {j}")
        if left:
            nxt[j] = left
        else:
            del nxt[j]
    return nxt, ops


def _read(arr, start, stride, n):
    """arr[start + t*stride] for t < n; a zero stride repeats arr[start]."""
    if not stride:
        return repeat(arr[start], n)
    stop = start + stride * n
    return arr[start : stop if stop >= 0 else None : stride]


def _dense_layout(cur, base, plan, describe, cap):
    """How a level held as the list `cur` (indexed by label - base) splits
    for the batched step: (lone, batches, low, high), or None when the labels
    it reaches would be too sparse for a list.

    `lone` holds (label, count, description) of each label lowered one at a
    time; `batches` holds (class, k0, counts) per batched residue class, the
    counts of k0, k0 + modulus, ... up to the last nonzero one, one slice of
    cur; low..high spans every label a point, run or cut of the level can
    reach."""
    modulus, classes = plan
    size = len(cur)
    lone, batches = [], []
    for r, cls in enumerate(classes):
        i = (r - base) % modulus
        stop = size if cls is None else min(size, max(i, cls.threshold - base))
        if i < stop:
            lone += [(base + j, cur[j]) for j in range(i, stop, modulus) if cur[j]]
        if stop < size:
            # The class's first and last slots at or above its threshold,
            # moved in to its first and last nonzero counts.
            j = stop + (i - stop) % modulus
            last = j + (size - 1 - j) // modulus * modulus
            if j <= last and not cur[j]:
                j = next(compress(count(j, modulus), cur[j : last + 1 : modulus]), size)
            if j <= last:
                if not cur[last]:
                    last = next(compress(count(last, -modulus), cur[last:j:-modulus]), j)
                batches.append((cls, base + j, cur[j : last + 1 : modulus]))

    # Widths and the next level's span, before anything is written.
    described = [(k, c, describe(k)) for k, c in lone]
    low, high, bound = inf, -inf, 0
    for _, _, (points, runs) in described:
        if cap is not None:
            _check_runs(runs, cap)
        bound += len(points)
        for j, _ in points:
            if j < low:
                low = j
            if j > high:
                high = j
        for lo, last, step, _ in runs:
            bound += (last - lo) // step + 1
            if lo < low:
                low = lo
            if last > high:
                high = last
    for cls, k0, counts in batches:
        n = len(counts)
        k1 = k0 + modulus * (n - 1)
        for a, b, q in cls.ends:
            x, y = (a * k0 + b) // q, (a * k1 + b) // q
            if x > y:
                x, y = y, x
            if x < low:
                low = x
            if y > high:
                high = y
        bound += n * len(cls.points)
        for (wa, wb), s, removed in cls.widths:
            width = wa * k1 + wb
            if cap is not None and width // s - 1 - removed >= cap:
                raise _OverCap
            bound += n * width // s
    if low > high:
        # A level that reaches no label gets a one-label span.
        low = high = base
    if high - low > _DENSE_RATIO * bound + _DENSE_SLACK:
        return None
    return described, batches, low, high


def _class_fold(fold, batches, lone):
    """((S0, S1), next fold or None) of a level whose labels are those of the
    one class in `batches` and `lone`, (label, count, (points, runs)) each.
    S0 and S1, the class's sum of counts and of labels times counts, are the
    level's `fold` (total, label sum or None) less the lone labels'; they are
    None without a fold or one class, S1 when the fold's label sum is.  When
    S1 is known, the class has `moments` and no lone label has runs, the next
    level's (total, label sum) follows: a point (a*k + b) // q of
    multiplicity c*k + d carries w = c*S1 + d*S0 nodes, whose labels sum to
    (b // q)*w when a = 0 and to d*(a*S1 + b*S0) // q when c = 0, as q
    divides a*k + b on the class."""
    if not fold or len(batches) != 1:
        return (None, None), None
    cls = batches[0][0]
    s0, s1 = fold
    moments = s1 is not None and cls.moments
    t0 = t1 = 0
    for k, c, (points, runs) in lone:
        s0 -= c
        if s1 is not None:
            s1 -= k * c
        moments = moments and not runs
        if moments:
            for j, m in points:
                t0 += m * c
                t1 += j * m * c
    if not moments:
        return (s0, s1), None
    for (a, b, q), (c, d) in cls.points:
        w = c * s1 + d * s0
        t0 += w
        t1 += d * (a * s1 + b * s0) // q if a else b // q * w
    return (s0, s1), (t0, t1)


# What `_class_fold` gives a level without a fold: no sums, no next fold.
_NO_FOLD = ((None, None), None)


def _diff(diffs, step, residue, low, high):
    """A new (lowest grid label, difference array) of the (step, residue)
    grid over low..high, stored in `diffs`."""
    g0 = low + (residue - low) % step
    diffs[(step, residue)] = g0, [0] * ((high - g0) // step + 2)
    return diffs[(step, residue)]


def _dense_core(layout, plan, fold=None):
    """(next level as a list indexed by label - low, low, update ops, labels
    lowered one at a time, its fold or None) from a level's `_dense_layout`.
    Its first and last entries may be 0.

    Each batched class adds its slice of counts to strided slices: a point
    to the next level, a run's two ends to the difference array of its
    (step, residue) key, a removed label to the next level with a minus
    sign.  The labels lowered one at a time add their descriptions into
    the same arrays first.  A batched point or a rebuilt key that writes
    into a next level nothing has written to yet assigns its weights
    instead of adding them to zeros.  The layout's span holds every target,
    so each strided slice has exactly its n slots.  A target that does not
    move with k reads the class's sums (see the module docstring)."""
    modulus = plan[0]
    described, batches, low, high = layout
    sums, moved = _class_fold(fold, batches, described) if fold else _NO_FOLD
    nxt = [0] * (high - low + 1)
    diffs = {}  # (step, residue) -> (lowest grid label, difference array)
    ops, cut = 0, False
    for _, c, (points, runs) in described:
        for j, m in points:
            nxt[j - low] += c * m
        ops += len(points)
        for lo, last, step, cuts in runs:
            g0, d = diffs.get((step, lo % step)) or _diff(diffs, step, lo % step, low, high)
            d[(lo - g0) // step] += c
            d[(last - g0) // step + 1] -= c
            ops += 2 + len(cuts)
            for j in cuts:
                nxt[j - low] -= c
                cut = True
    fresh = not described
    for cls, k0, counts in batches:
        n = len(counts)
        ops += cls.ops * (n - counts.count(0))
        s0, s1 = sums
        for (a, b, q), (c, d) in cls.points:
            if not a:
                if c and s1 is None:
                    w = sum(map(mul, counts, range(c * k0 + d, c * (k0 + modulus * n) + d, c * modulus)))
                else:
                    s0 = sum(counts) if s0 is None else s0
                    w = d * s0 + (c * s1 if c else 0)
                j = b // q - low
                nxt[j] = w if fresh else nxt[j] + w
                fresh = False
                continue
            if c:
                weights = map(mul, counts, range(c * k0 + d, c * (k0 + modulus * n) + d, c * modulus))
            else:
                weights = counts if d == 1 else map(mul, counts, repeat(d))
            op = None if fresh else add
            _strided(nxt, (a * k0 + b) // q - low, a * modulus // q, n, weights, op)
            fresh = False
        for (la, lb), (ea, eb), s, removed in cls.runs:
            r = (la * k0 + lb) % s
            g0, d = diffs.get((s, r)) or _diff(diffs, s, r, low, high)
            if la:
                _strided(d, (la * k0 + lb - g0) // s, la * modulus // s, n, counts, add)
            else:
                s0 = sum(counts) if s0 is None else s0
                d[(lb - g0) // s] += s0
            if ea:
                _strided(d, (ea * k0 + eb - g0) // s, ea * modulus // s, n, counts, sub)
            else:
                s0 = sum(counts) if s0 is None else s0
                d[(eb - g0) // s] -= s0
            for ra, rb in removed:
                _strided(nxt, ra * k0 + rb - low, ra * modulus, n, counts, sub)
                cut, fresh = True, False
    for (step, _), (g0, d) in diffs.items():
        running = list(accumulate(d))
        if running.pop():
            raise SpecError("difference map did not close")
        ops += len(running) - running.count(0)
        sl = slice(g0 - low, None, step)
        nxt[sl] = running if fresh else map(add, nxt[sl], running)
        fresh = False
    if cut and min(nxt) < 0:
        raise SpecError(f"negative count at label {low + nxt.index(min(nxt))}")
    return nxt, low, ops, len(described), moved


def _is_dense(plan, base, top, size):
    """Whether a level of `size` labels from base to top is a list that goes
    through the batched step of `plan`: at least _ROW_MIN_LABELS labels,
    spanning at least the modulus and not much more than their number."""
    return (
        size >= _ROW_MIN_LABELS
        and plan is not None
        and plan[0] <= top - base + 1 <= _DENSE_RATIO * size + _DENSE_SLACK
    )


class Row(Mapping):
    """A read-only mapping over a list of counts: vals[i] is the count at
    label base + i, and the labels are those whose flags[i] is set.  row[k]
    looks up label k, len(row) is `size`, the number of labels, and the row
    equals the {label: count} dict it stands for.

    A dense forward level is a Row with flags = vals, so its labels are the
    nonzero counts.  A dense closure layer's flags and vals are one bytes
    object of 0/1, and a back-table row on it takes those flags, its vals 0
    off them."""

    __slots__ = ("base", "flags", "vals", "size")

    def __init__(self, base, flags, vals, size):
        self.base, self.flags, self.vals, self.size = base, flags, vals, size

    def __getitem__(self, k):
        i = k - self.base
        if 0 <= i < len(self.flags) and self.flags[i]:
            return self.vals[i]
        raise KeyError(k)

    def __contains__(self, k):
        i = k - self.base
        return 0 <= i < len(self.flags) and bool(self.flags[i])

    def __len__(self):
        return self.size

    def __iter__(self):
        return compress(count(self.base), self.flags)

    def values(self):
        """The counts of the labels, in increasing label order."""
        return compress(self.vals, self.flags)

    def items(self):
        return zip(self, self.values())


def _trim(nxt, low, plan):
    """(base, vals, size, dense) of a `_dense_core` result `nxt`, the counts
    of labels low, low + 1, ...: vals is nxt with its zero ends stripped (in
    place), base the label of vals[0], size the number of nonzero counts, and
    dense whether `_is_dense` keeps such a level a list."""
    a, b = 0, len(nxt)
    while a < b and not nxt[a]:
        a += 1
    while b > a and not nxt[b - 1]:
        b -= 1
    del nxt[b:], nxt[:a]
    size = b - a - nxt.count(0)
    return low + a, nxt, size, _is_dense(plan, low + a, low + b - 1, size)


def _level_of(level, plan):
    """A dict of nonzero counts as the range step holds it: a Row over its
    list of counts when `_is_dense` holds for its labels, else the dict.
    Its labels are only scanned for their span when `plan` batches a class,
    there are enough of them, and the first and last labels written are not
    already too far apart for a list."""
    size = len(level)
    if plan is None or size < _ROW_MIN_LABELS:
        return level
    if abs(next(reversed(level)) - next(iter(level))) >= _DENSE_RATIO * size + _DENSE_SLACK:
        return level
    base, top = min(level), max(level)
    if _is_dense(plan, base, top, size):
        vals = list(map(level.get, range(base, top + 1), repeat(0)))
        return Row(base, vals, vals, size)
    return level


def _merge(nxt, part):
    """The dicts of counts nxt and part added together, into the larger one:
    one `dict.update` when their labels are disjoint, else label by label."""
    if len(part) > len(nxt):
        nxt, part = part, nxt
    if nxt.keys().isdisjoint(part):
        nxt.update(part)
    else:
        get = nxt.get
        for j, w in part.items():
            nxt[j] = get(j, 0) + w
    return nxt


def _class_step(level, plan, pairs, fold):
    """(next level, update ops, labels lowered one at a time, its fold or
    None) of a point-rule level that is not a batched Row, stepped per
    residue class of `plan` over the class's lists of labels and counts.

    A point label a*k + b (or its exact quotient by q) of a batched class
    maps every label of the class in one pass, its weights the counts times
    the multiplicity c*k + d.  A constant label receives c*S1 + d*S0 once,
    with S0 the sum of the class's counts and S1 of its labels times their
    counts (see the module docstring).  Labels below a class threshold and
    the labels of an unbatched class step through naive's cached `pairs`
    first."""
    modulus, classes = plan
    if modulus == 1:
        groups = {0: (list(level), list(level.values()))}
    else:
        groups = {}
        for k, c in level.items():
            r = k % modulus
            if r not in groups:
                groups[r] = ([], [])
            keys, counts = groups[r]
            keys.append(k)
            counts.append(c)
    lone, batches = {}, []
    for r, (keys, counts) in groups.items():
        cls = classes[r]
        if cls is None:
            lone.update(zip(keys, counts))
            continue
        t = cls.threshold
        if min(keys) < t:
            lone.update((k, c) for k, c in zip(keys, counts) if k < t)
            keys, counts = _split([(k, c) for k, c in zip(keys, counts) if k >= t])
        if keys:
            batches.append((cls, keys, counts))
    nxt, ops, lowered = _next_level_naive(lone, pairs)
    sums, moved = _class_fold(fold, batches, ((k, c, (pairs(k), ())) for k, c in lone.items()))
    for cls, keys, counts in batches:
        ops += cls.ops * len(keys)
        s0, s1 = sums
        for (a, b, q), (c, d) in cls.points:
            if not a:
                if s0 is None:
                    s0 = sum(counts)
                if c and s1 is None:
                    s1 = sum(map(mul, keys, counts))
                nxt[b // q] = nxt.get(b // q, 0) + d * s0 + (c * s1 if c else 0)
                continue
            if q == 1:
                targets = [a * k + b for k in keys]
            else:
                targets = [(a * k + b) // q for k in keys]
            if c:
                weights = map(mul, counts, [c * k + d for k in keys])
            else:
                weights = counts if d == 1 else map(mul, counts, repeat(d))
            nxt = _merge(nxt, dict(zip(targets, weights)))
    return nxt, ops, lowered, moved


def _next_level_range(level, describe, plan, cap=None, pairs=None, fold=None, layouts=None):
    """(next level, update ops, labels lowered one at a time, the next
    level's fold or None).

    A Row level goes through `_dense_core` with the batched classes of
    `plan` (from `_class_plan`) unless its layout is None; any other level
    is lowered label by label.  The next level is a Row (flags = vals) when
    `_is_dense` holds for its labels, else a dict.  _OverCap, before any
    label is written, when a single run is wider than `cap` labels.  With
    `layouts`, a list, the level's `_dense_layout` (None for a level lowered
    label by label) is appended to it.

    With `pairs`, naive's cached (label, mult) pairs of a spec without
    intervals, a level that does not take `_dense_core` is not described
    again: it steps through `_next_level_naive` on those pairs when it has
    fewer than _ROW_MIN_LABELS labels or `plan` batches no class, else
    through `_class_step`.  `_dense_core` and `_class_step` read the level's
    `fold` (total, label sum or None) and give the next level's from it
    when its one batched class has `moments`; every other route gives None."""
    layout = None
    # Row is a Mapping, so isinstance would run the abc check on every level.
    if type(level) is Row:
        layout = _dense_layout(level.vals, level.base, plan, describe, cap)
    if layouts is not None:
        layouts.append(layout)
    if layout is not None:
        nxt, low, ops, lowered, moved = _dense_core(layout, plan, fold)
        base, vals, size, dense = _trim(nxt, low, plan)
        if dense:
            return Row(base, vals, vals, size), ops, lowered, moved
        return dict(compress(zip(count(base), vals), vals)), ops, lowered, moved
    moved = None
    if pairs is None:
        nxt, ops = _sparse_step(level.items(), describe, cap)
        lowered = len(level)
    elif plan is None or len(level) < _ROW_MIN_LABELS:
        nxt, ops, lowered = _next_level_naive(level, pairs)
    else:
        nxt, ops, lowered, moved = _class_step(level, plan, pairs, fold)
    return _level_of(nxt, plan), ops, lowered, moved


# The labels whose descriptions the range step keeps (`_kept_below`) stop
# here, so a spec guarded by `k <= c` for a large c keeps at most this many.
_KEPT_LABELS = 4096


def _kept_below(describe, plan):
    """`describe`, keeping the descriptions of the labels 0 <= k below the
    highest class threshold of `plan` and below _KEPT_LABELS: a dense level
    lowers these one at a time whenever it holds them."""
    top = max((cls.threshold for cls in plan[1] if cls), default=0) if plan else 0
    top = min(top, _KEPT_LABELS)
    if top <= 0:
        return describe
    kept = {}

    def lower(k):
        if 0 <= k < top:
            desc = kept.get(k)
            if desc is None:
                desc = kept[k] = describe(k)
            return desc
        return describe(k)

    return lower


def iter_levels(spec, n, method="auto", max_labels=None, stats=None):
    """Yield the label counts {label: nodes} of levels 0..n of the generating
    tree, one read-only mapping at a time, with no zero-count label: a dict,
    or for a dense range level a Row over its list of counts, whose labels
    iterate in increasing order.  Only the current level is held, and no
    level is folded into a total.

    `method` is "naive" or "range" (see the module docstring); "auto" is
    another name for "range", and its stats read method "range".
    `stats`, when given, is filled as the levels go: method, levels,
    update_ops, peak_labels and (range) fallback_labels are current after
    each yield, and seconds (wall time to exhaustion, the consumer's time
    between levels included), with truncated and budget when a budget
    stopped the tree, are added once the generator is exhausted.
    `max_labels` caps the number of distinct labels per level: systems
    whose label support widens exponentially stop early instead of
    exhausting memory, with fewer than n+1 levels (recorded in
    stats["truncated"], and as (kind, limit) in stats["budget"]).  A level
    with one run wider than the cap is cut from its descriptions, before
    any of its labels is written, and its update ops are not counted.
    Without a cap, a run wider than MAX_SUCCESSORS labels stops the tree the
    same way; naive, and range on a spec without intervals, also stop
    before their cached pairs pass NAIVE_PAIRS.  ValueError, when iteration
    starts, for n < 0 or an unknown method.
    """
    for level, _ in _levels(spec, n, method, max_labels, stats, None):
        yield level


# Suffix sums per piece of a Row's fold (`_fold`): a whole level's list of
# them read a few percent more peak RSS on the count benchmark.
_FOLD_CHUNK = 256


def _row_fold(base, vals):
    """(total, label sum) of the counts vals at labels base, base + 1, ...

    With S_i the sum of vals[i:], the total is S_0 and the label sum
    sum((base + i) * vals[i]) is (base - 1) * S_0 + sum(S_i): each S_i is
    one running add from the top, with no multiply per label.  A row of at
    most _FOLD_CHUNK counts takes one running sum, a longer one a chunk at
    a time."""
    if len(vals) <= _FOLD_CHUNK:
        part = list(accumulate(reversed(vals), initial=0))
        return part[-1], (base - 1) * part[-1] + sum(part)
    top = reversed(vals)
    total = sigma = 0
    for _ in range(0, len(vals), _FOLD_CHUNK):
        part = list(accumulate(islice(top, _FOLD_CHUNK), initial=total))
        total = part[-1]
        sigma += sum(part) - part[0]
    return total, (base - 1) * total + sigma


def _fold(level, label_sums):
    """(total, label sum or None) of a level, the label sum only with
    `label_sums`: a Row's from the suffix sums of its counts (`_row_fold`),
    a dict's as the sum of its labels times their counts."""
    if type(level) is Row:
        if label_sums:
            return _row_fold(level.base, level.vals)
        return sum(level.vals), None
    total = sum(level.values())
    return total, sum(map(mul, level.keys(), level.values())) if label_sums else None


def _levels(spec, n, method, max_labels, stats, label_sums):
    """(level, fold) for each level `iter_levels` yields.  With `label_sums`
    None the fold is None; else it is the level's (total, label sum or
    None), taken ahead of the level's step, which reads it and may hand back
    the next level's (`_class_fold`); every other fold is `_fold`.  The label
    sum is also carried under False when the range plan is one class with
    `moments`, which folds the next level only when S1 is known."""
    if n < 0:
        raise ValueError(f"level count needs n >= 0, got {n}")
    if method == "auto":
        method = "range"
    if method not in ("naive", "range"):
        raise ValueError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    describe = describer(spec)
    width = MAX_SUCCESSORS if max_labels is None else max_labels
    budget = ("width" if max_labels is None else "cap", width)
    held = 0

    @cache
    def expanded(k):
        nonlocal held
        desc = describe(k)
        _check_runs(desc[1], width)
        pairs = tuple(expand(desc).items())
        held += len(pairs)
        if held > NAIVE_PAIRS:
            raise _OverCap(("pairs", NAIVE_PAIRS))
        return pairs

    plan = cached = None
    if method == "naive":

        def step(level, fold):
            return (*_next_level_naive(level, expanded), None)

    else:
        plan = _class_plan(spec)
        if any(c.intervals for c in spec.clauses):
            # A run's pairs would take its width, and levels can double in
            # width per level (up to the label cap), so range describes a
            # label again on each visit and keeps only the descriptions of
            # the few labels below the class thresholds.
            lower = _kept_below(describe, plan)
        else:
            # A point label's pairs are a few entries, NAIVE_PAIRS bounds
            # them all, and they stand in for a description with no runs.
            cached, lower = expanded, lambda k: (expanded(k), ())

        def step(level, fold):
            return _next_level_range(level, lower, plan, width, cached, fold)

        if label_sums is False and plan is not None and plan[0] == 1 and plan[1][0].moments:
            # One class with moments folds the next level from S1, with no
            # per-label work, so the fold carries label sums even when the
            # caller reads only totals.
            label_sums = True

    if stats is None:
        stats = {}
    stats.update(method=method, levels=0, update_ops=0, peak_labels=1)
    if method == "range":
        stats["fallback_labels"] = 0
    level = {spec.axiom: 1}
    fold = None if label_sums is None else _fold(level, label_sums)
    yield level, fold
    stop = None
    for _ in range(n):
        try:
            level, done, lowered, moved = step(level, fold)
        except _OverCap as exc:
            stop = exc.args[0] if exc.args else budget
            break
        # A level over the cap is dropped, but the work it took is counted.
        stats["update_ops"] += done
        if method == "range":
            stats["fallback_labels"] += lowered
        size = len(level)
        if max_labels is not None and size > max_labels:
            stop = budget
            break
        stats["levels"] += 1
        if size > stats["peak_labels"]:
            stats["peak_labels"] = size
        if label_sums is not None:
            fold = moved or _fold(level, label_sums)
        yield level, fold
    stats["seconds"] = round(time.perf_counter() - t0, 6)
    if stop:
        stats["truncated"] = True
        stats["budget"] = stop


def count_levels(spec, n, method="auto", max_labels=None, label_sums=False) -> CountTable:
    """Totals (and, with `label_sums`, label sums) of levels 0..n with one
    level in memory at a time; the stats are those `iter_levels` fills.
    Each level is folded inside the propagation, ahead of its step, which
    reads the fold and may give the next level's (`_class_fold`) without
    multiplying any label by its count; that route carries label sums even
    when they are not asked for, and only the totals are kept then."""
    stats = {}
    totals = []
    sums = [] if label_sums else None
    for _, (total, label_sum) in _levels(spec, n, method, max_labels, stats, label_sums):
        totals.append(total)
        if label_sums:
            sums.append(label_sum)
    return CountTable(mode=spec.mode, totals=totals, label_sums=sums, stats=stats)


def total_series(spec, order, method="auto", max_labels=None):
    """The first `order` level totals f_0 .. f_{order-1} (fewer when a
    `max_labels` width cap stops the propagation early)."""
    if order <= 0:
        return []
    return count_levels(spec, order - 1, method=method, max_labels=max_labels).totals


# ---------------------------------------------------------------------------
# Backward counts: trees hanging below a label


class TableBudgetError(SpecError):
    """The back table (closure layers and rows) would pass BACK_BITS."""

    def __init__(self, level):
        super().__init__(stop_text(("bits", BACK_BITS), level))
        self.level = level


# The periods p for which the closure tests whether R_{d-p} is within R_d;
# walk_notch1's layers nest only three apart, motzkin's two.
_PERIODS = (1, 2, 3)
# A label the closure gains costs its first description, about as much as
# _GAIN_RATIO labels of a batched Row step, so a Row layer that gained more
# than 1/_GAIN_RATIO of its labels steps in full.
_GAIN_RATIO = 16


def _ones(level):
    """The closure layer of a range level: a Row whose flags and vals are
    one bytes object of 0/1, or a dict mapping each label to 1."""
    if isinstance(level, Row):
        flags = bytes(map(bool, level.vals))
        return Row(level.base, flags, flags, level.size)
    return dict.fromkeys(level, 1)


def _within(small, big):
    """Whether every label of the layer `small` is a label of `big`."""
    return len(small) <= len(big) and all(map(big.__contains__, small))


def _missing(prior, lo, last, step):
    """The labels lo, lo + step, ..., last that are not labels of the layer
    `prior`: on a Row's span, the zero flags of one strided slice."""
    if type(prior) is not Row:
        return set(range(lo, last + 1, step)).difference(prior)
    base, flags = prior.base, prior.flags
    top = base + len(flags) - 1
    out = list(range(lo, min(last + 1, base), step))
    # a is the first grid label from base on, b the last up to top.
    a, b = lo + max(0, base - lo + step - 1) // step * step, min(last, top)
    if a <= b:
        part = flags[a - base : b - base + 1 : step]
        i = part.find(0)
        while i >= 0:
            out.append(a + i * step)
            i = part.find(0, i + 1)
    out += range(lo + max(0, top - lo + step) // step * step, last + 1, step)
    return out


def _gained(delta, prior, describe, cap):
    """The labels outside the layer `prior` that the labels `delta` reach:
    their points, and each run's labels less its own cuts.  The runs of one
    (step, residue) grid are merged before `_missing` scans them, and a cut
    label they reach stays only when a point reaches it or a run that does
    not cut it covers it.  _OverCap when a run is wider than `cap` labels."""
    points, runs = set(), []
    for k in delta:
        pairs, own = describe(k)
        if cap is not None:
            _check_runs(own, cap)
        points.update(j for j, _ in pairs)
        runs += own
    grids = {}
    for lo, last, step, _ in runs:
        grids.setdefault((step, lo % step), []).append((lo, last))
    got = set()
    for (step, _), spans in grids.items():
        spans.sort()
        lo, last = spans[0]
        for a, b in spans[1:]:
            if a > last + step:
                got.update(_missing(prior, lo, last, step))
                lo = a
            last = max(last, b)
        got.update(_missing(prior, lo, last, step))
    cut = {j for *_, cuts in runs for j in cuts}
    for j in (got & cut) - points:
        if not any(
            lo <= j <= last and not (j - lo) % step and j not in cuts
            for lo, last, step, cuts in runs
        ):
            got.discard(j)
    got.update(j for j in points if j not in prior)
    return got


def _grown(prior, gained, plan):
    """The layer of the labels of `prior` and `gained`, none of them in
    prior: a Row when `_is_dense` holds for them, its flags prior's copied
    by one slice write, else a dict of ones."""
    size = len(prior) + len(gained)
    ends = (prior.base, prior.base + len(prior.flags) - 1) if type(prior) is Row else prior
    low, high = min(chain(ends, gained)), max(chain(ends, gained))
    if not _is_dense(plan, low, high, size):
        return dict.fromkeys(chain(prior, gained), 1)
    flags = bytearray(high - low + 1)
    if type(prior) is Row:
        flags[prior.base - low : prior.base - low + len(prior.flags)] = prior.flags
        prior = ()
    for j in chain(prior, gained):
        flags[j - low] = 1
    flags = bytes(flags)
    return Row(low, flags, flags, size)


def _closure(spec, n, max_labels, describe, plan):
    """(layers R_0..R_n, layouts): R_d holds the labels reachable in d
    steps, each with count 1, and layouts[d] is the `_dense_layout` of R_d
    (None for a dict, or a Row too sparse to lay out) for d < n.

    Each layer is the range step of the one before, batched by `plan`, with
    its counts reset to 1 (`_ones`), until R_{d-p} is within R_d for a
    period p of _PERIODS.  The step's support F is a union over labels, so
    from then on R_{d+1} = R_{d+1-p} + F(D_d), with D_d = R_d - R_{d-p} the
    labels R_d gained (`_gained`): only those are described.  A layer that
    gains nothing is R_{d+1-p} itself, with its layout.  A Row that gained
    more than 1/_GAIN_RATIO of its labels takes the full step.

    LabelCapError when a layer would hold more than max_labels labels;
    TableBudgetError when the layers' cells, charged _CELL_BITS each, pass
    BACK_BITS.  Both name the last layer that fit."""
    layers, layouts = [{spec.axiom: 1}], []
    cells, period, gained = 1, None, None
    for depth in range(1, n + 1):
        layer = layers[-1]
        if period is not None:
            older = layers[-1 - period]  # R_{d-1-p}, within the layer
        try:
            if period is None or type(layer) is Row and (
                len(layer) - len(older)
            ) * _GAIN_RATIO > len(layer):
                level = _ones(_next_level_range(layer, describe, plan, max_labels, layouts=layouts)[0])
                if period is None:
                    period = next((p for p in _PERIODS[:depth] if _within(layers[-p], level)), None)
                gained = None
            else:
                if gained is None:
                    gained = [k for k in layer if k not in older]
                if layer is older:
                    layout = layouts[-period]
                elif type(layer) is Row:
                    layout = _dense_layout(layer.flags, layer.base, plan, describe, max_labels)
                else:
                    layout = None
                layouts.append(layout)
                prior = layers[-period]
                if gained:
                    gained = _gained(gained, prior, describe, max_labels)
                level = _grown(prior, gained, plan) if gained else prior
        except _OverCap:
            raise LabelCapError(max_labels, depth - 1) from None
        if max_labels is not None and len(level) > max_labels:
            raise LabelCapError(max_labels, depth - 1)
        cells += len(level)
        if cells * _CELL_BITS > BACK_BITS:
            raise TableBudgetError(depth - 1)
        layers.append(level)
    return layers, layouts


def _split(pairs):
    """([first items], [second items]) of a list of pairs."""
    return [a for a, _ in pairs], [b for _, b in pairs]


def _run_sum(row, prefix, lo, last, step):
    """Sum of row[j] over the labels j of row on the grid lo, lo+step, ..., last.

    `prefix` caches, per (step, residue), the row's labels of that residue in
    increasing order and their running sums.
    """
    key = (step, lo % step)
    hit = prefix.get(key)
    if hit is None:
        labels = sorted(j for j in row if j % step == key[1])
        hit = prefix[key] = (labels, [0, *accumulate(row[j] for j in labels)])
    labels, sums = hit
    return sums[bisect_right(labels, last)] - sums[bisect_left(labels, lo)]


def _sparse_row(labels, prev, describe):
    """{k: sum of prev over the successors of k} for k in labels, one label
    at a time."""
    if isinstance(prev, Row):
        prev = dict(prev.items())
    prefix, row = {}, {}
    # Every successor of a label in the layer is a label of prev; a cut
    # label may be missing from it.
    for k in labels:
        points, runs = describe(k)
        total = sum(mult * prev[j] for j, mult in points)
        for lo, last, step, cuts in runs:
            total += _run_sum(prev, prefix, lo, last, step)
            total -= sum(prev.get(j, 0) for j in cuts)
        row[k] = total
    return row


def _padded(prev, low, high):
    """The counts of the row `prev` on labels low..high, 0 off its labels.
    prev's labels are successors of the layer, all within low..high, so a
    Row's list fits inside."""
    if not isinstance(prev, Row):
        return list(map(prev.get, range(low, high + 1), repeat(0)))
    vals = [0] * (high - low + 1)
    i = prev.base - low
    vals[i : i + len(prev.vals)] = prev.vals
    return vals


def _dense_row(layer, layout, prev, plan):
    """The row of `_sparse_row` on a closure layer as a Row, the transpose
    of `_dense_core` on the `_dense_layout` the layer was stepped with, or
    None when that layout is None (the layer is a dict, or was too sparse
    to lay out).

    prev becomes a zero-padded list; each batched class reads a point as one
    strided slice times its multiplicity, a run as the difference of two
    strided slices of a per-(step, residue) prefix array and a removed label
    as a strided slice taken away, and writes its counts as one strided
    slice of the row."""
    if layout is None:
        return None
    base, flags = layer.base, layer.flags
    described, batches, low, high = layout
    modulus = plan[0]
    vals = _padded(prev, low, high)
    prefix = {}  # (step, residue) -> (lowest grid label, running sums from 0)

    def sums(step, residue):
        hit = prefix.get((step, residue))
        if hit is None:
            g0 = low + (residue - low) % step
            hit = prefix[(step, residue)] = (g0, [0, *accumulate(vals[g0 - low :: step])])
        return hit

    row = [0] * len(flags)
    for k, _, (points, runs) in described:
        total = sum(m * vals[j - low] for j, m in points)
        for lo, last, step, cuts in runs:
            g0, q = sums(step, lo % step)
            total += q[(last - g0) // step + 1] - q[(lo - g0) // step]
            total -= sum(vals[j - low] for j in cuts)
        row[k - base] = total
    for cls, k0, present in batches:
        n = len(present)
        acc = None  # the first term is taken as it is, not added to zeros
        for (a, b, q), (c, d) in cls.points:
            got = _read(vals, (a * k0 + b) // q - low, a * modulus // q, n)
            if c:
                got = map(mul, got, range(c * k0 + d, c * (k0 + modulus * n) + d, c * modulus))
            elif d != 1:
                got = map(mul, got, repeat(d))
            acc = list(got) if acc is None else list(map(add, acc, got))
        for (la, lb), (ea, eb), s, removed in cls.runs:
            g0, q = sums(s, (la * k0 + lb) % s)
            ends = _read(q, (ea * k0 + eb - g0) // s, ea * modulus // s, n)
            los = _read(q, (la * k0 + lb - g0) // s, la * modulus // s, n)
            got = map(sub, ends, los)
            acc = list(got) if acc is None else list(map(add, acc, got))
            for ra, rb in removed:
                acc = list(map(sub, acc, _read(vals, ra * k0 + rb - low, ra * modulus, n)))
        if acc is None:
            continue
        # The class's slots that are not labels of the layer hold 0.
        if 0 in present:
            acc = map(mul, acc, present)
        i = k0 - base
        row[i : i + modulus * n : modulus] = acc
    return Row(base, flags, row, len(layer))


class BackTable(list):
    """The rows g[0..n] of a back table, with how they were built: the
    cached describer the closure filled (`describe`), the table's `cells`,
    and the seconds spent on the closure and on the rows.  A row on a dense
    closure layer is a Row, on a sparse one a dict."""

    def __init__(self, rows, describe, cells, closure_seconds, rows_seconds):
        super().__init__(rows)
        self.describe = describe
        self.cells = cells
        self.closure_seconds = closure_seconds
        self.rows_seconds = rows_seconds


def back_table(spec, n, max_labels=None):
    """g[m][k] = walks of length m starting at label k, for k reachable at depth n-m.

    g[n][axiom] equals the level-n total of count_levels, which gives an
    independent route to the same number.  LabelCapError when a closure
    layer would hold more than `max_labels` labels, TableBudgetError when
    the table would pass BACK_BITS; each names the last closure layer or
    table row that fit.  The rows come back as a BackTable.
    """
    describe = cache(describer(spec))
    t0 = time.perf_counter()
    plan = _class_plan(spec)
    layers, layouts = _closure(spec, n, max_labels, describe, plan)
    t1 = time.perf_counter()
    cells = sum(map(len, layers))
    # The bottom row is layer n: its counts are all 1, one bit each.
    g = [layers[n]]
    charged = _CELL_BITS * cells + len(layers[n])
    for m in range(1, n + 1):
        layer, prev = layers[n - m], g[-1]
        row = _dense_row(layer, layouts.pop(), prev, plan)
        if row is None:
            row = _sparse_row(layer, prev, describe)
            charged += sum(map(int.bit_length, row.values()))
        else:
            charged += sum(map(int.bit_length, row.vals))
        if charged > BACK_BITS:
            raise TableBudgetError(m - 1)
        g.append(row)
    return BackTable(g, describe, cells, t1 - t0, time.perf_counter() - t1)


# ---------------------------------------------------------------------------
# Uniform sampling


class WalkSampler:
    """Draw uniform random root-to-level-n walks (label sequences).

    In eco mode a walk of length n is exactly one size-n object of the
    enumerated class, so the draw is uniform over the class.  Two descent
    strategies are available and consume identical randomness:

    * ``sequential``: one ``randrange(g[rem][k])`` per step, then walk the
      successor list subtracting weights (the oracle);
    * ``binary``: a flat draw entry per (label, remaining depth), built
      lazily and memoized: the total, its bit length, the successor labels
      and the prefix sums of their weights.  The draw is the rejection loop
      of ``Random.randrange`` on ``getrandbits``, so it takes the same bits
      from the generator, then a binary search picks the successor.

    `g`, the BackTable, also holds its cells and its closure and row seconds.
    """

    def __init__(self, spec, n, max_labels=None):
        self.spec = spec
        self.n = n
        self.g = back_table(spec, n, max_labels)
        self.total = self.g[n][spec.axiom]
        describe = self.g.describe
        # The labels are those of the back table, which the label cap bounds.
        self._children = cache(lambda k: _split(sorted(expand(describe(k)).items())))
        self._draws = [{} for _ in range(n + 1)]
        # The binary descent's (draw entries, remaining depth) per step.
        self._descent = [(self._draws[rem], rem) for rem in range(n, 0, -1)]

    @property
    def draw_entries(self):
        """How many (label, remaining depth) draw entries are memoized."""
        return sum(map(len, self._draws))

    def _weighted_children(self, k, rem):
        """The successor labels of k in increasing order and an iterator over
        their weights: multiplicity times the count below at rem - 1."""
        labels, mults = self._children(k)
        below = self.g[rem - 1]
        if isinstance(below, Row):
            counts = map(below.vals.__getitem__, map(sub, labels, repeat(below.base)))
        else:
            counts = map(below.__getitem__, labels)
        return labels, map(mul, mults, counts)

    def _draw_entry(self, k, rem):
        labels, weights = self._weighted_children(k, rem)
        sums = list(accumulate(weights))
        # The last prefix sum is the count g[rem][k].
        entry = self._draws[rem][k] = (sums[-1], sums[-1].bit_length(), labels, sums)
        return entry

    def sample(self, rng, strategy="binary"):
        if strategy not in ("sequential", "binary"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if isinstance(rng, int):
            rng = Random(rng)
        if self.total == 0:
            raise SpecError("no walks of the requested length")
        k = self.spec.axiom
        walk = [k]
        if strategy == "binary":
            getrandbits, entry = rng.getrandbits, self._draw_entry
            for draws, rem in self._descent:
                total, bits, labels, sums = draws.get(k) or entry(k, rem)
                r = getrandbits(bits)
                while r >= total:
                    r = getrandbits(bits)
                k = labels[bisect_right(sums, r)]
                walk.append(k)
            return walk
        for rem in range(self.n, 0, -1):
            r = rng.randrange(self.g[rem][k])
            for j, w in zip(*self._weighted_children(k, rem)):
                if r < w:
                    k = j
                    break
                r -= w
            else:
                raise SpecError("weights did not cover the draw")
            walk.append(k)
        return walk


def sample_walks(spec, n, count, seed, strategy="binary", max_labels=None):
    """Draw `count` independent uniform walks with one seeded generator.

    LabelCapError when a level reachable within n steps holds more than
    `max_labels` labels; TableBudgetError when the back table would pass
    BACK_BITS.
    """
    sampler = WalkSampler(spec, n, max_labels)
    rng = Random(seed)
    return [sampler.sample(rng, strategy=strategy) for _ in range(count)]
