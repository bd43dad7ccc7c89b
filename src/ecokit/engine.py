"""Exact level-by-level enumeration, backward counts and uniform sampling.

Everything here runs on Python integers, so the counts are exact at any
depth.  Every routine reads successors through `dsl.describer`: for each
label, points (label, mult) and runs (lo, last, step, cuts) of labels spaced
`step` apart, less the cut labels.  Forward propagation is one generator,
``iter_levels``, which holds only the current level; ``count_levels`` folds
it into per-level totals (and label sums on request).  Two forward
propagation methods are provided:

* ``naive`` expands each label's description once into (successor label,
  multiplicity) pairs and applies them to every level the label populates.
  It is the oracle for the others.
* ``range`` records two difference events per run, keyed by (step, residue
  of lo), and rebuilds the next level with one running sum
  (``itertools.accumulate``) per key.  On interval-heavy systems a level
  then costs about (number of distinct labels) instead of (sum of run
  lengths).  A level whose label span is near its number of labels is held
  as a list indexed by label, and on each residue class k = r mod M where
  one affine clause guards every label from a threshold on
  (``dsl.residue_split``, ``dsl.class_view``) the class is batched: each
  point, each run end and each cut is one strided slice operation over the
  class's counts, with no per-label description.  Labels below a class
  threshold (a ``k <= c`` guard, a multiplicity still below 1, a run not
  yet of its affine shape), labels of classes ``class_view`` rejects or a
  pow2/prime guard tests, and every label of a sparse level (span much
  wider than its number of labels) are lowered one at a time as before;
  ``stats["fallback_labels"]`` counts them.  A dense level stays a list from
  step to step: the batched step's result, its zero ends stripped
  (``_trim``, which the back table's closure shares), is the next level
  while it is still dense, wrapped in a read-only ``Row`` whose flags are
  its counts, and ``count_levels`` sums that list directly.  Only a sparse
  level is a dict; a dict level that turns dense is spread into a list
  once.

``stats["update_ops"]`` counts the updates a method made: for ``naive`` one
per (populated label, distinct successor label) pair; for ``range`` one per
point, two per run, one per cut and one per label the rebuild writes.  The
batched route counts the same: per class, the per-label ops times the
nonzero counts of its slice, and per (step, residue) key, the nonzero
entries of the rebuilt running sum.  Without a label cap, propagation still
stops (marked truncated) before a run wider than ``dsl.MAX_SUCCESSORS``, and
``naive`` before its cached pairs pass ``NAIVE_PAIRS``; see ``stop_text``.

The back table's closure (``_closure``) pushes a level of ones through the
range step and keeps its support.  A dense layer stays a list from end to
end: its base label and a bytes object of 0/1 flags over its span, which is
the level the batched step reads, and whose counts become the next layer's
flags with no dict between.  Only sparse layers are sets.  ``back_table``
builds each row as the transpose of that step: on a dense layer of at least
``_ROW_MIN_LABELS`` labels the previous row is padded by slicing, each
batched residue class reads a point as one strided slice times its affine
multiplicity, a run as the difference of two strided slices of the row's
per-(step, residue) prefix array, and a removed label as a strided slice
taken away, and writes its counts as one strided slice of a list over the
layer's span.  The row is a ``Row``: a read-only mapping over that list
whose ``row[k]`` looks up label k, whose ``len`` is the layer's number of
labels and which equals the {label: count} dict it stands for.  Labels below
a class threshold and every label of a sparse or small layer are lowered one
at a time, each run summed from the same kind of prefix sums, into a dict
row.  The table stops, raising ``TableBudgetError``, before its cells
(charged ``_CELL_BITS`` each in the closure) plus the bits of its counts
pass ``BACK_BITS``.  ``WalkSampler`` reuses the closure's cached
descriptions and memoizes a flat draw entry per (label, remaining depth):
the total, its bit length, the successor labels and the prefix sums of
their weights, read from a ``Row``'s list by index.  It draws with the
``getrandbits`` rejection loop that ``Random.randrange`` runs, so a seed
gives the same walks as one ``randrange`` per step.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate, compress, count, repeat
from math import lcm
from operator import add, mul, sub
from random import Random

from .dsl import (
    MAX_SUCCESSORS,
    Builtin,
    SpecError,
    class_view,
    describer,
    expand,
    residue_split,
)


class LabelCapError(SpecError):
    """A level holds more distinct labels than the cap allows."""

    def __init__(self, cap, level):
        super().__init__(f"label cap {cap} exceeded at level {level}")
        self.cap = cap
        self.level = level


# The naive route keeps every lowered label's (successor, multiplicity)
# pairs, about 100 bytes each, and stops before the label that would take it
# past this many.  Through level 600 (bench's naive cap) only even_jumps
# passes it, at level 12; quinary holds the most of the rest, 2,883,591.
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
# A batched back-table row costs about 10 us up front and a label lowered
# alone about 1 us (more with runs), so rows of fewer labels go label by label.
_ROW_MIN_LABELS = 8
# Each residue class costs a class view up front and a slice per level, so
# specs whose guards and steps need a larger modulus are not batched.
_MAX_MODULUS = 1024


@dataclass(frozen=True)
class _Class:
    """An affine clause on the labels k = residue mod modulus, k >= threshold.

    Forms are integer (slope, intercept) pairs in k.  `points` holds
    (label form, multiplicity form), every multiplicity at least 1 from the
    threshold on; `runs` holds (lo form, end form, step, removed forms),
    `end` being one step past the last grid label.  `ops` is the update ops
    one label of the class costs: one per point, two per run and one per
    removed label.
    """

    threshold: int
    points: tuple
    runs: tuple
    ops: int


def _class_of(clauses, modulus, residue, floor):
    """The _Class of one residue class, or None when its labels must be
    lowered one at a time: no single open-ended clause guards it, a guard
    tests pow2 or prime, a label or bound is not affine, or a multiplicity
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
        if isinstance(label, Builtin) or c < 0 or (c == 0 and d < 0):
            return None
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
    return _Class(threshold, tuple(points), tuple(runs), ops)


def _class_plan(spec):
    """(modulus, [_Class or None for each residue]) for the batched step, or
    None when no residue class can be batched.  Labels up to every `k <= c`
    guard are left to the per-label route, so a bounded clause never meets
    a batched label."""
    steps = [a.m for c in spec.clauses for a in c.guard.atoms if a.kind == "mod"]
    if lcm(*steps, *(iv.step for c in spec.clauses for iv in c.intervals)) > _MAX_MODULUS:
        return None
    modulus, split = residue_split(spec.clauses)
    floor = 1 + max(
        (a.c for c in spec.clauses for a in c.guard.atoms if a.kind == "le"), default=0
    )
    classes = [_class_of(clauses, modulus, r, floor) for r, clauses in split]
    if not any(classes):
        return None
    return modulus, classes


def _strided(arr, start, stride, n, weights, op):
    """arr[start + t*stride] = op(arr[start + t*stride], weights[t]) for
    t < n; a zero stride folds every weight into arr[start]."""
    if stride:
        stop = start + stride * n
        sl = slice(start, stop if stop >= 0 else None, stride)
        arr[sl] = map(op, arr[sl], weights)
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
    counts of k0, k0 + modulus, ... up to the last nonzero one; low..high
    spans every label a point, run or cut of the level can reach."""
    modulus, classes = plan
    size = len(cur)
    lone, batches = [], []
    for r, cls in enumerate(classes):
        i = (r - base) % modulus
        stop = size if cls is None else min(size, max(i, cls.threshold - base))
        lone += [(base + j, cur[j]) for j in range(i, stop, modulus) if cur[j]]
        if stop < size:
            j = stop + (i - stop) % modulus
            counts = cur[j::modulus]
            if any(counts):
                a, b = 0, len(counts)
                while not counts[a]:
                    a += 1
                while not counts[b - 1]:
                    b -= 1
                batches.append((cls, base + j + a * modulus, counts[a:b]))

    # Widths and the next level's span, before anything is written.
    described = [(k, c, describe(k)) for k, c in lone]
    ends, bound = [], 0
    for _, _, (points, runs) in described:
        if cap is not None:
            _check_runs(runs, cap)
        ends += [j for j, _ in points]
        ends += [x for lo, last, _, _ in runs for x in (lo, last)]
        bound += len(points) + sum((last - lo) // step + 1 for lo, last, step, _ in runs)
    for cls, k0, counts in batches:
        k1 = k0 + modulus * (len(counts) - 1)
        ends += [a * k + b for (a, b), _ in cls.points for k in (k0, k1)]
        bound += len(counts) * len(cls.points)
        for (la, lb), (ea, eb), s, removed in cls.runs:
            lo, end = la * k1 + lb, ea * k1 + eb
            if cap is not None and (end - lo) // s - 1 - len(removed) >= cap:
                raise _OverCap
            ends += [la * k0 + lb, la * k1 + lb, ea * k0 + eb - s, end - s]
            bound += len(counts) * (end - lo) // s
    # A level that reaches no label gets a one-label span.
    low, high = (min(ends), max(ends)) if ends else (base, base)
    if high - low > _DENSE_RATIO * bound + _DENSE_SLACK:
        return None
    return described, batches, low, high


def _dense_core(cur, base, plan, describe, cap):
    """(next level as a list indexed by label - low, low, update ops, labels
    lowered one at a time) from the level held as the list `cur` indexed by
    label - base, or None when the next level would be too sparse for a
    list.  Its first and last entries may be 0.

    Each batched class adds its slice of counts to strided slices: a point
    to the next level, a run's two ends to the difference array of its
    (step, residue) key, a removed label to the next level with a minus
    sign.  The other labels add their descriptions into the same arrays."""
    modulus = plan[0]
    layout = _dense_layout(cur, base, plan, describe, cap)
    if layout is None:
        return None
    described, batches, low, high = layout
    nxt = [0] * (high - low + 1)
    diffs = {}  # (step, residue) -> (lowest grid label, difference array)

    def diff(step, residue):
        hit = diffs.get((step, residue))
        if hit is None:
            g0 = low + (residue - low) % step
            hit = diffs[(step, residue)] = (g0, [0] * ((high - g0) // step + 2))
        return hit

    ops, cut = 0, False
    for _, c, (points, runs) in described:
        for j, m in points:
            nxt[j - low] += c * m
        ops += len(points)
        for lo, last, step, cuts in runs:
            g0, d = diff(step, lo % step)
            d[(lo - g0) // step] += c
            d[(last - g0) // step + 1] -= c
            ops += 2 + len(cuts)
            for j in cuts:
                nxt[j - low] -= c
                cut = True
    for cls, k0, counts in batches:
        n = len(counts)
        ops += cls.ops * (n - counts.count(0))
        for (a, b), (c, d) in cls.points:
            if c:
                weights = map(mul, counts, range(c * k0 + d, c * (k0 + modulus * n) + d, c * modulus))
            else:
                weights = counts if d == 1 else map(mul, counts, repeat(d))
            _strided(nxt, a * k0 + b - low, a * modulus, n, weights, add)
        for (la, lb), (ea, eb), s, removed in cls.runs:
            g0, d = diff(s, (la * k0 + lb) % s)
            _strided(d, (la * k0 + lb - g0) // s, la * modulus // s, n, counts, add)
            _strided(d, (ea * k0 + eb - g0) // s, ea * modulus // s, n, counts, sub)
            for ra, rb in removed:
                _strided(nxt, ra * k0 + rb - low, ra * modulus, n, counts, sub)
                cut = True
    # The first key rebuilt may overwrite a next level nothing else wrote to.
    touched = cut or bool(described) or any(cls.points for cls, _, _ in batches)
    for (step, _), (g0, d) in diffs.items():
        running = list(accumulate(d))
        if running.pop():
            raise SpecError("difference map did not close")
        ops += len(running) - running.count(0)
        sl = slice(g0 - low, None, step)
        nxt[sl] = map(add, nxt[sl], running) if touched else running
        touched = True
    if cut and min(nxt) < 0:
        raise SpecError(f"negative count at label {low + nxt.index(min(nxt))}")
    return nxt, low, ops, len(described)


def _is_dense(plan, base, top, size):
    """Whether a level of `size` labels from base to top goes through the
    batched step of `plan`."""
    return plan is not None and plan[0] <= top - base + 1 <= _DENSE_RATIO * size + _DENSE_SLACK


class Row(Mapping):
    """A read-only mapping over a list of counts: vals[i] is the count at
    label base + i, and the labels are those whose flags[i] is set.  row[k]
    looks up label k, len(row) is `size`, the number of labels, and the row
    equals the {label: count} dict it stands for.

    A dense forward level is a Row with flags = vals, so its labels are the
    nonzero counts.  A back-table row on a dense closure layer takes the
    layer's 0/1 flags, and its vals are 0 off them."""

    __slots__ = ("base", "flags", "vals", "size")

    def __init__(self, base, flags, vals, size):
        self.base, self.flags, self.vals, self.size = base, flags, vals, size

    def __getitem__(self, k):
        i = k - self.base
        if 0 <= i < len(self.flags) and self.flags[i]:
            return self.vals[i]
        raise KeyError(k)

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
    return low + a, nxt, size, bool(size) and _is_dense(plan, low + a, low + b - 1, size)


def _next_level_range(level, describe, plan, cap=None):
    """(next level, update ops, labels lowered one at a time).

    A level held as a Row over its list of counts goes through `_dense_core`
    with the batched classes of `plan` (from `_class_plan`), and so does a
    dict level whose label span is near its number of labels, spread into a
    list once.  The next level stays a Row (flags = vals) while `_is_dense`
    holds, else it becomes a dict.  Any other level is lowered label by
    label into a dict.  _OverCap, before any label is written, when a single
    run is wider than `cap` labels."""
    if isinstance(level, Row):
        cur, base = level.vals, level.base
    elif level and _is_dense(plan, base := min(level), top := max(level), len(level)):
        cur = list(map(level.get, range(base, top + 1), repeat(0)))
    else:
        cur = None
    if cur is not None:
        done = _dense_core(cur, base, plan, describe, cap)
        if done is not None:
            nxt, low, ops, lowered = done
            base, vals, size, dense = _trim(nxt, low, plan)
            if dense:
                return Row(base, vals, vals, size), ops, lowered
            return dict(compress(zip(count(base), vals), vals)), ops, lowered
    nxt, ops = _sparse_step(level.items(), describe, cap)
    return nxt, ops, len(level)


def iter_levels(spec, n, method="auto", max_labels=None, stats=None):
    """Yield the label counts {label: nodes} of levels 0..n of the generating
    tree, one read-only mapping at a time, with no zero-count label: a dict,
    or for a dense range level a Row over its list of counts, whose labels
    iterate in increasing order.  Only the current level is held.

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
    same way; the naive method also stops before its cached pairs pass
    NAIVE_PAIRS.  ValueError, when iteration starts, for n < 0 or an
    unknown method.
    """
    if n < 0:
        raise ValueError(f"level count needs n >= 0, got {n}")
    if method == "auto":
        has_intervals = any(c.intervals for c in spec.clauses)
        method = "range" if has_intervals else "naive"
    if method not in ("naive", "range"):
        raise ValueError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    describe = describer(spec)
    width = MAX_SUCCESSORS if max_labels is None else max_labels
    budget = ("width" if max_labels is None else "cap", width)
    if method == "naive":
        held = 0

        @cache
        def lower(k):
            nonlocal held
            desc = describe(k)
            _check_runs(desc[1], width)
            pairs = tuple(expand(desc).items())
            held += len(pairs)
            if held > NAIVE_PAIRS:
                raise _OverCap(("pairs", NAIVE_PAIRS))
            return pairs

        step = _next_level_naive
    else:
        # Range levels can double in width per level (up to the label cap),
        # so descriptions are rebuilt on every visit rather than kept for
        # every label seen.
        step = partial(_next_level_range, plan=_class_plan(spec), cap=width)
        lower = describe
    if stats is None:
        stats = {}
    stats.update(method=method, levels=0, update_ops=0, peak_labels=1)
    if method == "range":
        stats["fallback_labels"] = 0
    level = {spec.axiom: 1}
    yield level
    stop = None
    for _ in range(n):
        try:
            level, done, lowered = step(level, lower)
        except _OverCap as exc:
            stop = exc.args[0] if exc.args else budget
            break
        # A level over the cap is dropped, but the work it took is counted.
        stats["update_ops"] += done
        if method == "range":
            stats["fallback_labels"] += lowered
        if max_labels is not None and len(level) > max_labels:
            stop = budget
            break
        stats["levels"] += 1
        stats["peak_labels"] = max(stats["peak_labels"], len(level))
        yield level
    stats["seconds"] = round(time.perf_counter() - t0, 6)
    if stop:
        stats["truncated"] = True
        stats["budget"] = stop


def count_levels(spec, n, method="auto", max_labels=None, label_sums=False) -> CountTable:
    """Totals (and, with `label_sums`, label sums) of levels 0..n, folded
    from `iter_levels` with one level in memory at a time; the stats are
    those `iter_levels` fills."""
    stats = {}
    totals = []
    sums = [] if label_sums else None
    for level in iter_levels(spec, n, method, max_labels, stats):
        if isinstance(level, Row):
            vals = level.vals
            totals.append(sum(vals))
            if label_sums:
                sums.append(sum(map(mul, count(level.base), vals)))
        else:
            totals.append(sum(level.values()))
            if label_sums:
                sums.append(sum(map(mul, level.keys(), level.values())))
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


def _layer_of(labels, plan):
    """A closure layer from a set of labels: (base, flags, size) when the
    labels are dense for `plan` (`_is_dense`), else the set itself."""
    if labels:
        base, top, size = min(labels), max(labels), len(labels)
        if _is_dense(plan, base, top, size):
            flags = bytearray(top - base + 1)
            for k in labels:
                flags[k - base] = 1
            return base, bytes(flags), size
    return labels


def _layer_size(layer):
    return len(layer) if isinstance(layer, set) else layer[2]


def _layer_labels(layer):
    """The labels of a closure layer (in increasing order when dense)."""
    if isinstance(layer, set):
        return layer
    base, flags, _ = layer
    return compress(count(base), flags)


def _closure_step(layer, describe, plan, cap):
    """The closure layer after `layer`: the support of the range step on a
    level of ones.  A dense layer's flags are the level `_dense_core` steps,
    and the counts it returns become the next flags, with no dict between."""
    if not isinstance(layer, set):
        base, flags, _ = layer
        done = _dense_core(flags, base, plan, describe, cap)
        if done is not None:
            base, vals, size, dense = _trim(done[0], done[1], plan)
            if dense:
                return base, bytes(map(bool, vals)), size
            return set(compress(count(base), vals))
    nxt, _ = _sparse_step(zip(_layer_labels(layer), repeat(1)), describe, cap)
    return _layer_of(set(nxt), plan)


def _closure(spec, n, max_labels, describe, plan):
    """Layers R_0..R_n, each the support of the range step (batched by
    `plan`) applied to a level of ones.  A dense layer is (base, flags,
    size): flags is a bytes object whose byte i is 1 when label base + i is
    in the layer, else 0, the first and last are 1, and size counts the 1s;
    a sparse layer is a set.

    LabelCapError when a layer holds more than max_labels labels;
    TableBudgetError when the layers' cells, charged _CELL_BITS each, pass
    BACK_BITS."""
    layers = [_layer_of({spec.axiom}, plan)]
    cells = 1
    for depth in range(1, n + 1):
        try:
            layer = _closure_step(layers[-1], describe, plan, max_labels)
        except _OverCap:
            raise LabelCapError(max_labels, depth) from None
        size = _layer_size(layer)
        if max_labels is not None and size > max_labels:
            raise LabelCapError(max_labels, depth)
        cells += size
        if cells * _CELL_BITS > BACK_BITS:
            raise TableBudgetError(depth - 1)
        layers.append(layer)
    return layers


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


def _dense_row(layer, prev, plan, describe):
    """The row of `_sparse_row` on a dense closure layer as a Row, the
    transpose of `_dense_core`, or None when the layer is small or its
    successors too sparse for a list.

    prev becomes a zero-padded list; each batched class reads a point as one
    strided slice times its multiplicity, a run as the difference of two
    strided slices of a per-(step, residue) prefix array and a removed label
    as a strided slice taken away, and writes its counts as one strided
    slice of the row."""
    base, flags, size = layer
    if size < _ROW_MIN_LABELS:
        return None
    layout = _dense_layout(flags, base, plan, describe, None)
    if layout is None:
        return None
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
        for (a, b), (c, d) in cls.points:
            got = _read(vals, a * k0 + b - low, a * modulus, n)
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
    return Row(base, flags, row, size)


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
    layer holds more than `max_labels` labels; TableBudgetError, naming the
    last closure layer or table row that fit, when the table would pass
    BACK_BITS.  The rows come back as a BackTable.
    """
    describe = cache(describer(spec))
    t0 = time.perf_counter()
    plan = _class_plan(spec)
    layers = _closure(spec, n, max_labels, describe, plan)
    t1 = time.perf_counter()
    cells = sum(map(_layer_size, layers))
    # The bottom row's counts are all 1, one bit each.
    bottom = layers[n]
    charged = _CELL_BITS * cells + _layer_size(bottom)
    if isinstance(bottom, set):
        g = [dict.fromkeys(bottom, 1)]
    else:
        g = [Row(bottom[0], bottom[1], list(bottom[1]), bottom[2])]
    for m in range(1, n + 1):
        layer, prev = layers[n - m], g[-1]
        row = None if isinstance(layer, set) else _dense_row(layer, prev, plan, describe)
        if row is None:
            row = _sparse_row(_layer_labels(layer), prev, describe)
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
            getrandbits, draws, entry = rng.getrandbits, self._draws, self._draw_entry
            for rem in range(self.n, 0, -1):
                total, bits, labels, sums = draws[rem].get(k) or entry(k, rem)
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


# ---------------------------------------------------------------------------
# Antidiagonal stabilization


def antidiagonal_values(spec, nmax, kmax):
    """Counts read off antidiagonally: row n, distance k below the top label.

    Requires the top label to advance by exactly one per level.  Returns a
    list over k <= kmax of (stable value, first level it stabilized at),
    where stable means constant from that level through nmax.  Only each
    level's top label and its kmax+1 values below the top are kept.
    """
    stats = {}
    diagonals, prev = [], None
    for n, level in enumerate(iter_levels(spec, nmax, stats=stats)):
        top = max(level)
        if n and top != prev + 1:
            raise SpecError(f"top label moves by {top - prev} at level {n}")
        prev = top
        diagonals.append([level.get(top - k, 0) for k in range(min(kmax, top) + 1)])
    if stats.get("truncated"):
        raise SpecError(stop_text(stats["budget"], stats["levels"]))
    out = []
    for k in range(kmax + 1):
        vals = [row[k] for row in diagonals if len(row) > k]
        if not vals:
            raise SpecError(f"antidiagonal {k} never appears up to level {nmax}")
        stable = vals[-1]
        first = len(vals) - 1
        while first > 0 and vals[first - 1] == stable:
            first -= 1
        offset = (nmax + 1) - len(vals)
        out.append((stable, first + offset))
    return out
