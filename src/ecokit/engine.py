"""Exact level-by-level enumeration, backward counts and uniform sampling.

Everything here runs on Python integers, so the counts are exact at any
depth.  Every routine reads successors through `dsl.describer`: for each
label, points (label, mult) and runs (lo, last, step, cuts) of labels spaced
`step` apart, less the cut labels.  Two forward propagation methods are
provided:

* ``naive`` expands each label's description once into (successor label,
  multiplicity) pairs and applies them to every level the label populates.
  It is the oracle for the others.
* ``range`` records two difference events per run, keyed by (step, residue
  of lo), and rebuilds the next level with one running sum
  (``itertools.accumulate``) per key.  On interval-heavy systems a level
  then costs about (number of distinct labels) instead of (sum of run
  lengths).

``stats["update_ops"]`` counts the dictionary updates a method made: for
``naive`` one per (populated label, distinct successor label) pair; for
``range`` one per point, two per run, one per cut and one per label the
rebuild writes.

``closure_layers`` pushes a level of ones through the range step and keeps
its support.  ``back_table`` lowers each reachable label once and sums every
run of the previous row from per-(step, residue) prefix sums, so a row costs
about its width (times a log) instead of width times run length.
``WalkSampler`` weighs the expanded description of the current label by
that table.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate
from operator import mul
from random import Random

from .dsl import SpecError, describer, expand


class LabelCapError(SpecError):
    """A level holds more distinct labels than the cap allows."""

    def __init__(self, cap, level):
        super().__init__(f"label cap {cap} exceeded at level {level}")
        self.cap = cap
        self.level = level


class _OverCap(Exception):
    """A run alone puts more distinct labels into the next level than the cap
    allows, found before any of them is written."""


def _check_runs(runs, cap):
    # A run of L grid labels less its cuts holds L - len(cuts) distinct labels.
    for lo, last, step, cuts in runs:
        if (last - lo) // step - len(cuts) >= cap:
            raise _OverCap


@dataclass
class CountTable:
    """Counts by depth and label: levels[n][k] nodes at depth n carry label k."""

    mode: str
    levels: list
    stats: dict = field(default_factory=dict)

    @property
    def depth(self):
        return len(self.levels) - 1

    @property
    def totals(self):
        """Nodes per level; in eco mode this is the enumerated sequence."""
        return [sum(lv.values()) for lv in self.levels]

    @property
    def label_sums(self):
        return [sum(map(mul, lv.keys(), lv.values())) for lv in self.levels]

    def count(self, n, k):
        if not 0 <= n < len(self.levels):
            raise IndexError(f"level {n} not computed")
        return self.levels[n].get(k, 0)

    def to_json_obj(self):
        return {
            "mode": self.mode,
            "totals": self.totals,
            "label_sums": self.label_sums,
            "levels": [
                {str(k): lv[k] for k in sorted(lv)} for lv in self.levels
            ],
            "stats": self.stats,
        }


def _next_level_naive(level, succ):
    """(next level, update ops) from each label's expanded successors."""
    nxt = {}
    get = nxt.get
    ops = 0
    for k, c in level.items():
        pairs = succ(k)
        for j, m in pairs:
            nxt[j] = get(j, 0) + c * m
        ops += len(pairs)
    return nxt, ops


def _next_level_range(level, describe, cap=None):
    """(next level, update ops) from difference events on the runs.

    _OverCap, before the rebuild writes any run label, when a single run is
    wider than `cap` labels."""
    nxt, cuts = {}, {}
    get = nxt.get
    events = {}  # (step, residue of lo) -> {label: signed change}
    ops = 0
    for k, c in level.items():
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


def count_levels(spec, n, method="auto", max_labels=None) -> CountTable:
    """Tabulate labels over the first n+1 levels of the generating tree.

    `max_labels` caps the number of distinct labels per level: systems whose
    label support widens exponentially stop early instead of exhausting
    memory, and the table then holds fewer than n+1 levels (recorded in
    stats["truncated"]).  A level with one run wider than the cap is cut
    from its descriptions, before any of its labels is written, and its
    update ops are not counted.
    """
    if method == "auto":
        has_intervals = any(c.intervals for c in spec.clauses)
        method = "range" if has_intervals else "naive"
    if method not in ("naive", "range"):
        raise ValueError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    describe = describer(spec)
    if method == "naive":

        @cache
        def lower(k):
            desc = describe(k)
            if max_labels is not None:
                _check_runs(desc[1], max_labels)
            return tuple(expand(desc).items())

        step = _next_level_naive
    else:
        # Range levels can double in width per level (up to the label cap),
        # so descriptions are rebuilt on every visit rather than kept for
        # every label seen.
        step, lower = partial(_next_level_range, cap=max_labels), describe
    ops = 0
    levels = [{spec.axiom: 1}]
    peak = 1
    truncated = False
    for _ in range(n):
        try:
            nxt, done = step(levels[-1], lower)
        except _OverCap:
            truncated = True
            break
        ops += done
        if max_labels is not None and len(nxt) > max_labels:
            truncated = True
            break
        levels.append(nxt)
        peak = max(peak, len(nxt))
    stats = {
        "method": method,
        "levels": len(levels) - 1,
        "update_ops": ops,
        "peak_labels": peak,
        "seconds": round(time.perf_counter() - t0, 6),
    }
    if truncated:
        stats["truncated"] = True
    return CountTable(mode=spec.mode, levels=levels, stats=stats)


def total_series(spec, order, method="auto", max_labels=None):
    """The first `order` level totals f_0 .. f_{order-1} (fewer when a
    `max_labels` width cap stops the propagation early)."""
    if order <= 0:
        return []
    return count_levels(spec, order - 1, method=method, max_labels=max_labels).totals


# ---------------------------------------------------------------------------
# Backward counts: trees hanging below a label


def _closure(spec, n, max_labels):
    """(layers R_0..R_n, label -> description, cached for every label lowered).

    Each layer is the support of the range step applied to a level of ones.
    LabelCapError when a layer holds more than max_labels labels.
    """
    lowered = cache(describer(spec))
    layers = [{spec.axiom}]
    for depth in range(1, n + 1):
        try:
            nxt, _ = _next_level_range(dict.fromkeys(layers[-1], 1), lowered, max_labels)
        except _OverCap:
            raise LabelCapError(max_labels, depth) from None
        if max_labels is not None and len(nxt) > max_labels:
            raise LabelCapError(max_labels, depth)
        layers.append(set(nxt))
    return layers, lowered


def closure_layers(spec, n, max_labels=None):
    """Distinct-label sets R_0..R_n reachable from the axiom, level by level.

    LabelCapError when a layer holds more than `max_labels` labels.
    """
    return _closure(spec, n, max_labels)[0]


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


def back_table(spec, n, max_labels=None):
    """g[m][k] = walks of length m starting at label k, for k reachable at depth n-m.

    g[n][axiom] equals the level-n total of count_levels, which gives an
    independent route to the same number.  LabelCapError when a closure
    layer holds more than `max_labels` labels.
    """
    layers, lowered = _closure(spec, n, max_labels)
    g = [dict.fromkeys(layers[n], 1)]
    for m in range(1, n + 1):
        prev, prefix, row = g[-1], {}, {}
        # Every successor of a label in layers[n-m] lies in layers[n-m+1],
        # the labels of prev; a cut label may be missing from it.
        for k in layers[n - m]:
            points, runs = lowered(k)
            total = sum(mult * prev[j] for j, mult in points)
            for lo, last, step, cuts in runs:
                total += _run_sum(prev, prefix, lo, last, step)
                total -= sum(prev.get(j, 0) for j in cuts)
            row[k] = total
        g.append(row)
    return g


# ---------------------------------------------------------------------------
# Uniform sampling


class WalkSampler:
    """Draw uniform random root-to-level-n walks (label sequences).

    In eco mode a walk of length n is exactly one size-n object of the
    enumerated class, so the draw is uniform over the class.  Two descent
    strategies are available and consume identical randomness:

    * ``sequential``: walk the successor list subtracting weights;
    * ``binary``: binary search in a per-(label, remaining-depth) prefix-sum
      array, built lazily and memoized.
    """

    def __init__(self, spec, n, max_labels=None):
        self.spec = spec
        self.n = n
        self.g = back_table(spec, n, max_labels)
        self.total = self.g[n][spec.axiom]
        describe = describer(spec)
        # The labels are those of the back table, which the label cap bounds.
        self._children = cache(lambda k: sorted(expand(describe(k)).items()))
        self._prefix = {}

    def _weighted_children(self, k, rem):
        # Children sorted by label; weight = multiplicity * subtree count.
        below = self.g[rem - 1]
        return [(j, m * below[j]) for j, m in self._children(k)]

    def _prefix_sums(self, k, rem):
        key = (k, rem)
        hit = self._prefix.get(key)
        if hit is None:
            children = self._weighted_children(k, rem)
            hit = ([j for j, _ in children], list(accumulate(w for _, w in children)))
            self._prefix[key] = hit
        return hit

    def sample(self, rng, strategy="binary"):
        if isinstance(rng, int):
            rng = Random(rng)
        if self.total == 0:
            raise SpecError("no walks of the requested length")
        walk = [self.spec.axiom]
        k = self.spec.axiom
        for rem in range(self.n, 0, -1):
            r = rng.randrange(self.g[rem][k])
            if strategy == "sequential":
                for j, w in self._weighted_children(k, rem):
                    if r < w:
                        k = j
                        break
                    r -= w
                else:
                    raise SpecError("weights did not cover the draw")
            elif strategy == "binary":
                labels, sums = self._prefix_sums(k, rem)
                k = labels[bisect_right(sums, r)]
            else:
                raise ValueError(f"unknown strategy {strategy!r}")
            walk.append(k)
        return walk


def sample_walks(spec, n, count, seed, strategy="binary", max_labels=None):
    """Draw `count` independent uniform walks with one seeded generator.

    LabelCapError when a level reachable within n steps holds more than
    `max_labels` labels.
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
    where stable means constant from that level through nmax.
    """
    table = count_levels(spec, nmax)
    tops = [max(lv) for lv in table.levels]
    for n in range(1, nmax + 1):
        if tops[n] != tops[n - 1] + 1:
            raise SpecError(f"top label moves by {tops[n] - tops[n - 1]} at level {n}")
    out = []
    for k in range(kmax + 1):
        vals = [
            table.levels[n].get(tops[n] - k, 0) for n in range(nmax + 1) if tops[n] - k >= 0
        ]
        if not vals:
            raise SpecError(f"antidiagonal {k} never appears up to level {nmax}")
        stable = vals[-1]
        first = len(vals) - 1
        while first > 0 and vals[first - 1] == stable:
            first -= 1
        offset = (nmax + 1) - len(vals)
        out.append((stable, first + offset))
    return out
