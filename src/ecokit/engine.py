"""Exact level-by-level enumeration, backward counts and uniform sampling.

Everything here runs on Python integers, so the counts are exact at any
depth.  Two forward propagation methods are provided:

* ``naive`` expands every populated label through its successor multiset,
  one point update per (source label, successor label) pair.
* ``range`` turns each interval item into two difference-map events per
  populated source label and reconstructs the next level with one sweep per
  (step, residue) bucket.  On interval-heavy systems a level then costs
  about (number of distinct labels) instead of (sum of interval lengths).

Both produce identical tables; the naive method doubles as the oracle for
the range method in the tests.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from random import Random

from .dsl import SpecError, eval_expr, match_clause, successors


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
        return [sum(k * c for k, c in lv.items()) for lv in self.levels]

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


def _succ_cache(spec):
    cache = {}

    def get(k):
        if k not in cache:
            cache[k] = successors(spec, k)
        return cache[k]

    return get


def _next_level_naive(spec, level, succ, ops):
    nxt = Counter()
    for k, c in level.items():
        for j, m in succ(k).items():
            nxt[j] += c * m
            ops[0] += 1
    return dict(nxt)


def _next_level_range(spec, level, ops):
    point = Counter()
    # diff maps keyed by (step, residue): label -> signed weight change
    diffs = {}
    removals = Counter()
    for k, c in level.items():
        clause = match_clause(spec, k)
        for item in clause.items:
            mult = eval_expr(item.mult, k)
            if mult < 0:
                raise SpecError(f"multiplicity {mult} is negative at label {k}")
            if mult:
                point[eval_expr(item.label, k)] += c * mult
                ops[0] += 1
        for iv in clause.intervals:
            lo = eval_expr(iv.lo, k)
            hi = eval_expr(iv.hi, k)
            if lo > hi:
                continue
            hi -= (hi - lo) % iv.step  # last grid point
            key = (iv.step, lo % iv.step)
            bucket = diffs.setdefault(key, Counter())
            bucket[lo] += c
            bucket[hi + iv.step] -= c
            ops[0] += 2
            cut = set()
            for e in iv.minus:
                v = eval_expr(e, k)
                if lo <= v <= hi and (v - lo) % iv.step == 0:
                    cut.add(v)
            for v in cut:
                removals[v] += c
                ops[0] += 1
    nxt = Counter(point)
    for (step, _), bucket in diffs.items():
        run = 0
        events = sorted(bucket)
        for pos, nxt_pos in zip(events, events[1:] + [None]):
            run += bucket[pos]
            if nxt_pos is None:
                if run != 0:
                    raise SpecError("difference map did not close")
                break
            if run:
                for label in range(pos, nxt_pos, step):
                    nxt[label] += run
                    ops[0] += 1
    for v, c in removals.items():
        nxt[v] -= c
    out = {}
    for k, c in nxt.items():
        if c < 0:
            raise SpecError(f"negative count at label {k}")
        if c:
            out[k] = c
    return out


def count_levels(spec, n, method="auto", max_labels=None) -> CountTable:
    """Tabulate labels over the first n+1 levels of the generating tree.

    `max_labels` caps the number of distinct labels per level: systems whose
    label support widens exponentially stop early instead of exhausting
    memory, and the table then holds fewer than n+1 levels (recorded in
    stats["truncated"]).
    """
    if method == "auto":
        has_intervals = any(c.intervals for c in spec.clauses)
        method = "range" if has_intervals else "naive"
    if method not in ("naive", "range"):
        raise ValueError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    ops = [0]
    succ = _succ_cache(spec)
    levels = [{spec.axiom: 1}]
    peak = 1
    truncated = False
    for _ in range(n):
        cur = levels[-1]
        if method == "naive":
            nxt = _next_level_naive(spec, cur, succ, ops)
        else:
            nxt = _next_level_range(spec, cur, ops)
        if max_labels is not None and len(nxt) > max_labels:
            truncated = True
            break
        levels.append(nxt)
        peak = max(peak, len(nxt))
    stats = {
        "method": method,
        "levels": len(levels) - 1,
        "update_ops": ops[0],
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


def closure_layers(spec, n):
    """Distinct-label sets R_0..R_n reachable from the axiom, level by level."""
    layers = [{spec.axiom}]
    succ = _succ_cache(spec)
    for _ in range(n):
        nxt = set()
        for k in layers[-1]:
            nxt.update(succ(k))
        layers.append(nxt)
    return layers


def back_table(spec, n):
    """g[m][k] = walks of length m starting at label k, for k reachable at depth n-m.

    g[n][axiom] equals the level-n total of count_levels, which gives an
    independent route to the same number.
    """
    layers = closure_layers(spec, n)
    succ = _succ_cache(spec)
    g = [dict() for _ in range(n + 1)]
    g[0] = {k: 1 for k in layers[n]}
    for m in range(1, n + 1):
        prev = g[m - 1]
        g[m] = {
            k: sum(mult * prev[j] for j, mult in succ(k).items())
            for k in layers[n - m]
        }
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

    def __init__(self, spec, n):
        self.spec = spec
        self.n = n
        self.g = back_table(spec, n)
        self.total = self.g[n][spec.axiom]
        self._succ = _succ_cache(spec)
        self._prefix = {}

    def _weighted_children(self, k, rem):
        # Children sorted by label; weight = multiplicity * subtree count.
        succ = self._succ(k)
        return [(j, succ[j] * self.g[rem - 1][j]) for j in sorted(succ)]

    def _prefix_sums(self, k, rem):
        key = (k, rem)
        hit = self._prefix.get(key)
        if hit is None:
            children = self._weighted_children(k, rem)
            acc, sums = 0, []
            for _, w in children:
                acc += w
                sums.append(acc)
            hit = ([j for j, _ in children], sums)
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


def sample_walks(spec, n, count, seed, strategy="binary"):
    """Draw `count` independent uniform walks with one seeded generator."""
    sampler = WalkSampler(spec, n)
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
