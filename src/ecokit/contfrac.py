"""Continued-fraction excursion counts for nearest-neighbour systems.

When every rewriting step moves the label by at most one, level-0 counts
(excursions) satisfy the classical continued fraction

    F0 = 1 / (1 - stay(0) z - up(0) down(1) z^2 / (1 - stay(1) z - ...))

with one nesting level per height.  A walk must spend two steps to visit a
height and return, so truncating the nesting at depth d only disturbs
coefficients from z^(2d) on; evaluating bottom-up in exact arithmetic with
depth ceil(N/2)+1 therefore gives the first N coefficients exactly.

The evaluation runs on integer lists.  Each denominator has constant term
1, so its inverse is an integer recurrence, and the level at height j only
needs its first N - 2j coefficients, since the z^2 factors above it shift
the rest past z^(N-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .dsl import SpecError, describer, eval_expr, expand
from .errors import ContFracError
from .series import TruncSeries


CHECK_TO = 60  # last level the multiplicities are checked or read on


def _as_function(spec_or_callable):
    if callable(spec_or_callable):
        return spec_or_callable
    if isinstance(spec_or_callable, int):
        value = spec_or_callable
        return lambda k: value
    expr = spec_or_callable
    return lambda k: eval_expr(expr, k)


@dataclass(frozen=True)
class BirthDeathRule:
    """Transition multiplicities of a nearest-neighbour system.

    down(k), stay(k), up(k) count the successors k-1, k and k+1 of a node
    labeled k; down(0) is never consulted (no step below level 0).  In eco
    mode the three must sum to k on every level checked.
    """

    down: object
    stay: object
    up: object
    mode: str = "walk"

    @classmethod
    def from_functions(cls, down, stay, up, mode="walk"):
        """Wrap three per-level multiplicity functions (callables or label
        expressions), validating nonnegativity and the eco arity law."""
        rule = cls(_as_function(down), _as_function(stay), _as_function(up), mode)
        floor = 1 if mode == "eco" else 0
        for k in range(floor, CHECK_TO + 1):
            d = rule.down(k) if k > 0 else 0
            s, u = rule.stay(k), rule.up(k)
            if min(d, s, u) < 0:
                raise ContFracError(f"negative multiplicity at level {k}")
            if mode == "eco" and d + s + u != k:
                raise ContFracError(
                    f"level {k} has {d + s + u} successors, arity law needs {k}"
                )
        return rule

    @classmethod
    def from_spec(cls, spec):
        """Read the three multiplicities off a spec whose jumps all lie in
        {-1, 0, +1}; any larger jump is an error."""
        floor = 1 if spec.mode == "eco" else 0
        describe = describer(spec)
        table = {}
        for k in range(floor, CHECK_TO + 1):
            try:
                succ = expand(describe(k))
            except SpecError:
                continue  # below the guarded domain, so the label never occurs
            stray = [j for j in succ if abs(j - k) > 1]
            if stray:
                raise ContFracError(
                    f"label {k} rewrites to {stray[0]}, outside {{k-1, k, k+1}}"
                )
            table[k] = (succ.get(k - 1, 0), succ.get(k, 0), succ.get(k + 1, 0))

        def pick(i):
            return lambda k: table[k][i] if k in table else 0

        return cls(pick(0), pick(1), pick(2), spec.mode)


def cf_excursions(rule, order=32, depth=None):
    """First `order` coefficients of the excursion generating function.

    The truncated fraction is evaluated innermost level first; `depth`
    defaults to the smallest nesting that leaves orders < `order` exact.
    """
    if depth is None:
        depth = -(-order // 2) + 1
    tail = [1] + [0] * (order - 2 * depth - 1)
    for j in range(depth - 1, -1, -1):
        stay = rule.stay(j)
        weight = rule.up(j) * rule.down(j + 1)
        if stay < 0 or weight < 0:
            raise ContFracError(f"negative multiplicity at level {j}")
        # 1 / (1 - stay z - weight z^2 tail), to order - 2j coefficients.
        out = [1][: order - 2 * j]
        for m in range(1, order - 2 * j):
            acc = sum(map(mul, tail[: m - 1], reversed(out[: m - 1])))
            out.append(stay * out[m - 1] + weight * acc)
        tail = out
    return TruncSeries(tail)
