"""Fit closed forms to integer sequences: rational functions and
polynomial equations P(z, F) = 0 satisfied by the generating function.

A rational fit is the shortest linear recurrence of the terms
(Berlekamp-Massey, `shortest_recurrence`), re-expanded against every term.
An algebraic candidate is solved for by exact linear algebra on a fitting
window and re-verified against held-out terms.  Agreement on finitely many
terms is strong evidence, not a proof.

Most algebraic candidates have full column rank.  `nullspace_basis`
settles those with a certificate modulo the prime 2^61 - 1 (an integer
matrix has at least the rank over Q that it has mod p) and runs the exact
`Fraction` elimination only when that fails, so its bases are the ones
exact elimination gives.  Integer terms give integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .qpoly import _PRIME, QPoly
from .ratfunc import RatFunc
from .series import TruncSeries


class GuessError(ValueError):
    """Raised when a fit is requested with too few terms."""


def _rref(rows):
    """Reduced row echelon form in place; returns pivot column list."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _full_rank_mod_p(rows, ncols):
    """True when the rows have rank ncols modulo _PRIME.

    Each row is scaled to integers first; a nonzero ncols x ncols minor mod
    p is nonzero over Z, so True proves full column rank over Q.
    """
    pivots = []  # (column, row normalised to 1 there), in insertion order
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        red = [x.numerator * (den // x.denominator) % _PRIME for x in row]
        for c, prow in pivots:
            f = red[c]
            if f:
                red = [(a - f * b) % _PRIME for a, b in zip(red, prow)]
        c = next((i for i, a in enumerate(red) if a), None)
        if c is None:
            continue
        inv = pow(red[c], -1, _PRIME)
        pivots.append((c, [a * inv % _PRIME for a in red]))
        if len(pivots) == ncols:
            return True
    return False


def nullspace_basis(rows, ncols):
    """Basis of the kernel of the given row list (entries int or Fraction).

    A full-rank certificate mod p answers [] without exact arithmetic;
    every other case runs the exact RREF, whose result is unique.
    """
    if not rows:
        return [
            [Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)
        ]
    if len(rows) >= ncols and _full_rank_mod_p(rows, ncols):
        return []
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(work)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -work[r][free]
        basis.append(vec)
    return basis


def _int_normalize(vec):
    """Scale a rational vector to coprime integers."""
    denom = lcm(*[f.denominator for f in vec]) if vec else 1
    ints = [int(f * denom) for f in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints] if g else ints


@dataclass(frozen=True)
class RationalGuess:
    """A fitted rational function plus how many held-out terms it matched."""

    func: RatFunc
    verified_terms: int

    @property
    def numerator(self):
        return self.func.num.coeffs

    @property
    def denominator(self):
        return self.func.den.coeffs

    def to_json_obj(self):
        return {
            "numerator": [str(c) for c in self.numerator],
            "denominator": [str(c) for c in self.denominator],
            "verified_terms": self.verified_terms,
        }


def shortest_recurrence(terms, limit):
    """Reduced P/C whose expansion starts with the terms, for their shortest
    linear recurrence (length L >= deg C, > deg P), or None once L passes
    `limit`.  At least 2L terms make the shortest recurrence unique.

    Berlekamp-Massey (Massey 1969), fraction-free: on the terms scaled to
    integers, each update C <- b*C - d*z^m*B multiplies by the previous
    discrepancy b instead of dividing by it, and C is kept content-free.
    """
    scale = lcm(*[t.denominator for t in terms])
    s = [t.numerator * (scale // t.denominator) for t in terms]
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for n in range(len(s)):
        disc = sum(map(mul, conn, s[n::-1]))
        if disc:
            old = conn
            conn = [prev_disc * c for c in conn] + [0] * (len(prev) + shift - len(conn))
            for i, c in enumerate(prev, shift):
                conn[i] -= disc * c
            content = gcd(*conn)
            conn = [c // content for c in conn]
            if 2 * length <= n:
                length = n + 1 - length
                if length > limit:
                    return None
                prev, prev_disc, shift = old, disc, 0
        shift += 1
    num = [Fraction(sum(map(mul, conn[: k + 1], s[k::-1])), scale) for k in range(length)]
    return RatFunc(QPoly(num), QPoly(conn))


def guess_rational(terms, dmax=8, holdout=10):
    """Smallest rational function whose expansion matches every term.

    Two functions with degrees <= dmax that agree on more than 2*dmax terms
    are equal, so the shortest recurrence of all the terms is the only
    candidate; it is returned when its reduced degrees (dp, dq) are <= dmax
    and its expansion reproduces every term, with the len - (dp+dq+2) >=
    `holdout` terms beyond a fitting window as `verified_terms`.
    """
    terms = [Fraction(t) for t in terms]
    if len(terms) < 2 * dmax + holdout + 2:
        raise GuessError(
            f"need at least {2 * dmax + holdout + 2} terms "
            f"(dmax={dmax}, holdout={holdout}), got {len(terms)}"
        )
    func = shortest_recurrence(terms, dmax + 1)
    if func is None:
        return None
    dp, dq = max(func.num.degree, 0), func.den.degree
    if dp > dmax or dq > dmax or func.expand(len(terms)).coeffs != tuple(terms):
        return None
    return RationalGuess(func, len(terms) - (dp + dq + 2))


@dataclass(frozen=True)
class AlgebraicRelation:
    """A polynomial identity sum_j C_j(z) * F(z)^j = 0 with integer C_j."""

    coeffs: tuple  # QPoly per power of F, index 0 = constant term

    @property
    def degree_f(self):
        return len(self.coeffs) - 1

    @property
    def degree_z(self):
        return max((c.degree for c in self.coeffs), default=-1)

    def grid(self):
        """Coefficient grid, one row of z-coefficients per power of F."""
        dz = self.degree_z
        return [
            [int(c[i]) for i in range(dz + 1)] for c in self.coeffs
        ]

    def residual(self, series: TruncSeries) -> TruncSeries:
        out = TruncSeries.zero(series.order)
        power = TruncSeries.one(series.order)
        for c in self.coeffs:
            out = out + power * TruncSeries.from_poly(c.coeffs[: series.order], series.order)
            power = power * series
        return out

    def holds_for(self, terms) -> bool:
        series = TruncSeries(terms)
        return self.residual(series).is_zero()

    def to_str(self, var="z", func="F"):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.degree < 0:
                continue
            poly = c.to_str(var)
            if j == 0:
                parts.append(f"({poly})" if c.degree > 0 else poly)
            else:
                fpow = func if j == 1 else f"{func}^{j}"
                if c.degree == 0 and c[0] == 1:
                    parts.append(fpow)
                elif c.degree == 0 and c[0] == -1:
                    parts.append(f"-{fpow}")
                elif c.degree == 0:
                    parts.append(f"{c[0]}*{fpow}")
                else:
                    parts.append(f"({poly})*{fpow}")
        return " + ".join(parts).replace("+ -", "- ") + " = 0"


@dataclass(frozen=True)
class AlgebraicGuess:
    relation: AlgebraicRelation
    verified_terms: int

    def to_json_obj(self):
        return {
            "grid": self.relation.grid(),
            "degree_z": self.relation.degree_z,
            "degree_f": self.relation.degree_f,
            "equation": self.relation.to_str(),
            "verified_terms": self.verified_terms,
        }


def guess_algebraic(terms, deg_z, deg_f, holdout=10):
    """Polynomial relation P(z, F) = 0 of bidegree <= (deg_z, deg_f).

    The kernel of the coefficient-extraction map is computed on all but the
    last `holdout` supplied terms, and a candidate is returned only when its
    residual also vanishes through the held-out ones.  The relation is
    integer, content-free, with positive leading coefficient in graded
    lexicographic order (F before z), and uses F with degree at least 1.
    """
    order = len(terms)
    if order < (deg_z + 1) * (deg_f + 1) + holdout:
        raise GuessError(
            f"need at least {(deg_z + 1) * (deg_f + 1) + holdout} terms "
            f"(bidegree ({deg_z},{deg_f}), holdout={holdout}), got {order}"
        )
    fit_order = order - holdout
    head = terms[:fit_order]
    powers = [[1] + [0] * (fit_order - 1)]
    for _ in range(deg_f):
        prev = powers[-1]
        powers.append(
            [sum(map(mul, prev[: m + 1], reversed(head[: m + 1]))) for m in range(fit_order)]
        )
    cols = [(j, i) for j in range(deg_f + 1) for i in range(deg_z + 1)]
    rows = [
        [powers[j][m - i] if m >= i else 0 for j, i in cols] for m in range(fit_order)
    ]
    for vec in nullspace_basis(rows, len(cols)):
        if not any(vec[idx] for idx, (j, _) in enumerate(cols) if j >= 1):
            continue
        ints = _int_normalize(vec)
        # Positive leading coefficient: graded lex with F > z.
        lead = max(
            (idx for idx in range(len(cols)) if ints[idx]),
            key=lambda idx: (cols[idx][1] + cols[idx][0], cols[idx][0]),
        )
        if ints[lead] < 0:
            ints = [-v for v in ints]
        coeffs = []
        for j in range(deg_f + 1):
            coeffs.append(QPoly([ints[cols.index((j, i))] for i in range(deg_z + 1)]))
        relation = AlgebraicRelation(coeffs=tuple(coeffs))
        if relation.holds_for(terms):
            return AlgebraicGuess(relation, holdout)
    return None


def minimal_algebraic(terms, max_total=8, holdout=10):
    """First relation found sweeping bidegrees by total, then by F-degree."""
    for total in range(1, 2 * max_total + 1):
        for df in range(1, min(total, max_total) + 1):
            dz = total - df
            if dz > max_total:
                continue
            if len(terms) < (dz + 1) * (df + 1) + holdout:
                continue
            rel = guess_algebraic(terms, dz, df, holdout)
            if rel is not None:
                return rel
    return None
