"""Fit closed forms to integer sequences: rational functions and
polynomial equations P(z, F) = 0 satisfied by the generating function.

A rational fit is the shortest linear recurrence of the terms
(Berlekamp-Massey, `shortest_recurrence`), re-expanded against every term.
An algebraic candidate of bidegree (dz, df) is a kernel vector of the
coefficient rows of z^i F^j (i <= dz, j <= df) on a fitting window, kept
only when its residual also vanishes on the held-out terms.  Agreement on
finitely many terms is strong evidence, not a proof.

Most bidegrees have full column rank, and those cost no exact arithmetic.
As in GFUN's `listtoalgeq` (Salvy & Zimmermann 1994), a sweep (`_Sweep`)
reduces integer terms modulo the prime 2^61 - 1 once and extends the powers
F^j mod p row by row, only as far as a rank certificate reads: a nonzero
maximal minor mod p is nonzero over Z, so full rank mod p proves full rank
over Q.  A certificate for (dz', df') covers every (dz, df) <= (dz', df'),
whose columns are a subset, so a sweep ends once its maximal bidegrees are
certified.  Only a bidegree whose rank drops mod p gets exact integer
powers, built once per sweep, and `nullspace_basis` takes its kernel by
fraction-free Gauss-Jordan elimination (Bareiss 1968) on integer rows,
which gives the same reduced row echelon basis as `Fraction` elimination.
Non-integer terms take the exact route for every bidegree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import GuessError
from .qpoly import _PRIME, QPoly, _exact_all
from .ratfunc import RatFunc
from .series import TruncSeries


def _int_rows(rows):
    """The rows, each scaled by the lcm of its denominators: same kernel,
    integer entries."""
    out = []
    for row in rows:
        if any(x.__class__ is not int for x in row):
            den = lcm(*[x.denominator for x in row])
            row = [x.numerator * (den // x.denominator) for x in row]
        out.append(row)
    return out


def _full_rank_reduced(rows, ncols):
    """True when rows of residues mod _PRIME, taken in order, reach rank
    ncols; stops reading rows once they do."""
    pivots = []  # (column, row normalised to 1 there), in insertion order
    for red in rows:
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


def _full_rank_mod_p(rows, ncols):
    """True when the rows have rank ncols modulo _PRIME.

    Each row is scaled to integers first; a nonzero ncols x ncols minor mod
    p is nonzero over Z, so True proves full column rank over Q.
    """
    return _full_rank_reduced(([x % _PRIME for x in row] for row in _int_rows(rows)), ncols)


def _bareiss(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows, in
    place.  Returns the pivot columns and the last pivot d: row r ends as d
    times row r of the reduced row echelon form.  Each entry stays a minor
    of the input, so every division is exact."""
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return pivots, prev


def nullspace_basis(rows, ncols):
    """Basis of the kernel of the given row list (entries int or Fraction):
    for each free column of the reduced row echelon form, in order, the
    vector with 1 there and minus that column's RREF entries at the pivots.

    The rows are scaled to integers.  A full-rank certificate mod p answers
    [] without exact arithmetic; every other case runs `_bareiss`.
    """
    work = _int_rows(rows)
    if len(work) >= ncols and _full_rank_mod_p(work, ncols):
        return []
    pivots, d = _bareiss(work, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = Fraction(-work[r][free], d)
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


def _extend_powers(powers, rhead, df, length, mod=None):
    """Extend powers[j], the coefficients of F^j (F given by its reversed
    head rhead), to `length` coefficients for every j <= df, reduced mod
    `mod` when it is given."""
    if not powers:
        powers.append([1] + [0] * (len(rhead) - 1))
    while len(powers) <= df:
        powers.append([])
    last = len(rhead) - 1
    for j in range(1, df + 1):
        prev, cur = powers[j - 1], powers[j]
        for k in range(len(cur), length):
            c = sum(map(mul, prev, rhead[last - k:]))
            cur.append(c % mod if mod else c)


def _row(powers, m, dz, df):
    """Coefficient of z^m in z^i F^j, for columns (j, i) in j-major order."""
    return [powers[j][m - i] if m >= i else 0 for j in range(df + 1) for i in range(dz + 1)]


class _Sweep:
    """Coefficient rows of z^i F^j over one fitting window, shared by every
    bidegree fitted to the same terms.

    Integer terms get rank certificates mod p (`full_rank`), read from
    powers of F mod p that grow a row at a time; `certified` keeps the
    bidegrees proved to have full rank.  Exact powers (`exact_powers`) are
    built only for a bidegree that the certificate cannot settle.
    """

    def __init__(self, terms, holdout):
        self.terms = terms
        self.holdout = holdout
        self.fit = len(terms) - holdout
        head = _exact_all(terms[: self.fit])
        self.rhead = head[::-1]
        self.modular = all(t.__class__ is int for t in head)
        self.mod_rhead = [t % _PRIME for t in self.rhead] if self.modular else None
        self.mod_powers = []
        self.exact_powers = []
        self.certified = []

    def full_rank(self, dz, df):
        """True when rank mod p proves that (dz, df) has no relation."""
        if any(dz <= a and df <= b for a, b in self.certified):
            return True
        pw = self.mod_powers

        def rows():
            for m in range(self.fit):
                _extend_powers(pw, self.mod_rhead, df, m + 1, _PRIME)
                yield _row(pw, m, dz, df)

        if _full_rank_reduced(rows(), (dz + 1) * (df + 1)):
            self.certified.append((dz, df))
            return True
        return False

    def relation(self, dz, df):
        """A relation of bidegree <= (dz, df) from the kernel of the fitting
        rows that holds on every term, or None."""
        if self.modular and self.full_rank(dz, df):
            return None
        pw = self.exact_powers
        _extend_powers(pw, self.rhead, df, self.fit)
        rows = [_row(pw, m, dz, df) for m in range(self.fit)]
        width = dz + 1
        for vec in nullspace_basis(rows, width * (df + 1)):
            if not any(vec[width:]):
                continue
            ints = _int_normalize(vec)
            # Positive leading coefficient: graded lex with F > z.
            lead = max(
                (idx for idx, v in enumerate(ints) if v),
                key=lambda idx: (idx % width + idx // width, idx // width),
            )
            if ints[lead] < 0:
                ints = [-v for v in ints]
            coeffs = tuple(QPoly(ints[j * width : (j + 1) * width]) for j in range(df + 1))
            relation = AlgebraicRelation(coeffs=coeffs)
            if relation.holds_for(self.terms):
                return AlgebraicGuess(relation, self.holdout)
        return None


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
    return _Sweep(terms, holdout).relation(deg_z, deg_f)


def minimal_algebraic(terms, max_total=8, holdout=10):
    """First relation found sweeping bidegrees by total, then by F-degree,
    over those that the terms can fit.

    One `_Sweep` serves the whole grid.  When rank certificates mod p cover
    its maximal bidegrees, no bidegree has a relation and the sweep ends.
    """
    grid = [
        (total - df, df)
        for total in range(1, 2 * max_total + 1)
        for df in range(1, min(total, max_total) + 1)
        if total - df <= max_total and len(terms) >= (total - df + 1) * (df + 1) + holdout
    ]
    sweep = _Sweep(terms, holdout)
    top = [b for b in grid if not any(o != b and o[0] >= b[0] and o[1] >= b[1] for o in grid)]
    if sweep.modular and all(sweep.full_rank(dz, df) for dz, df in top):
        return None
    for dz, df in grid:
        rel = sweep.relation(dz, df)
        if rel is not None:
            return rel
    return None
