"""Exact rational substrate: sparse polynomials over Q and exact linear algebra.

Polynomial coefficients are :class:`fractions.Fraction` (arbitrary precision,
always stored reduced with positive denominator).  Linear algebra computes
on Python ``int`` where the values are integral and reads results out as
``Fraction`` where a division happens, so every computation in this package
is exact; nothing is ever rounded.

Polynomials live in Q[x1..xm, y1..ym].  A monomial is a flat exponent tuple
of length ``2m`` (x-exponents first, then y-exponents), and carries the
bigrading

    bidegree(x^a y^b) = (|a| + |b|, 2|b|)

i.e. total degree paired with twice the y-degree.  The fixed monomial order
is graded lexicographic with x1 > x2 > ... > xm > y1 > ... > ym; it is used
for canonical printing and for pivot selection in coset reductions, so all
output is deterministic.

Linear algebra (row reduction, kernels, span membership) runs through one
sparse elimination core on integer rows ``{column: int}``: rational rows are
scaled to integers first, rows are combined fraction-free as ``a*r - b*p``
and divided by the gcd of their entries (Bareiss, Math. Comp. 22, 1968), and
only the read-out of the reduced form divides by the pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

Monomial = tuple  # flat exponent tuple of length 2m


def frac_str(x) -> str:
    """Render an exact number as ``p`` or ``p/q`` (never a float)."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def monomial_key(exps: Monomial):
    """Sort key realizing graded lex; larger key = larger monomial."""
    return (sum(exps), exps)


def monomial_bidegree(exps: Monomial, m: int) -> tuple[int, int]:
    return (sum(exps), 2 * sum(exps[m:]))


class Poly:
    """Sparse polynomial in Q[x1..xm, y1..ym].

    Immutable by convention: no method mutates ``coeffs`` after
    construction, so instances may be shared freely across threads.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: dict | None = None):
        if m < 1:
            raise ValueError(f"ambient component count must be >= 1, got {m}")
        self.m = m
        clean = {}
        if coeffs:
            for exps, c in coeffs.items():
                c = Fraction(c)
                if c == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != 2 * m or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for m={m}")
                clean[exps] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "Poly":
        return cls(m)

    @classmethod
    def constant(cls, m: int, c) -> "Poly":
        return cls(m, {(0,) * (2 * m): Fraction(c)})

    @classmethod
    def one(cls, m: int) -> "Poly":
        return cls.constant(m, 1)

    @classmethod
    def monomial(cls, m: int, exps: Monomial, c=1) -> "Poly":
        return cls(m, {tuple(exps): Fraction(c)})

    @classmethod
    def variable(cls, m: int, idx: int) -> "Poly":
        """Variable by flat index: 0..m-1 are x1..xm, m..2m-1 are y1..ym."""
        if not 0 <= idx < 2 * m:
            raise ValueError(f"variable index {idx} out of range for m={m}")
        exps = [0] * (2 * m)
        exps[idx] = 1
        return cls.monomial(m, tuple(exps))

    @classmethod
    def x(cls, m: int, i: int) -> "Poly":
        """x_i with 1-based i."""
        return cls.variable(m, i - 1)

    @classmethod
    def y(cls, m: int, i: int) -> "Poly":
        """y_i with 1-based i."""
        return cls.variable(m, m + i - 1)

    # -- ring structure ----------------------------------------------------

    def _check_same_ambient(self, other: "Poly"):
        if self.m != other.m:
            raise ValueError(f"mismatched ambient variable count: {self.m} vs {other.m}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.m, other)
        self._check_same_ambient(other)
        coeffs = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            c2 = coeffs.get(exps, 0) + c
            if c2 == 0:
                coeffs.pop(exps, None)
            else:
                coeffs[exps] = c2
        return Poly(self.m, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.m, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.m, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = Fraction(other)
            return Poly(self.m, {e: k * c for e, k in self.coeffs.items()})
        self._check_same_ambient(other)
        coeffs: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = coeffs.get(e, 0) + c1 * c2
                if c == 0:
                    coeffs.pop(e, None)
                else:
                    coeffs[e] = c
        return Poly(self.m, coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.m)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.m == other.m and self.coeffs == other.coeffs
        try:
            return self.coeffs == Poly.constant(self.m, other).coeffs
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.m, frozenset(self.coeffs.items())))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exps: Monomial) -> Fraction:
        return self.coeffs.get(tuple(exps), Fraction(0))

    def terms(self):
        """Terms sorted by the fixed monomial order, leading term first."""
        for exps in sorted(self.coeffs, key=monomial_key, reverse=True):
            yield exps, self.coeffs[exps]

    def derivative(self, idx: int) -> "Poly":
        """Formal partial derivative by the flat variable index."""
        if not 0 <= idx < 2 * self.m:
            raise ValueError(f"variable index {idx} out of range for m={self.m}")
        coeffs = {}
        for exps, c in self.coeffs.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            coeffs[tuple(new)] = c * e
        return Poly(self.m, coeffs)

    def is_homogeneous(self) -> bool:
        degs = {monomial_bidegree(e, self.m) for e in self.coeffs}
        return len(degs) <= 1

    def bidegree(self) -> tuple[int, int] | None:
        """Common bidegree of all terms; None for 0; raises if mixed."""
        degs = {monomial_bidegree(e, self.m) for e in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial, bidegrees {sorted(degs)}")
        return degs.pop()

    # -- rendering ---------------------------------------------------------

    def var_names(self) -> list[str]:
        return [f"x{i}" for i in range(1, self.m + 1)] + [f"y{i}" for i in range(1, self.m + 1)]

    def __str__(self):
        return render_terms(self.terms(), self.var_names())

    def __repr__(self):
        return f"Poly(m={self.m}, {self})"


def render_terms(terms, names: Sequence[str]) -> str:
    """Shared canonical text form for sparse exponent-tuple/coefficient data."""
    parts = []
    for exps, c in terms:
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        a = abs(c)
        if not mono:
            body = frac_str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{frac_str(a)}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# -- exact linear algebra ----------------------------------------------------


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix of rationals; rows is a tuple of row tuples."""

    rows: tuple
    nrows: int
    ncols: int

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], ncols: int | None = None) -> "RatMatrix":
        rs = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if rs:
            ncols = len(rs[0])
            if any(len(r) != ncols for r in rs):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        return cls(rs, len(rs), ncols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_rows(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)],
            ncols=n,
        )

    def kernel_basis(self):
        return kernel_basis(self)

    def rank(self) -> int:
        return len(rref(self)[1])


def _int_row(items) -> dict:
    """One row as ``{column: int}`` whose entries have gcd 1.

    Rational entries are scaled by the lcm of their denominators and the gcd
    of the entries is divided out; scaling a row changes neither the row
    space nor the reduced form, so nothing is lost.
    """
    row = {}
    for c, v in items:
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        if v:
            row[c] = v
    den = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (den // v.denominator) for c, v in row.items()})


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _cancel(row: dict, piv: dict, col: int) -> dict:
    """``a*row - b*piv`` with the entry at ``col`` cancelled, made primitive.

    Fraction-free: a and b are the two entries at ``col`` over their gcd
    (Bareiss, Math. Comp. 22, 1968), so all arithmetic stays in int.
    """
    a, b = piv[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, v in piv.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            del out[c]
    return _primitive(out)


def _echelon(rows: list[dict], ncols: int | None) -> dict[int, dict]:
    """Forward elimination: pivot column -> primitive row starting there.

    Stops as soon as every one of ``ncols`` columns has a pivot, since the
    remaining rows can only reduce to zero.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            row = _cancel(row, piv, col)
        if len(pivots) == ncols:
            break
    return pivots


def _reduce(pivots: dict[int, dict]) -> list[tuple[int, dict]]:
    """Back-substitution to the reduced form, in increasing pivot order.

    Each row is cleared at every later pivot column; the reduced row is
    then ``row / row[col]``.
    """
    done: dict[int, dict] = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c in done]:
            row = _cancel(row, done[c], c)
        done[col] = row
    return sorted(done.items())


def _normalise(mat, ncols: int | None) -> tuple[list[dict], int | None, bool]:
    """Integer rows, column count and whether the input was dense."""
    if isinstance(mat, RatMatrix):
        return [_int_row(enumerate(r)) for r in mat.rows], mat.ncols, True
    if not mat:
        return [], ncols or 0, True
    if not isinstance(mat[0], dict):
        if ncols is None:
            ncols = len(mat[0])
        return [_int_row(enumerate(r)) for r in mat], ncols, True
    return [_int_row(r.items()) for r in mat], ncols, False


def rref(mat) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    ``mat`` is a sequence of rows, each a dense sequence or a sparse
    ``{column: value}`` dict; the input is not modified.  The reduced rows
    come back in the same form, one per input row, zero rows last: dense
    rows as lists of Fraction, sparse rows as dicts of nonzero Fractions.
    """
    rows, ncols, dense = _normalise(mat, None)
    reduced = _reduce(_echelon(rows, ncols))
    zero_rows = len(rows) - len(reduced)
    if dense:
        out = [[Fraction(row.get(c, 0), row[col]) for c in range(ncols)] for col, row in reduced]
        out += [[Fraction(0)] * ncols for _ in range(zero_rows)]
    else:
        out = [{c: Fraction(v, row[col]) for c, v in row.items()} for col, row in reduced]
        out += [{} for _ in range(zero_rows)]
    return out, [col for col, _ in reduced]


def kernel_basis(mat, ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Exact null-space basis of a matrix; empty list iff injective.

    Accepts a RatMatrix or a sequence of rows, dense or sparse as for
    :func:`rref`; sparse rows need ``ncols``.  One basis vector per free
    column, with a 1 in the free position (deterministic order).
    """
    rows, ncols, _ = _normalise(mat, ncols)
    if ncols is None:
        raise ValueError("sparse rows need an explicit column count")
    pivots = _echelon(rows, ncols)
    if len(pivots) == ncols:
        return []
    reduced = _reduce(pivots)
    zero = Fraction(0)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = Fraction(1)
        for col, row in reduced:
            v = row.get(fc)
            if v:
                vec[col] = Fraction(-v, row[col])
        basis.append(tuple(vec))
    return basis


def solve_columns(columns: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Solve A c = rhs where A has the given columns; None if inconsistent.

    Free coordinates of the solution are set to zero.
    """
    ncols = len(columns)
    nrows = len(rhs)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(rhs[i])]
        for i in range(nrows)
    ]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = red[r][ncols]
    return sol


def span_solve(vectors: Sequence[Poly], target: Poly) -> list[Fraction] | None:
    """Express target in the span of homogeneous vectors, or None if outside.

    All inputs must be homogeneous of one common bidegree (zero is allowed
    anywhere); the returned coefficients are exact and reproduce the target
    on the nose.
    """
    if not vectors:
        return [] if target.is_zero() else None
    m = vectors[0].m
    degs = set()
    for p in list(vectors) + [target]:
        if p.m != m:
            raise ValueError("mismatched ambient variable count")
        d = p.bidegree()  # raises on inhomogeneous input
        if d is not None:
            degs.add(d)
    if len(degs) > 1:
        raise ValueError(f"inputs span several bidegrees: {sorted(degs)}")
    support = sorted(
        {e for p in vectors for e in p.coeffs} | set(target.coeffs),
        key=monomial_key,
        reverse=True,
    )
    columns = [[p.coefficient(e) for e in support] for p in vectors]
    rhs = [target.coefficient(e) for e in support]
    return solve_columns(columns, rhs)

