"""Exact rational substrate: sparse polynomials over Q and exact linear algebra.

Coefficients are Python ``int`` wherever the values are integral and
:class:`fractions.Fraction` (reduced, positive denominator) only where a
division happens: in the read-out of the linear algebra below or in a caller
that divides.  Nothing is ever rounded.  ``fractions`` (which loads
``decimal``) is imported inside the functions that build a ``Fraction``, and
only once they must, so a command that never divides never loads it.

Polynomials and Weyl operators (``weyl.WeylOp``) are both sparse exact
linear combinations of monomials in commuting exponents, and share one
class, :class:`Combination`.  It holds the key format: a key is one flat
exponent tuple, m entries for each variable prefix of the subclass.  Its
constructor checks every key and drops zero coefficients, and it holds the
sums, scalar and ring products, powers, equality and text form once; sums
and equality take only a combination of the same class.  Each subclass adds
only its prefixes and the product of two keys.  A sparse coefficient dict
is accumulated in one place, :func:`add_into`.

Polynomials live in Q[x1..xm, y1..ym].  A monomial is a flat exponent tuple
of length ``2m`` (x-exponents first, then y-exponents), and carries the
bigrading

    bidegree(x^a y^b) = (|a| + |b|, 2|b|)

i.e. total degree paired with twice the y-degree.  The fixed monomial order
is graded lexicographic with x1 > x2 > ... > xm > y1 > ... > ym; it is used
for canonical printing and for pivot selection in coset reductions, so all
output is deterministic.

Linear algebra (rank, row reduction and kernels) takes one matrix format,
a sequence of sparse rows ``{column: value}``, and runs through one
elimination core on integer rows: rational rows are scaled to integers
first, rows are combined fraction-free as ``a*r - b*p`` and divided by the
gcd of their entries (Bareiss, Math. Comp. 22, 1968).  Only :func:`rref`
divides by the pivots; :func:`kernel_basis` reads its vectors off ``rref``
and :func:`rank` skips the read-out.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Monomial = tuple  # flat exponent tuple: m entries per prefix of its class


def monomial_key(exps: Monomial):
    """Sort key realizing graded lex; larger key = larger monomial."""
    return (sum(exps), exps)


def monomial_bidegree(exps: Monomial, m: int) -> tuple[int, int]:
    return (sum(exps), 2 * sum(exps[m:]))


def as_exact(c):
    """An exact coefficient: ``int`` and ``Fraction`` pass through unchanged.

    Anything else, such as a float or a string like ``"2/3"``, becomes a
    ``Fraction``, so a float is never stored.
    """
    if isinstance(c, int):
        return c
    from fractions import Fraction

    return c if isinstance(c, Fraction) else Fraction(c)


def add_into(acc: dict, items: Iterable, scale=1) -> dict:
    """Add ``scale * c`` to ``acc[key]`` for each ``(key, c)``; returns ``acc``.

    The one accumulation loop of the sparse coefficient dicts of ``exact``,
    ``weyl`` and ``nodemodule`` (``series`` keeps its own, as an
    independent route).  Entries that cancel to zero are dropped, so a
    dict built only through it never stores a zero.
    """
    for key, c in items:
        v = acc.get(key, 0) + scale * c
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc


class Combination:
    """Sparse exact linear combination: ``coeffs`` maps keys to nonzero numbers.

    The one implementation of the arithmetic that polynomials (:class:`Poly`)
    and Weyl operators (``weyl.WeylOp``) share.  ``m >= 1`` is the ambient
    component count.  A key is a flat tuple of ``len(PREFIXES) * m``
    nonnegative exponents: for each prefix p, in order, those of p1..pm.
    A subclass supplies

    * ``PREFIXES``: the variable prefixes, such as ``("x", "y")``;
    * ``_mono_mul(k1, k2)``: the product of two keys as ``(key, int)``
      pairs.

    Sums and equality take a combination of the same class only (any other
    operand gets ``NotImplemented``); equality is by content, so a
    combination is not hashable.  A scalar enters through ``*`` alone.

    Immutable by convention: no method mutates ``coeffs`` after
    construction, so instances may be shared freely across threads.
    """

    __slots__ = ("m", "coeffs")
    PREFIXES: tuple[str, ...] = ()

    def __init__(self, m: int, coeffs: dict | None = None):
        if m < 1:
            raise ValueError(f"ambient component count must be >= 1, got {m}")
        self.m = m
        clean = {}
        if coeffs:
            for key, c in coeffs.items():
                c = as_exact(c)
                if c:
                    clean[self._key(key)] = c
        self.coeffs = clean

    def _key(self, exps) -> Monomial:
        """``exps`` as a key: ``len(PREFIXES) * m`` non-negative ``int``s (``bool`` is not)."""
        exps = tuple(exps)
        if len(exps) != len(self.PREFIXES) * self.m or any(
            type(e) is not int or e < 0 for e in exps
        ):
            raise ValueError(f"bad exponent tuple {exps} for m={self.m}")
        return exps

    @classmethod
    def _unit(cls, m: int) -> Monomial:
        return (0,) * (len(cls.PREFIXES) * m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int):
        return cls(m)

    @classmethod
    def constant(cls, m: int, c):
        return cls(m, {cls._unit(m): c})

    @classmethod
    def one(cls, m: int):
        return cls.constant(m, 1)

    @classmethod
    def monomial(cls, m: int, exps: Monomial, c=1):
        return cls(m, {tuple(exps): c})

    @classmethod
    def _single(cls, m: int, slot: int, i: int):
        """The variable ``PREFIXES[slot]`` i, with 1-based i."""
        if not 1 <= i <= m:
            raise ValueError(f"index {i} out of range for m={m}")
        exps = [0] * (len(cls.PREFIXES) * m)
        exps[slot * m + i - 1] = 1
        return cls.monomial(m, exps)

    # -- arithmetic --------------------------------------------------------

    def _check_same_size(self, other: "Combination"):
        if self.m != other.m:
            raise ValueError(f"mismatched {type(self).__name__} sizes: {self.m} vs {other.m}")

    def _plus(self, other, scale):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_same_size(other)
        return type(self)(self.m, add_into(dict(self.coeffs), other.coeffs.items(), scale))

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return type(self)(self.m, add_into({}, self.coeffs.items(), as_exact(other)))
        self._check_same_size(other)
        mono_mul = self._mono_mul
        coeffs: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                add_into(coeffs, mono_mul(k1, k2), c1 * c2)
        return type(self)(self.m, coeffs)

    # reached only with a scalar on the left: two combinations meet in __mul__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = self.one(self.m)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- rendering ---------------------------------------------------------

    def var_names(self) -> list[str]:
        return [f"{p}{i}" for p in self.PREFIXES for i in range(1, self.m + 1)]

    def __str__(self):
        """Canonical text form: terms in the fixed monomial order, leading first."""
        names = self.var_names()
        out = ""
        for exps in sorted(self.coeffs, key=monomial_key, reverse=True):
            c = self.coeffs[exps]
            mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
            a = abs(c)
            if not mono:
                body = str(a)
            elif a == 1:
                body = mono
            else:
                body = f"{a}*{mono}"
            if out:
                out += f" {'-' if c < 0 else '+'} {body}"
            else:
                out = "-" + body if c < 0 else body
        return out or "0"

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, {self})"


class Poly(Combination):
    """Sparse polynomial in Q[x1..xm, y1..ym], keyed by flat exponent tuples."""

    __slots__ = ()
    PREFIXES = ("x", "y")

    def _mono_mul(self, e1, e2):
        return ((tuple(a + b for a, b in zip(e1, e2)), 1),)

    @classmethod
    def x(cls, m: int, i: int) -> "Poly":
        """x_i with 1-based i."""
        return cls._single(m, 0, i)

    @classmethod
    def y(cls, m: int, i: int) -> "Poly":
        """y_i with 1-based i."""
        return cls._single(m, 1, i)

    # -- structure ---------------------------------------------------------

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

    def bidegree(self) -> tuple[int, int] | None:
        """Common bidegree of all terms; None for 0; raises if mixed."""
        degs = {monomial_bidegree(e, self.m) for e in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial, bidegrees {sorted(degs)}")
        return degs.pop()


# -- exact linear algebra ----------------------------------------------------


def _int_row(items) -> dict:
    """One row as ``{column: int}`` whose entries have gcd 1.

    Rational entries are scaled by the lcm of their denominators and the gcd
    of the entries is divided out; scaling a row changes neither the row
    space nor the reduced form, so nothing is lost.
    """
    row = {}
    for c, v in items:
        v = as_exact(v)
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
    return _primitive(add_into(out, piv.items(), -b))


def _echelon(rows: list[dict], ncols: int | None) -> dict[int, dict]:
    """Forward elimination: pivot column -> integer row starting there.

    Stops as soon as every one of ``ncols`` columns has a pivot, since the
    remaining rows can only reduce to zero.  The input rows are never
    mutated: a pivot may be an input row itself, and every combination is a
    new dict.
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


def _int_rows(mat: Sequence[dict]) -> list[dict]:
    """The rows of ``mat`` as ``{column: int}`` rows with no zero entry.

    A row whose entries are all nonzero ``int``s (``bool`` is not) is kept
    as it is, without a copy or a gcd pass: ``_echelon`` never mutates a
    row, and neither the rank nor the read-out, which divides by the
    pivots, needs a primitive row.  Any other row goes through
    :func:`_int_row`, so an explicit zero or a ``bool`` never becomes a pivot.
    """
    return [r if all(type(v) is int and v for v in r.values()) else _int_row(r.items()) for r in mat]


def rref(mat: Sequence[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    ``mat`` is a sequence of sparse rows ``{column: value}``; the input is
    not modified.  The reduced rows come back one per input row, zero rows
    last, as dicts of nonzero Fractions.  The one read-out that divides by
    the pivots.
    """
    from fractions import Fraction

    rows = _int_rows(mat)
    reduced = _reduce(_echelon(rows, None))
    out = [{c: Fraction(v, row[col]) for c, v in row.items()} for col, row in reduced]
    out += [{} for _ in range(len(rows) - len(reduced))]
    return out, [col for col, _ in reduced]


def rank(mat: Sequence[dict], ncols: int) -> int:
    """Exact rank of sparse rows by forward elimination alone, stopping early at ``ncols``."""
    return len(_echelon(_int_rows(mat), ncols))


def kernel_basis(mat: Sequence[dict], ncols: int) -> list[tuple[Fraction, ...]]:
    """Exact null-space basis of sparse rows over ``ncols`` columns; empty list iff injective.

    One basis vector per free column, with a 1 in the free position
    (deterministic order), read off the reduced rows of :func:`rref`.  A
    full-rank matrix is answered by :func:`rank` alone, without a Fraction.
    """
    if rank(mat, ncols) == ncols:
        return []
    from fractions import Fraction

    reduced, pivots = rref(mat)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, col in zip(reduced, pivots):
            if fc in row:
                vec[col] = -row[fc]
        basis.append(tuple(vec))
    return basis
