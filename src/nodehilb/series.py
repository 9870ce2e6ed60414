"""Truncated bivariate Poincare series in q (points) and t (homological degree).

Only even homological degrees occur, so a series is stored as a square
array c[n][j] = coefficient of q^n t^(2j); odd-degree slots do not exist
rather than being zeros.  Coefficients are exact: Python ints wherever the
maths is integral, which is every route below, and Fractions only where a
division happens.  The one division is in ``expand``, when a denominator's
constant term is not 1; every denominator built here has constant term 1.
Ring operations respect the truncation order.

The generating function of the graded dimensions of the node module is
computed here by three independent routes and compared coefficient by
coefficient:

  * the closed form (q^2 t^2 - q + 1) / ((1-q)^2 (1-q t^2)^2),
  * the inclusion-exclusion (Mayer-Vietoris) sum over the irreducible
    components of the scheme of n points and their pairwise intersections,
    whose Poincare polynomials are products of two all-ones polynomials,
    found by counting: u^s (1+..+u^(a-1))(1+..+u^(b-1)), u = t^2, is
    u^s (1-u^a)(1-u^b) / (1-u)^2, so each adds four +-1 point masses to an
    int array (+1 at s and s+a+b, -1 at s+a and s+b), and two running sums
    of the array give the row,
  * the product of the punctual factor 1 + sum_{c>=1} q^c (1 + (c-1) t^2)
    with the smooth-locus factor 1/(1-q t^2)^2.

A fourth route comes from the module presentation: the free module
Q[x1,x2,y1,y2] has series 1/((1-q)^2 (1-q t^2)^2), the submodule
Q[x1,x2,y1+y2]*(x1-x2) has series q/((1-q)^2 (1-q t^2)), and the quotient
is their difference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from . import nodemodule
from .exact import frac_str

Poly2 = dict  # exact bivariate polynomial: (i, j) -> coefficient of q^i t^(2j)


class Series2:
    """Truncated series sum c[n][j] q^n t^(2j), 0 <= n, j <= order."""

    __slots__ = ("order", "c")

    def __init__(self, order: int, c: list[list] | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.order = order
        size = order + 1
        if c is None:
            self.c = [[0] * size for _ in range(size)]
        else:
            if len(c) != size or any(len(row) != size for row in c):
                raise ValueError("coefficient array has the wrong shape")
            self.c = [list(row) for row in c]

    @classmethod
    def from_poly(cls, poly: Poly2, order: int) -> "Series2":
        s = cls(order)
        for (i, j), v in poly.items():
            if i <= order and j <= order:
                s.c[i][j] = v
        return s

    def row(self, n: int) -> list:
        """Coefficients of q^n for j = 0..n (degrees beyond 2n are zero here)."""
        return [self.c[n][j] for j in range(n + 1)]

    def _check_order(self, other: "Series2"):
        if self.order != other.order:
            raise ValueError(f"mismatched truncation orders {self.order} vs {other.order}")

    def __add__(self, other: "Series2") -> "Series2":
        self._check_order(other)
        return Series2(
            self.order,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.c, other.c)],
        )

    def __sub__(self, other: "Series2") -> "Series2":
        self._check_order(other)
        return Series2(
            self.order,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.c, other.c)],
        )

    def __mul__(self, other: "Series2") -> "Series2":
        self._check_order(other)
        out = Series2(self.order)
        nz_other = [
            (i, j, v)
            for i, row in enumerate(other.c)
            for j, v in enumerate(row)
            if v != 0
        ]
        for a, row in enumerate(self.c):
            for b, u in enumerate(row):
                if u == 0:
                    continue
                for i, j, v in nz_other:
                    if a + i <= self.order and b + j <= self.order:
                        out.c[a + i][b + j] += u * v
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Series2)
            and self.order == other.order
            and self.c == other.c
        )

    def __repr__(self):
        head = "; ".join(
            " ".join(frac_str(v) for v in self.row(n)) for n in range(min(4, self.order) + 1)
        )
        return f"Series2(order={self.order}, rows {head} ...)"


def series_equal(a: Series2, b: Series2) -> tuple[bool, tuple[int, int] | None]:
    """Exact comparison; on failure also return the smallest differing (n, j)."""
    a._check_order(b)
    for n in range(a.order + 1):
        for j in range(a.order + 1):
            if a.c[n][j] != b.c[n][j]:
                return False, (n, j)
    return True, None


class RationalFunction2(NamedTuple):
    """Ratio of exact polynomials in q and t^2, expanded as a power series by :func:`expand`."""

    num: tuple
    den: tuple

    @classmethod
    def make(cls, num: Poly2, den: Poly2) -> "RationalFunction2":
        return cls(tuple(sorted(num.items())), tuple(sorted(den.items())))


def poly2_mul(p: Poly2, q: Poly2) -> Poly2:
    out: Poly2 = {}
    for (a, b), u in p.items():
        for (i, j), v in q.items():
            key = (a + i, b + j)
            c = out.get(key, 0) + u * v
            if c == 0:
                out.pop(key, None)
            else:
                out[key] = c
    return out


def expand(rf: RationalFunction2, order: int) -> Series2:
    """Exact truncated expansion num/den; den must have nonzero constant term.

    Coefficients are produced by the division recurrence, so multiplying the
    result back by the denominator reproduces the numerator up to the order.
    A constant term other than 1 is divided out of num and den once, up
    front; the recurrence itself only multiplies and subtracts, so integer
    inputs with a unit constant term give integer coefficients.
    """
    num = dict(rf.num)
    den = dict(rf.den)
    c0 = den.get((0, 0), 0)
    if c0 == 0:
        raise ValueError("denominator has zero constant term, not a unit in power series")
    if c0 != 1:
        num = {k: Fraction(v) / c0 for k, v in num.items()}
        den = {k: Fraction(v) / c0 for k, v in den.items()}
    tail = [(i, j, v) for (i, j), v in den.items() if (i, j) != (0, 0)]
    out = Series2(order)
    for n in range(order + 1):
        for j in range(order + 1):
            acc = num.get((n, j), 0)
            for a, b, v in tail:
                if a <= n and b <= j:
                    acc -= v * out.c[n - a][j - b]
            out.c[n][j] = acc
    return out


def _one_minus_q() -> Poly2:
    return {(0, 0): 1, (1, 0): -1}


def _one_minus_qt2() -> Poly2:
    return {(0, 0): 1, (1, 1): -1}


def closed_form() -> RationalFunction2:
    """(q^2 t^2 - q + 1) / ((1-q)^2 (1-q t^2)^2)."""
    num = {(2, 1): 1, (1, 0): -1, (0, 0): 1}
    den = poly2_mul(
        poly2_mul(_one_minus_q(), _one_minus_q()),
        poly2_mul(_one_minus_qt2(), _one_minus_qt2()),
    )
    return RationalFunction2.make(num, den)


def closed_form_pv(order: int) -> Series2:
    return expand(closed_form(), order)


# -- route two: inclusion-exclusion over components ---------------------------


def _add_box(acc: list[int], a: int, b: int, shift: int = 0, sign: int = 1) -> list[int]:
    """Add sign times the point masses of u^shift (1-u^a)(1-u^b), u = t^2, to ``acc``.

    Masses past the end of ``acc`` cannot reach it and are dropped.
    """
    for i, v in ((shift, sign), (shift + a, -sign), (shift + b, -sign), (shift + a + b, sign)):
        if i < len(acc):
            acc[i] += v
    return acc


def _component_masses(acc: list[int], n: int, k: int) -> list[int]:
    """Add the masses of component k at n: the blown-up product and the exceptional divisor."""
    return _add_box(_add_box(acc, n - k + 1, k + 1), k, n - k, shift=1)


def _running_sums(acc: list[int]) -> list[int]:
    """Divide point masses by (1-u)^2: two running sums."""
    return list(accumulate(accumulate(acc)))


def component_poincare(n: int, k: int) -> list[int]:
    """Poincare polynomial (in t^2) of the component with k points on one branch.

    The component is the blow-up of P^(n-k) x P^k along P^(n-k-1) x P^(k-1):
    the blown-up product contributes (1+..+t^(2(n-k))) (1+..+t^(2k)) and the
    exceptional divisor adds t^2 (1+..+t^(2(k-1))) (1+..+t^(2(n-k-1))).
    Degree 2n and palindromic.
    """
    if not 0 <= k <= n:
        raise ValueError(f"component index {k} out of range for n={n}")
    return _running_sums(_component_masses([0] * (n + 1), n, k))


def intersection_poincare(n: int, k: int) -> list[int]:
    """Poincare polynomial of the intersection of components k and k+1.

    The intersection is P^k x P^(n-k-1); degree 2(n-1).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"intersection index {k} out of range for n={n}")
    return _running_sums(_add_box([0] * n, k + 1, n - k))


def mv_pv(order: int) -> Series2:
    """Series assembled row by row from components minus intersections."""
    out = Series2(order)
    for n in range(order + 1):
        acc = [0] * (n + 1)
        for k in range(n + 1):
            _component_masses(acc, n, k)
        for k in range(n):
            _add_box(acc, k + 1, n - k, sign=-1)
        out.c[n][: n + 1] = _running_sums(acc)
    return out


# -- route three: punctual times smooth-locus factor --------------------------


def punctual_row(c: int) -> list[int]:
    """Poincare polynomial of the punctual locus at the singular point.

    The subschemes of length c supported entirely at the node form a chain
    of c-1 projective lines; an affine paving gives 1 + (c-1) t^2 for
    c >= 1 and 1 for c = 0.
    """
    if c < 0:
        raise ValueError("length must be >= 0")
    if c == 0:
        return [1]
    return [1, c - 1]


def paving_pv(order: int) -> Series2:
    """Product of the punctual factor with 1/(1-q t^2)^2 for the two branches."""
    punctual = Series2(order)
    for n in range(order + 1):
        for j, v in enumerate(punctual_row(n)):
            if j <= order:
                punctual.c[n][j] = v
    smooth = expand(
        RationalFunction2.make(
            {(0, 0): 1}, poly2_mul(_one_minus_qt2(), _one_minus_qt2())
        ),
        order,
    )
    return punctual * smooth


# -- route four: the module presentation --------------------------------------


def ambient_module_pv(order: int) -> Series2:
    """Series of Q[x1,x2,y1,y2]: 1 / ((1-q)^2 (1-q t^2)^2)."""
    den = poly2_mul(
        poly2_mul(_one_minus_q(), _one_minus_q()),
        poly2_mul(_one_minus_qt2(), _one_minus_qt2()),
    )
    return expand(RationalFunction2.make({(0, 0): 1}, den), order)


def submodule_pv(order: int) -> Series2:
    """Series of Q[x1,x2,y1+y2]*(x1-x2): q / ((1-q)^2 (1-q t^2)).

    Free on one generator of bidegree (1, 0) over a polynomial ring with two
    bidegree-(1,0) variables and one bidegree-(1,2) variable.
    """
    den = poly2_mul(poly2_mul(_one_minus_q(), _one_minus_q()), _one_minus_qt2())
    return expand(RationalFunction2.make({(1, 0): 1}, den), order)


def module_pv(order: int) -> Series2:
    return ambient_module_pv(order) - submodule_pv(order)


def module_pv_identity(order: int, enumeration_bound: int = 15) -> tuple[Series2, int, list]:
    """The quotient series and its cross-check against the coset model.

    Returns ambient minus submodule series to ``order``, which the caller
    compares with the closed form; the enumeration bound ``min(order,
    enumeration_bound)``; and the mismatches up to that bound between the
    ambient, submodule and quotient series and direct monomial / generator
    counting, each as ``[kind, n, j, series coefficient, count]``.
    """
    ambient = ambient_module_pv(order)
    sub = submodule_pv(order)
    diff = ambient - sub
    bound = min(order, enumeration_bound)
    mismatches = []
    for n in range(bound + 1):
        for j in range(n + 1):
            amb_count = nodemodule.dim_ambient(n, 2 * j)
            sub_count = nodemodule.dim_submodule(n, 2 * j)
            quo_count = nodemodule.dim_piece(n, 2 * j)
            if ambient.c[n][j] != amb_count:
                mismatches.append(["ambient", n, j, frac_str(ambient.c[n][j]), amb_count])
            if sub.c[n][j] != sub_count:
                mismatches.append(["submodule", n, j, frac_str(sub.c[n][j]), sub_count])
            if diff.c[n][j] != quo_count:
                mismatches.append(["quotient", n, j, frac_str(diff.c[n][j]), quo_count])
    return diff, bound, mismatches
