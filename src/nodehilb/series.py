"""Truncated bivariate Poincare series in q (points) and t (homological degree).

Only even homological degrees occur, and the scheme of n points has
dimension n, so a series truncated at ``order`` is its int triangle: a list
of order+1 rows, row n holding s[n][j] = coefficient of q^n t^(2j) for
0 <= j <= n.  Every coefficient on every route below is a Python int: each
denominator built here is a product of the two linear factors 1-q and
1-q t^2, and ``expand`` divides by each of them with one running sum over
the triangle.  Only the closed form and the module presentation go
through ``expand``: the Mayer-Vietoris route keeps its own
running sums, and the paving route counts cells and never divides.
Truncation is exact.

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
  * the census of the affine paving, counted by strata: a cell has a and
    b points on the two branches and c at the node; for each c there are
    n-c+1 pairs (a, b), each giving one cell of dimension n-c and, when
    c >= 2, c-1 line cells of dimension n-c+1.

A fourth route comes from the module presentation: the free module
Q[x1,x2,y1,y2] has series 1/((1-q)^2 (1-q t^2)^2), the submodule
Q[x1,x2,y1+y2]*(x1-x2) has series q/((1-q)^2 (1-q t^2)), and the quotient
is their difference.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from operator import add

from . import nodemodule

Poly2 = dict  # exact bivariate polynomial: (i, j) -> coefficient of q^i t^(2j)
Series = list[list[int]]  # truncated at order: order+1 rows, row n of n+1 coefficients


def _levels(order: int) -> range:
    """The levels 0..order of a series truncated at ``order``."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    return range(order + 1)


def _difference(a: Series, b: Series) -> Series:
    """a - b, coefficient by coefficient."""
    return [[u - v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def series_equal(a: Series, b: Series) -> tuple[bool, tuple[int, int] | None]:
    """Exact comparison; on failure also return the smallest (n, j) that differs or one side lacks."""
    if len(a) != len(b):
        raise ValueError(f"mismatched truncation orders {len(a) - 1} vs {len(b) - 1}")
    for n, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            return False, (n, next(j for j, (u, v) in enumerate(zip_longest(ra, rb)) if u != v))
    return True, None


def expand(num: Poly2, order: int, q_factors: int, qt2_factors: int) -> Series:
    """num / ((1-q)^q_factors (1-q t^2)^qt2_factors), truncated at ``order``.

    The numerator's terms up to q^order are placed in the triangle, then
    each factor is divided out by one running sum over the rows, in place:
    along n for 1-q (s[n][j] += s[n-1][j]) and along the diagonal for
    1-q t^2 (s[n][j] += s[n-1][j-1]).  Neither factor carries j past n, so
    the truncation is exact, and an int numerator gives int coefficients.
    A term q^i t^(2j) with j > i is refused: over 1-q it reaches q^j t^(2j)
    through slots the triangle does not hold.
    """
    out = [[0] * (n + 1) for n in _levels(order)]
    for (i, j), v in num.items():
        if j > i:
            raise ValueError(f"numerator term q^{i} t^{2 * j} lies outside the triangle j <= n")
        if i <= order:
            out[i][j] += v
    pairs = list(zip(out, out[1:]))
    for _ in range(q_factors):
        for prev, row in pairs:
            row[:-1] = map(add, row, prev)
    for _ in range(qt2_factors):
        for prev, row in pairs:
            row[1:] = map(add, row[1:], prev)
    return out


def closed_form() -> tuple[Poly2, int, int]:
    """(q^2 t^2 - q + 1) / ((1-q)^2 (1-q t^2)^2): numerator and the two factor counts."""
    return {(2, 1): 1, (1, 0): -1, (0, 0): 1}, 2, 2


def closed_form_pv(order: int) -> Series:
    num, q_factors, qt2_factors = closed_form()
    return expand(num, order, q_factors, qt2_factors)


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


def intersection_poincare(n: int, k: int) -> list[int]:
    """Poincare polynomial of the intersection of components k and k+1.

    The intersection is P^k x P^(n-k-1); degree 2(n-1).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"intersection index {k} out of range for n={n}")
    return _running_sums(_add_box([0] * n, k + 1, n - k))


def mv_pv(order: int) -> Series:
    """Series assembled row by row from components minus intersections."""
    out = []
    for n in _levels(order):
        acc = [0] * (n + 1)
        for k in range(n + 1):
            _component_masses(acc, n, k)
        for k in range(n):
            _add_box(acc, k + 1, n - k, sign=-1)
        out.append(_running_sums(acc))
    return out


# -- route three: the paving census, counted by strata ------------------------


def paving_row(n: int) -> list[int]:
    """Cells of the scheme of n points by dimension: s[n][j] for 0 <= j <= n.

    A stratum has c of the n points at the node, and n-c+1 ways to put the
    rest on the two branches.  Each way gives one cell of dimension n-c and,
    since the punctual locus of length c >= 2 is a chain of c-1 projective
    lines, also c-1 affine line cells of dimension n-c+1.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    row = [0] * (n + 1)
    for c in range(n + 1):
        pairs = n - c + 1
        row[n - c] += pairs
        if c >= 2:
            row[n - c + 1] += pairs * (c - 1)
    return row


def paving_pv(order: int) -> Series:
    """The paving census of every level up to ``order``, row by row."""
    return [paving_row(n) for n in _levels(order)]


# -- route four: the module presentation --------------------------------------


def ambient_module_pv(order: int) -> Series:
    """Series of Q[x1,x2,y1,y2]: 1 / ((1-q)^2 (1-q t^2)^2)."""
    return expand({(0, 0): 1}, order, 2, 2)


def submodule_pv(order: int) -> Series:
    """Series of Q[x1,x2,y1+y2]*(x1-x2): q / ((1-q)^2 (1-q t^2)).

    Free on one generator of bidegree (1, 0) over a polynomial ring with two
    bidegree-(1,0) variables and one bidegree-(1,2) variable.
    """
    return expand({(1, 0): 1}, order, 2, 1)


def module_pv(order: int) -> Series:
    return _difference(ambient_module_pv(order), submodule_pv(order))


ENUMERATION_BOUND = 15  # the largest n at which the series are compared with counting


def module_pv_identity(order: int) -> tuple[Series, int, list]:
    """The quotient series and its cross-check against the coset model.

    Returns ambient minus submodule series to ``order``, which the caller
    compares with the closed form; the enumeration bound ``min(order,
    ENUMERATION_BOUND)``; and the mismatches up to that bound between the
    ambient, submodule and quotient series and direct monomial / generator
    counting, each as ``[kind, n, j, series coefficient, count]``.
    """
    ambient = ambient_module_pv(order)
    sub = submodule_pv(order)
    diff = _difference(ambient, sub)
    bound = min(order, ENUMERATION_BOUND)
    mismatches = []
    for n in range(bound + 1):
        for j in range(n + 1):
            amb_count = nodemodule.dim_ambient(n, 2 * j)
            sub_count = nodemodule.dim_submodule(n, 2 * j)
            quo_count = nodemodule.dim_piece(n, 2 * j)
            if ambient[n][j] != amb_count:
                mismatches.append(["ambient", n, j, str(ambient[n][j]), amb_count])
            if sub[n][j] != sub_count:
                mismatches.append(["submodule", n, j, str(sub[n][j]), sub_count])
            if diff[n][j] != quo_count:
                mismatches.append(["quotient", n, j, str(diff[n][j]), quo_count])
    return diff, bound, mismatches
