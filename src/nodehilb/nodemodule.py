"""The bigraded module of the node: Q[x1,x2,y1,y2] modulo Q[x1,x2,y1+y2]*(x1-x2).

Writing V'' = Q[x1,x2,y1,y2] with x_i of bidegree (1,0) and y_i of bidegree
(1,2), the submodule U = Q[x1,x2,y1+y2]*(x1-x2) is spanned by the
homogeneous elements

    x1^a * x2^b * (y1+y2)^s * (x1-x2),    bidegree (a+b+s+1, 2s),

and the quotient V' = V''/U models the total homology of the Hilbert
schemes of points on the plane curve xy = 0: the (n, d) graded piece of V'
has the dimension of the degree-d homology of the scheme of n points, and
the operators x1, x2, dy1, dy2, y1+y2, dx1+dx2 act on it.

Cosets are stored by a canonical representative.  In the graded lex order
the spanning element above has leading monomial x1^(a+1) x2^b y1^s; these
are pairwise distinct, so the spanning elements of each piece are a
Groebner basis of it (Cox, Little, O'Shea, Ideals, Varieties, and
Algorithms, ch. 2).  The pivot monomials are those with x1-exponent >= 1
and y2-exponent 0, the representative is the unique coset member with no
pivot monomial in its support, and as x1^A - x2^A is divisible by x1 - x2,

    x1^A x2^B y1^C  =  x2^(A+B) y1^C
        + sum_{i=1..C} C(C,i) (x2^(A+B) - x1^A x2^B) y1^(C-i) y2^i   (mod U)

rewrites a pivot monomial into non-pivot ones in one step.  Reduction is
linear and idempotent, and the non-pivot monomials of each graded piece
are its basis, from which all operator matrices, dimension tables and rank
checks are computed exactly.

The operator matrices are read off the exponents: a generator sends a
basis monomial x1^a1 x2^a2 y1^b1 y2^b2 to at most two monomials with
integer factors a_i or b_i; only images of x1 and d2 can need the rewrite
above, so columns are built in ``int`` with no polynomial arithmetic.
``apply_generator`` acts through the Weyl algebra, an independent route.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

from . import exact, weyl

M = 2  # the node has two branches; everything in this module is at m = 2


def u_generator_exponents(n: int, d: int) -> list[tuple[int, int, int]]:
    """All (a, b, s) with x1^a x2^b (y1+y2)^s (x1-x2) of bidegree (n, d)."""
    if d < 0 or d % 2 != 0:
        return []
    s = d // 2
    rest = n - 1 - s
    if rest < 0:
        return []
    return [(a, rest - a, s) for a in range(rest + 1)]


def piece_monomials(n: int, d: int) -> list[tuple]:
    """Monomials of Q[x1,x2,y1,y2] in bidegree (n, d), largest first."""
    if n < 0 or d < 0 or d % 2 != 0 or d > 2 * n:
        return []
    j = d // 2  # all of degree n: largest first is a1, then b1, descending
    return [(a1, n - j - a1, b1, j - b1) for a1 in range(n - j, -1, -1) for b1 in range(j, -1, -1)]


def _is_pivot(e: tuple) -> bool:
    """Whether a monomial is the leading monomial x1^(a+1) x2^b y1^s of U."""
    return e[0] >= 1 and e[3] == 0


def _normal_form(e: tuple) -> list:
    """The canonical representative of one monomial, as (monomial, int) terms.

    The terms come largest monomial first, which is row order in its piece:
    the a1 = a block, then the a1 = 0 block, each with b1 counting down.
    """
    if not _is_pivot(e):
        return [(e, 1)]
    a, b, s, _ = e
    return [((a, b, s - i, i), -comb(s, i)) for i in range(1, s + 1)] + [
        ((0, a + b, s - i, i), comb(s, i)) for i in range(s + 1)
    ]


@lru_cache(maxsize=None)
def piece_data(n: int, d: int) -> dict:
    """The canonical basis of the (n, d) piece, each monomial mapped to its row.

    The basis is the non-pivot monomials, largest first: iterating gives
    them in row order, ``len`` is the dimension, and indexing gives a row.
    Outside the triangle 0 <= d <= 2n the piece is empty.  Shared, so never
    mutate it.
    """
    basis = [e for e in piece_monomials(n, d) if not _is_pivot(e)]
    return {e: i for i, e in enumerate(basis)}


class NodeClass(NamedTuple):
    """A coset of U in one bidegree, held by its canonical representative."""

    rep: exact.Poly
    n: int
    d: int

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __str__(self):
        return f"[{self.rep}] @ (n={self.n}, d={self.d})"


def reduce_poly(p: exact.Poly, grade: tuple[int, int] | None = None) -> NodeClass:
    """Canonical coset representative of a homogeneous polynomial.

    The zero polynomial needs the intended bidegree via ``grade``; nonzero
    input determines it (and is checked against ``grade`` when both given).
    """
    if p.m != M:
        raise ValueError("the node module lives at m = 2")
    deg = p.bidegree()  # raises on inhomogeneous input
    if deg is None:
        if grade is None:
            raise ValueError("zero polynomial needs an explicit bidegree")
        deg = grade
    elif grade is not None and deg != grade:
        raise ValueError(f"polynomial has bidegree {deg}, expected {grade}")
    coeffs: dict = {}
    for e, c in p.coeffs.items():
        exact.add_into(coeffs, _normal_form(e), c)
    return NodeClass(exact.Poly(M, coeffs), *deg)


def dim_piece(n: int, d: int) -> int:
    """dim of the (n, d) piece of the quotient, by exact enumeration; 0 outside the triangle."""
    if d % 2 != 0:
        raise ValueError(f"homological degree must be even, got {d}")
    return len(piece_data(n, d))


def dim_ambient(n: int, d: int) -> int:
    """dim of the (n, d) piece of Q[x1,x2,y1,y2] (monomial count)."""
    return len(piece_monomials(n, d))


def dim_submodule(n: int, d: int) -> int:
    """dim of the (n, d) piece of U (exact rank of its spanning set).

    No certificate here: the distinct leading monomials x1^(a+1) x2^b y1^s
    of these rows are the Groebner fact behind ``_normal_form`` and
    ``dim_piece``, so it would share its argument with the count it checks.
    """
    gens = u_generator_exponents(n, d)
    if not gens:
        return 0
    # the terms of (y1+y2)^s (x1-x2), read off the binomials; element (a, b, s)
    # is x1^a x2^b times it, so its terms are these with x raised by (a, b)
    s = d // 2
    tail = []
    for i in range(s + 1):
        c = comb(s, i)
        tail += [((1, 0, i, s - i), c), ((0, 1, i, s - i), -c)]
    index = {e: i for i, e in enumerate(piece_monomials(n, d))}
    rows = [
        {index[(a1 + a, a2 + b, b1, b2)]: c for (a1, a2, b1, b2), c in tail}
        for a, b, _ in gens
    ]
    return exact.rank(rows, len(index))


def pieces(n_max: int) -> list[tuple[int, int]]:
    """The bidegrees (n, 2j) with 0 <= j <= n <= n_max: every piece that can be nonzero."""
    return [(n, 2 * j) for n in range(n_max + 1) for j in range(n + 1)]


def betti_table(n_max: int) -> list[list[int]]:
    """Triangular table t[n][j] = dim of the (n, 2j) piece, 0 <= j <= n <= n_max.

    Row n holds its n+1 entries, the shape of a ``series.Series``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [[dim_piece(n, 2 * j) for j in range(n + 1)] for n in range(n_max + 1)]


def _check_index(g: weyl.Generator) -> None:
    if g.kind in ("x", "d") and not 1 <= g.index <= M:
        raise ValueError(f"generator index {g.index} out of range at m=2")


def apply_generator(g: weyl.Generator, v: NodeClass) -> NodeClass:
    """Act by a generator and reduce; shifts the bidegree by its own.

    This acts through the Weyl algebra element ``generator_element(g)`` on
    the polynomial representative, independently of the exponent read-off
    behind ``operator_columns``.
    """
    _check_index(g)
    dn, dd = g.bidegree
    n2, d2 = v.n + dn, v.d + dd
    if n2 < 0 or d2 < 0:
        return NodeClass(exact.Poly.zero(M), max(n2, 0), max(d2, 0))
    acted = weyl.generator_element(g, M).act(v.rep)
    return reduce_poly(acted, (n2, d2))


def fundamental_class(n: int, k: int) -> NodeClass:
    """The class of y1^k * y2^(n-k) / (k! (n-k)!) in bidegree (n, 2n).

    These are the images of the fundamental classes of the n+1 irreducible
    components of the scheme of n points, the one with index k having k
    points generically on the branch carrying y1.
    """
    if not 0 <= k <= n:
        raise ValueError(f"component index {k} out of range for n={n}")
    from fractions import Fraction  # the one division of the module

    c = Fraction(1, factorial(k) * factorial(n - k))
    return reduce_poly(exact.Poly.monomial(M, (0, 0, k, n - k), c), (n, 2 * n))


# -- operator matrices on graded pieces ---------------------------------------


class _Shared(dict):
    """A memo keyed by content: ``memo[k]`` is the first key equal to k it was given."""

    def __missing__(self, key):
        self[key] = key
        return key


# every distinct (row, coeff) term and every distinct column built so far;
# in one table the two would cross a resize at n_max 15 and double it
_TERMS = _Shared()
_COLUMNS = _Shared()


def _reduced(f: tuple, row: dict) -> tuple:
    """The column of a pivot image f, through its normal form, in row order."""
    return tuple(_TERMS[row[h], c] for h, c in _normal_form(f))


def _read_off(g: weyl.Generator, src: tuple, row: dict) -> tuple:
    """The columns of g on the basis monomials ``src``, ``row`` giving each target row.

    A basis monomial (a1, a2, b1, b2) has a1 = 0 or b2 >= 1, which x2, d1,
    mu+ and mu- keep, so ``row`` takes their images as they are (a pivot
    would raise KeyError).  Only x1 on (0, A, j, 0) and d2 where b2 = 1 and
    a1 >= 1 meet a pivot, and just those go through ``_normal_form``.
    """
    if g.kind == "x" and g.index == 1:
        return tuple(
            (_TERMS[row[(a1 + 1, a2, b1, b2)], 1],) if b2 else _reduced((1, a2, b1, 0), row)
            for a1, a2, b1, b2 in src
        )
    if g.kind == "x":
        return tuple((_TERMS[row[(a1, a2 + 1, b1, b2)], 1],) for a1, a2, b1, b2 in src)
    if g.kind == "d" and g.index == 1:
        return tuple((_TERMS[row[(a1, a2, b1 - 1, b2)], b1],) if b1 else () for a1, a2, b1, b2 in src)
    if g.kind == "d":
        return tuple(
            () if not b2
            else _reduced((a1, a2, b1, 0), row) if b2 == 1 and a1
            else (_TERMS[row[(a1, a2, b1, b2 - 1)], b2],)
            for a1, a2, b1, b2 in src
        )
    if g.kind == "mu+":
        return tuple(
            (_TERMS[row[(a1, a2, b1 + 1, b2)], 1], _TERMS[row[(a1, a2, b1, b2 + 1)], 1])
            for a1, a2, b1, b2 in src
        )
    # mu-: the a2 term keeps the larger a1, so it takes the smaller row
    return tuple(
        ((_TERMS[row[(a1, a2 - 1, b1, b2)], a2],) if a2 else ())
        + ((_TERMS[row[(a1 - 1, a2, b1, b2)], a1],) if a1 else ())
        for a1, a2, b1, b2 in src
    )


@lru_cache(maxsize=None)
def operator_columns(g: weyl.Generator, n: int, d: int) -> tuple:
    """Sparse matrix of a generator from piece (n, d), one column per basis class.

    Column j lists (row, coeff) pairs over the canonical basis of the target
    piece (n, d) + bidegree(g).  ``_read_off`` reads every column off the
    exponents of its basis monomial in one pass, in ``int``;
    ``apply_generator`` is the independent route through the Weyl algebra.
    A target outside the triangle needs no guard: only d1, d2 and mu- leave
    it, d_i from d = 0 where every b_i is 0 and mu- from d = 2n where every
    a_i is 0, so each image is empty before a row is looked up.

    Equal columns and equal terms are each one shared object: most repeat
    across generators and pieces (at n_max 15, 3,803 distinct columns among
    about 24,000, and their 11,535 (row, coeff) terms only 1,940 distinct),
    so each term ``_read_off`` builds and each column it returns is replaced
    by the first equal one in ``_TERMS`` or ``_COLUMNS``.  Those memos are
    keyed by content, so they can only hand back an equal object and never
    go stale: they need no clearing after ``operator_columns.cache_clear()``,
    nor when ``_read_off`` is patched.
    """
    _check_index(g)
    dn, dd = g.bidegree
    return tuple([_COLUMNS[c] for c in _read_off(g, piece_data(n, d), piece_data(n + dn, d + dd))])


def commutator_columns(a: weyl.Generator, b: weyl.Generator, n: int, d: int) -> list[dict]:
    """Sparse columns of [a, b] on the (n, d) piece, +a b and -b a in one pass.

    A composition through a middle piece outside the triangle is zero, as
    the columns of ``operator_columns`` into it are empty.
    """
    add_into = exact.add_into
    out: list[dict] = [{} for _ in piece_data(n, d)]
    for first, second, sign in ((b, a, 1), (a, b, -1)):
        outer = operator_columns(second, n + first.bidegree[0], d + first.bidegree[1])
        for acc, col in zip(out, operator_columns(first, n, d)):
            for f, c in col:
                add_into(acc, outer[f], sign * c)
    return out


class PieceCheck(NamedTuple):
    name: str
    n: int
    d: int
    ok: bool


def relation_matrix_checks(n_max: int) -> list[PieceCheck]:
    """Each of ``weyl.defining_relations(2)`` as an exact matrix identity on each piece n <= n_max.

    One commutator per unordered pair: [a, a] = a a - a a is zero by
    construction, and [b, a] = -[a, b] takes the verdict of [a, b] = 0.
    The ``elif`` branch and ``zero`` exist only for those six entries; when
    the table keeps only j > i in its two symmetric families, delete both.
    """
    relations = [
        (f"[{r.a},{r.b}]={'id' if r.ident else 0}", r.a, r.b, r.ident)
        for r in weyl.defining_relations(M)
    ]
    checks = []
    for n, d in pieces(n_max):
        zero: dict = {}  # the verdicts of the zero relations computed on this piece
        for name, a, b, ident in relations:
            if ident:
                ok = all(c == {i: 1} for i, c in enumerate(commutator_columns(a, b, n, d)))
            elif a == b or (b, a) in zero:
                ok = a == b or zero[b, a]
            else:
                ok = zero[a, b] = not any(commutator_columns(a, b, n, d))
            checks.append(PieceCheck(name, n, d, ok))
    return checks


def _leads(vecs) -> set:
    """The largest index of each sparse vector, if its entry there is nonzero.

    Vectors list their (index, coeff) pairs in ascending index order.  Ones
    with distinct leads are independent: by lead, they form a triangle.
    """
    return {v[-1][0] for v in vecs if v and v[-1][1]}


def certified_rank(vecs, ncols: int) -> int:
    """Exact rank of sparse vectors over ``ncols`` columns.

    The count of distinct leads bounds the rank from below, so when it
    reaches ``min(len(vecs), ncols)`` it is the rank; otherwise ``rank``
    eliminates.
    """
    leads = len(_leads(vecs))
    if leads == min(len(vecs), ncols):
        return leads
    return exact.rank([dict(v) for v in vecs], ncols)


def injectivity_checks(n_max: int) -> list[PieceCheck]:
    """x1, x2 and y1+y2 must act injectively on every piece with n <= n_max.

    A generator is injective on a piece iff its columns are independent in
    the target piece.  The largest rows of the columns (their smallest
    monomials) are distinct on every piece with n <= 30, so
    ``certified_rank`` decides a pass with no elimination; ``rank`` is the
    fallback that measures a failure.
    """
    x1, x2, _, _, mup, _ = weyl.generators(M)
    checks = []
    for g in (x1, x2, mup):
        for n, d in pieces(n_max):
            cols = operator_columns(g, n, d)
            target = piece_data(n + g.bidegree[0], d + g.bidegree[1])
            ok = certified_rank(cols, len(target)) == len(cols)
            checks.append(PieceCheck(f"mult-by-{g}-injective", n, d, ok))
    return checks


# -- generation by fundamental classes ----------------------------------------


class GenerationCheck(NamedTuple):
    points: int  # K: where the span is measured
    row: int  # n: which fundamental classes are translated
    rank: int
    dim: int

    @property
    def ok(self) -> bool:
        return self.rank == self.dim


def generation_checks(n_max: int) -> list[GenerationCheck]:
    """x1,x2-translates of the fundamental classes span each row piece.

    For every n <= K <= n_max, the classes of
    x1^a x2^b y1^k y2^(n-k)/k!(n-k)! with a+b = K-n span the whole (K, 2n)
    piece; the check compares their rank with the piece dimension.
    Scaling a class by k!(n-k)! leaves the span alone and leaves the bare
    monomial, so the row of each translate is the normal form of
    (a, K-n-a, k, n-k), read off the exponents in ``int``.  The largest
    columns of the rows cover the piece for every n <= K <= 30, so
    ``certified_rank`` decides a pass; ``rank`` is the fallback.
    """
    checks = []
    for n in range(n_max + 1):
        for K in range(n, n_max + 1):
            index = piece_data(K, 2 * n)
            rows = [
                [(index[e], c) for e, c in _normal_form((a, K - n - a, k, n - k))]
                for a in range(K - n + 1)
                for k in range(n + 1)
            ]
            checks.append(GenerationCheck(K, n, certified_rank(rows, len(index)), len(index)))
    return checks


def no_extension_witness() -> dict:
    """Multiplication by y1 alone does not descend to the quotient.

    y1*(x1-x2) reduces to a nonzero class although x1-x2 lies in U, so no
    action of y1 by itself can be well defined on V' -- only the symmetric
    combination y1+y2 preserves U.
    """
    Poly = exact.Poly
    u = Poly.x(M, 1) - Poly.x(M, 2)
    y1u = reduce_poly(Poly.y(M, 1) * u, (2, 2))
    y2u = reduce_poly(Poly.y(M, 2) * u, (2, 2))
    symmetric = reduce_poly((Poly.y(M, 1) + Poly.y(M, 2)) * u, (2, 2))
    return {
        "element_of_submodule": str(u),
        "y1_times_it_reduces_to": str(y1u.rep),
        "y2_times_it_reduces_to": str(y2u.rep),
        "symmetric_product_reduces_to": str(symmetric.rep),
        "witness_found": (not y1u.is_zero())
        and (not y2u.is_zero())
        and symmetric.is_zero(),
    }
