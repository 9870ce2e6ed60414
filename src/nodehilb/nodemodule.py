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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact import Poly, kernel_basis, monomial_key, rref
from .weyl import Generator, generator_element, generators

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


def u_generator_poly(a: int, b: int, s: int) -> Poly:
    p = Poly.monomial(M, (a, b, 0, 0))
    p = p * (Poly.y(M, 1) + Poly.y(M, 2)) ** s
    return p * (Poly.x(M, 1) - Poly.x(M, 2))


def piece_monomials(n: int, d: int) -> list[tuple]:
    """Monomials of Q[x1,x2,y1,y2] in bidegree (n, d), largest first."""
    if n < 0 or d < 0 or d % 2 != 0 or d > 2 * n:
        return []
    j = d // 2
    monos = []
    for b1 in range(j + 1):
        b2 = j - b1
        for a1 in range(n - j + 1):
            a2 = n - j - a1
            monos.append((a1, a2, b1, b2))
    monos.sort(key=monomial_key, reverse=True)
    return monos


def _is_pivot(e: tuple) -> bool:
    """Whether a monomial is the leading monomial x1^(a+1) x2^b y1^s of U."""
    return e[0] >= 1 and e[3] == 0


@dataclass(frozen=True)
class PieceData:
    """One bidegree of the quotient."""

    basis: tuple  # non-pivot monomials, largest first = canonical basis


@lru_cache(maxsize=None)
def piece_data(n: int, d: int) -> PieceData:
    return PieceData(tuple(e for e in piece_monomials(n, d) if not _is_pivot(e)))


@dataclass(frozen=True)
class NodeClass:
    """A coset of U in one bidegree, held by its canonical representative."""

    rep: Poly
    n: int
    d: int

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def coordinates(self) -> list[Fraction]:
        """Coefficients over the canonical basis of the (n, d) piece."""
        data = piece_data(self.n, self.d)
        return [self.rep.coefficient(e) for e in data.basis]

    def __str__(self):
        return f"[{self.rep}] @ (n={self.n}, d={self.d})"


def reduce_poly(p: Poly, grade: tuple[int, int] | None = None) -> NodeClass:
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
        terms = [(e, c)]
        if _is_pivot(e):
            a, b, s, _ = e
            terms = [((0, a + b, s, 0), c)]
            for i in range(1, s + 1):
                k = c * comb(s, i)
                terms += [((0, a + b, s - i, i), k), ((a, b, s - i, i), -k)]
        for f, v in terms:
            coeffs[f] = coeffs.get(f, 0) + v
    return NodeClass(Poly(M, coeffs), *deg)


def dim_piece(n: int, d: int) -> int:
    """dim of the (n, d) piece of the quotient, by exact enumeration."""
    if d % 2 != 0:
        raise ValueError(f"homological degree must be even, got {d}")
    if n < 0 or d < 0:
        return 0
    data = piece_data(n, d)
    return len(data.basis)


def dim_ambient(n: int, d: int) -> int:
    """dim of the (n, d) piece of Q[x1,x2,y1,y2] (monomial count)."""
    return len(piece_monomials(n, d))


def dim_submodule(n: int, d: int) -> int:
    """dim of the (n, d) piece of U (exact rank of its spanning set)."""
    if n < 0 or d < 0 or d % 2 != 0:
        return 0
    index = {e: i for i, e in enumerate(piece_monomials(n, d))}
    rows = [
        {index[e]: c for e, c in u_generator_poly(a, b, s).coeffs.items()}
        for a, b, s in u_generator_exponents(n, d)
    ]
    return len(rref(rows)[1])


def betti_table(n_max: int) -> list[list[int]]:
    """Rectangular table t[n][j] = dim of the (n, 2j) piece, 0 <= n, j <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [
        [dim_piece(n, 2 * j) if j <= n else 0 for j in range(n_max + 1)]
        for n in range(n_max + 1)
    ]


def apply_generator(g: Generator, v: NodeClass) -> NodeClass:
    """Act by a generator and reduce; shifts the bidegree by its own."""
    if g.kind in ("x", "d") and not 1 <= g.index <= M:
        raise ValueError(f"generator index {g.index} out of range at m=2")
    dn, dd = g.bidegree
    n2, d2 = v.n + dn, v.d + dd
    if n2 < 0 or d2 < 0:
        return NodeClass(Poly.zero(M), max(n2, 0), max(d2, 0))
    acted = generator_element(g, M).act(v.rep)
    return reduce_poly(acted, (n2, d2))


def fundamental_class(n: int, k: int) -> NodeClass:
    """The class of y1^k * y2^(n-k) / (k! (n-k)!) in bidegree (n, 2n).

    These are the images of the fundamental classes of the n+1 irreducible
    components of the scheme of n points, the one with index k having k
    points generically on the branch carrying y1.
    """
    if not 0 <= k <= n:
        raise ValueError(f"component index {k} out of range for n={n}")
    c = Fraction(1, factorial(k) * factorial(n - k))
    return reduce_poly(Poly.monomial(M, (0, 0, k, n - k), c), (n, 2 * n))


# -- operator matrices on graded pieces ---------------------------------------


def _piece_in_range(n: int, d: int) -> bool:
    return n >= 0 and 0 <= d <= 2 * n


@lru_cache(maxsize=None)
def operator_columns(g: Generator, n: int, d: int) -> tuple:
    """Sparse matrix of a generator from piece (n, d), one column per basis class.

    Column j lists (row, coeff) pairs over the canonical basis of the target
    piece (n, d) + bidegree(g); an out-of-range target gives all-empty
    columns.  Columns are sparse because a generator sends most basis
    monomials to non-pivot monomials, where no reduction happens.
    """
    src = piece_data(n, d)
    dn, dd = g.bidegree
    n2, d2 = n + dn, d + dd
    if not _piece_in_range(n2, d2):
        return tuple(() for _ in src.basis)
    tgt = piece_data(n2, d2)
    tgt_index = {e: i for i, e in enumerate(tgt.basis)}
    op = generator_element(g, M)
    cols = []
    for e in src.basis:
        image = reduce_poly(op.act(Poly.monomial(M, e)), (n2, d2))
        cols.append(
            tuple(sorted((tgt_index[f], c) for f, c in image.rep.coeffs.items()))
        )
    return tuple(cols)


def _compose_columns(g2: Generator, g1: Generator, n: int, d: int) -> list[dict]:
    """Sparse columns of g2 after g1 on the (n, d) piece."""
    mid_n, mid_d = n + g1.bidegree[0], d + g1.bidegree[1]
    if not _piece_in_range(mid_n, mid_d):
        return [{} for _ in range(dim_piece(n, d))]
    first = operator_columns(g1, n, d)
    second = operator_columns(g2, mid_n, mid_d)
    out = []
    for col in first:
        acc: dict = {}
        for f, c in col:
            for i, c2 in second[f]:
                v = acc.get(i, 0) + c * c2
                if v == 0:
                    acc.pop(i, None)
                else:
                    acc[i] = v
        out.append(acc)
    return out


def commutator_columns(a: Generator, b: Generator, n: int, d: int) -> list[dict]:
    """Sparse columns of [a, b] = a b - b a on the (n, d) piece."""
    ab = _compose_columns(a, b, n, d)
    ba = _compose_columns(b, a, n, d)
    out = []
    for ca, cb in zip(ab, ba):
        acc = dict(ca)
        for i, c in cb.items():
            v = acc.get(i, 0) - c
            if v == 0:
                acc.pop(i, None)
            else:
                acc[i] = v
        out.append(acc)
    return out


def _columns_are_zero(cols: list[dict]) -> bool:
    return all(not c for c in cols)


def _columns_are_identity(cols: list[dict]) -> bool:
    return all(c == {j: 1} for j, c in enumerate(cols))


@dataclass(frozen=True)
class PieceCheck:
    name: str
    n: int
    d: int
    ok: bool


def relation_matrix_checks(n_max: int) -> list[PieceCheck]:
    """All defining commutators as exact matrix identities on pieces n <= n_max.

    [d_i, mu+] and [mu-, x_i] must be the identity on every piece, all other
    generator pairs must commute on the nose.
    """
    xs = [Generator("x", i) for i in (1, 2)]
    ds = [Generator("d", i) for i in (1, 2)]
    mup, mum = Generator("mu+"), Generator("mu-")
    checks = []
    for n in range(n_max + 1):
        for j in range(n + 1):
            d = 2 * j

            def zero(name, a, b):
                checks.append(
                    PieceCheck(name, n, d, _columns_are_zero(commutator_columns(a, b, n, d)))
                )

            def ident(name, a, b):
                checks.append(
                    PieceCheck(name, n, d, _columns_are_identity(commutator_columns(a, b, n, d)))
                )

            for i, gi in enumerate(ds, 1):
                ident(f"[d{i},mu+]=id", gi, mup)
            for i, gi in enumerate(xs, 1):
                ident(f"[mu-,x{i}]=id", mum, gi)
            for i, a in enumerate(xs, 1):
                for k, b in enumerate(xs, 1):
                    zero(f"[x{i},x{k}]=0", a, b)
            for i, a in enumerate(ds, 1):
                for k, b in enumerate(ds, 1):
                    zero(f"[d{i},d{k}]=0", a, b)
            for i, a in enumerate(ds, 1):
                for k, b in enumerate(xs, 1):
                    zero(f"[d{i},x{k}]=0", a, b)
            for i, a in enumerate(xs, 1):
                zero(f"[x{i},mu+]=0", a, mup)
            for i, a in enumerate(ds, 1):
                zero(f"[d{i},mu-]=0", a, mum)
            zero("[mu+,mu-]=0", mup, mum)
    return checks


def injectivity_checks(n_max: int) -> list[PieceCheck]:
    """x1, x2 and y1+y2 must act injectively on every piece with n <= n_max."""
    gens = [Generator("x", 1), Generator("x", 2), Generator("mu+")]
    checks = []
    for g in gens:
        for n in range(n_max + 1):
            for j in range(n + 1):
                d = 2 * j
                # rows of the matrix: the sparse columns transposed
                cols = operator_columns(g, n, d)
                rows: dict = {}
                for k, col in enumerate(cols):
                    for i, c in col:
                        rows.setdefault(i, {})[k] = c
                ok = not kernel_basis([rows[i] for i in sorted(rows)], len(cols))
                checks.append(PieceCheck(f"mult-by-{g}-injective", n, d, ok))
    return checks


# -- generation by fundamental classes ----------------------------------------


@dataclass(frozen=True)
class GenerationCheck:
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
    piece; the check compares an exact rank with the piece dimension.
    """
    checks = []
    for n in range(n_max + 1):
        fcs = [fundamental_class(n, k) for k in range(n + 1)]
        for K in range(n, n_max + 1):
            data = piece_data(K, 2 * n)
            index = {e: i for i, e in enumerate(data.basis)}
            rows = []
            for a in range(K - n + 1):
                b = K - n - a
                shift = Poly.monomial(M, (a, b, 0, 0))
                for fc in fcs:
                    v = reduce_poly(shift * fc.rep, (K, 2 * n))
                    rows.append({index[e]: c for e, c in v.rep.coeffs.items()})
            _, pivots = rref(rows)
            checks.append(GenerationCheck(K, n, len(pivots), len(data.basis)))
    return checks


def no_extension_witness() -> dict:
    """Multiplication by y1 alone does not descend to the quotient.

    y1*(x1-x2) reduces to a nonzero class although x1-x2 lies in U, so no
    action of y1 by itself can be well defined on V' -- only the symmetric
    combination y1+y2 preserves U.
    """
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


def random_u_element(rng, n_cap: int = 6) -> Poly:
    """A random homogeneous element of U with small exponents."""
    a = rng.randrange(n_cap)
    b = rng.randrange(n_cap)
    s = rng.randrange(n_cap)
    c = Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 5))
    p = u_generator_poly(a, b, s) * c
    # sometimes mix in a second spanning element of the same bidegree
    if a + b > 0 and rng.random() < 0.5:
        a2 = rng.randrange(a + b + 1)
        p = p + u_generator_poly(a2, a + b - a2, s) * Fraction(rng.randrange(-4, 5))
    return p


def u_preservation_checks(count: int, rng) -> list[bool]:
    """reduce(g . u) = 0 for random u in U and all six generators."""
    results = []
    for _ in range(count):
        u = random_u_element(rng)
        for g in generators(M):
            acted = generator_element(g, M).act(u)
            if acted.is_zero():
                results.append(True)
                continue
            results.append(reduce_poly(acted).is_zero())
    return results
