"""Reference routes and random inputs that only tests use.

``solve_columns`` and ``span_solve`` decide span membership by a sparse
linear solve through :func:`nodehilb.exact.rref`; the package itself needs
no linear solve, since its membership test reads coefficients off.
``u_preservation_checks`` acts by every generator on random rational
elements of the node's submodule U and checks that the result reduces to 0.
``sorted_piece_monomials`` lists the monomials of one piece by sorting them
with ``monomial_key``, where ``piece_monomials`` counts them off in order.
``weyl_operator_columns`` builds a generator's sparse columns on one piece
through ``apply_generator``, which acts by the generator's Weyl algebra
element and reduces, independently of the package's exponent read-off;
``weyl_commutator_columns`` composes those columns one product at a time.
``poly_generation_checks`` builds the generation rows by multiplying
polynomials and reducing them, and ranks them through ``rref``.
``u_generator_poly`` builds the spanning element x1^a x2^b (y1+y2)^s (x1-x2)
of U by polynomial products, and ``poly_dim_submodule`` ranks those elements.
``box_count_mv_pv`` sums the Mayer-Vietoris rows coefficient by coefficient
with the trapezoid count ``box_count``; ``component_poincare`` is one
component's Poincare polynomial from the package's own point masses.
``truncated_product`` multiplies a series by a polynomial term by term, with
no running sums, to check ``series.expand`` against its denominator.
``pullback_matrix`` builds the matrix of both pullbacks on one component from
the images of the basis classes, over the full target bases, for
``kernel_basis`` to eliminate, independently of the package's read-off of
the kernel.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from nodehilb.exact import Poly, monomial_key, rank, rref
from nodehilb.geometry import CohElem, coh_basis, pullback_x1, pullback_x2
from nodehilb.nodemodule import (
    M,
    GenerationCheck,
    NodeClass,
    apply_generator,
    fundamental_class,
    piece_data,
    piece_monomials,
    reduce_poly,
    u_generator_exponents,
)
from nodehilb.series import _component_masses, _running_sums
from nodehilb.weyl import Generator, generator_element, generators


def sorted_piece_monomials(n: int, d: int) -> list[tuple]:
    """Monomials of bidegree (n, d), largest first by an explicit graded-lex sort.

    a1 + a2 = n - j and b1 + b2 = j with d = 2j; out of range, one of the two
    sums is negative and nothing is listed.
    """
    if d % 2:
        return []
    j = d // 2
    monos = [(a1, n - j - a1, b1, j - b1) for b1 in range(j + 1) for a1 in range(n - j + 1)]
    return sorted(monos, key=monomial_key, reverse=True)


def solve_columns(columns: Sequence[dict], rhs: dict) -> list[Fraction] | None:
    """Solve A c = rhs, where A has the given sparse columns; None if inconsistent.

    Each column and ``rhs`` map row keys to values, as the ``coeffs`` of a
    polynomial or Weyl operator do; a missing key is a zero.  Free
    coordinates of the solution are set to zero.
    """
    ncols = len(columns)
    aug = []
    for key in sorted(set(rhs).union(*columns)):
        row = {j: col[key] for j, col in enumerate(columns) if key in col}
        if key in rhs:
            row[ncols] = rhs[key]
        aug.append(row)
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        sol[pc] = row.get(ncols, Fraction(0))
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
    return solve_columns([p.coeffs for p in vectors], target.coeffs)


def u_generator_poly(a: int, b: int, s: int) -> Poly:
    """The spanning element x1^a x2^b (y1+y2)^s (x1-x2) of U, built whole."""
    p = Poly.monomial(M, (a, b, 0, 0))
    p = p * (Poly.y(M, 1) + Poly.y(M, 2)) ** s
    return p * (Poly.x(M, 1) - Poly.x(M, 2))


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


@lru_cache(maxsize=None)
def weyl_operator_columns(g: Generator, n: int, d: int) -> tuple:
    """The columns of ``nodemodule.operator_columns`` through ``apply_generator``.

    Cached like the package's columns, since every commutator reuses them.
    """
    n2, d2 = n + g.bidegree[0], d + g.bidegree[1]
    tgt_index = {e: i for i, e in enumerate(piece_data(n2, d2))}
    cols = []
    for e in piece_data(n, d):
        image = apply_generator(g, NodeClass(Poly.monomial(M, e), n, d))
        cols.append(tuple(sorted((tgt_index[f], c) for f, c in image.rep.coeffs.items())))
    return tuple(cols)


def _compose(outer: tuple, inner: tuple) -> list[dict]:
    """Sparse columns of ``outer`` after ``inner``, by plain dict arithmetic."""
    out = []
    for col in inner:
        acc: dict = {}
        for f, c in col:
            for r, v in outer[f]:
                acc[r] = acc.get(r, 0) + c * v
        out.append(acc)
    return out


def weyl_commutator_columns(a: Generator, b: Generator, n: int, d: int) -> list[dict]:
    """The columns of ``nodemodule.commutator_columns``: a b and b a, then their difference."""

    def composed(second: Generator, first: Generator) -> list[dict]:
        mid_n, mid_d = n + first.bidegree[0], d + first.bidegree[1]
        outer = weyl_operator_columns(second, mid_n, mid_d)
        return _compose(outer, weyl_operator_columns(first, n, d))

    ab = composed(a, b)
    ba = composed(b, a)
    out = []
    for x, y in zip(ab, ba):
        diff = {r: x.get(r, 0) - y.get(r, 0) for r in x.keys() | y.keys()}
        out.append({r: v for r, v in diff.items() if v})
    return out


def poly_generation_checks(n_max: int) -> list[GenerationCheck]:
    """``nodemodule.generation_checks`` through polynomial products, ``reduce_poly`` and ``rref``."""
    checks = []
    for n in range(n_max + 1):
        fcs = [fundamental_class(n, k) for k in range(n + 1)]
        for K in range(n, n_max + 1):
            basis = piece_data(K, 2 * n)
            index = {e: i for i, e in enumerate(basis)}
            rows = []
            for a in range(K - n + 1):
                b = K - n - a
                shift = Poly.monomial(M, (a, b, 0, 0))
                for fc in fcs:
                    v = reduce_poly(shift * fc.rep, (K, 2 * n))
                    rows.append({index[e]: c for e, c in v.rep.coeffs.items()})
            _, pivots = rref(rows)
            checks.append(GenerationCheck(K, n, len(pivots), len(basis)))
    return checks


def poly_dim_submodule(n: int, d: int) -> int:
    """``nodemodule.dim_submodule`` with every spanning element rebuilt by ``u_generator_poly``."""
    index = {e: i for i, e in enumerate(piece_monomials(n, d))}
    rows = [
        {index[e]: c for e, c in u_generator_poly(a, b, s).coeffs.items()}
        for a, b, s in u_generator_exponents(n, d)
    ]
    return rank(rows, len(index))


def box_count(a: int, b: int, j: int) -> int:
    """Coefficient of t^(2j) in (1+..+t^(2(a-1))) (1+..+t^(2(b-1))).

    The number of (u, v) with u + v = j, 0 <= u < a and 0 <= v < b; zero
    when either factor is empty.
    """
    if not 0 <= j <= a + b - 2:
        return 0
    return min(j, a - 1, b - 1, a + b - 2 - j) + 1


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


def box_count_mv_pv(order: int) -> list[list[int]]:
    """``series.mv_pv`` summed one coefficient at a time by ``box_count``, row n to j = n."""
    return [
        [
            sum(box_count(n - k + 1, k + 1, j) + box_count(k, n - k, j - 1) for k in range(n + 1))
            - sum(box_count(k + 1, n - k, j) for k in range(n))
            for j in range(n + 1)
        ]
        for n in range(order + 1)
    ]


def truncated_product(s: list[list[int]], poly: dict) -> list[list[int]]:
    """``s`` times the polynomial ``{(i, j): c}`` (c q^i t^(2j)), truncated at its order."""
    order = len(s) - 1
    out = [[0] * (order + 1) for _ in range(order + 1)]
    for n, row in enumerate(s):
        for j, u in enumerate(row):
            for (a, b), v in poly.items():
                if n + a <= order and j + b <= order:
                    out[n + a][j + b] += u * v
    return out


def pullback_matrix(n: int, k: int) -> tuple[list[CohElem], list[dict]]:
    """Source classes of degree < 2n on component (n, k) and the sparse rows of both pullbacks.

    One column per source class; one row per target basis class, x1 over
    ``coh_basis(n-1, k)`` and x2 over ``coh_basis(n-1, k-1)`` where those
    components exist.
    """
    source = [e for e in coh_basis(n, k) if e.degree < 2 * n]
    targets = []
    if k <= n - 1:
        targets += [("x1", t) for t in coh_basis(n - 1, k)]
    if k >= 1:
        targets += [("x2", t) for t in coh_basis(n - 1, k - 1)]
    index = {key: r for r, key in enumerate(targets)}
    rows: list[dict] = [{} for _ in targets]
    for col, e in enumerate(source):
        for tag, pb in (("x1", pullback_x1), ("x2", pullback_x2)):
            r = index.get((tag, pb(e)))  # pb(e) is None for a class pulled back to 0
            if r is not None:
                rows[r][col] = 1
    return source, rows
