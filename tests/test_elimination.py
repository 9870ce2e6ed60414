"""The sparse fraction-free elimination core against a dense Fraction oracle.

``dense_rref`` is the textbook Gaussian elimination over Fraction that the
package used before its integer core; it shares no code with
``nodehilb.exact``.  The reduced row echelon form and the free-column
normalised kernel basis of a matrix are unique, so both routes must agree
exactly on every input, dense or sparse.  The same oracle row-reduces the
spanning set of the node's submodule U, against which the closed-form pivot
rule and normal form of ``nodehilb.nodemodule`` are checked.
"""

import random
from fractions import Fraction

import pytest

from nodehilb import exact
from nodehilb.exact import Poly, kernel_basis, rank, rref
from nodehilb.nodemodule import (
    _is_pivot,
    piece_data,
    piece_monomials,
    reduce_poly,
    u_generator_exponents,
)
from oracles import u_generator_poly


def dense_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_kernel(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    red, pivots = dense_rref([list(r) for r in rows])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def sparse(rows) -> list[dict]:
    return [{c: v for c, v in enumerate(row) if v != 0} for row in rows]


def random_matrix(rng: random.Random, kind: str) -> list[list[Fraction]]:
    nrows, ncols = rng.randrange(0, 8), rng.randrange(1, 8)
    if kind == "int":
        rows = [[Fraction(rng.randrange(-5, 6)) for _ in range(ncols)] for _ in range(nrows)]
    elif kind == "rational":
        rows = [
            [Fraction(rng.randrange(-5, 6), rng.randrange(1, 7)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    elif kind == "deficient":
        # a product through a thin middle dimension has rank <= inner
        inner = rng.randrange(0, 3)
        left = [[rng.randrange(-3, 4) for _ in range(inner)] for _ in range(nrows)]
        right = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(ncols)] for _ in range(inner)]
        rows = [
            [sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0)) for j in range(ncols)]
            for i in range(nrows)
        ]
    else:  # "pullback": wide, very sparse 0/+-1, like the pullback kernel matrices
        nrows, ncols = rng.randrange(1, 25), rng.randrange(10, 60)
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        for j in range(ncols):
            for _ in range(rng.randrange(0, 3)):
                rows[rng.randrange(nrows)][j] = Fraction(rng.choice((-1, 1)))
    if rows and rng.random() < 0.3:
        rows[rng.randrange(len(rows))] = [Fraction(0)] * ncols
    if rows and rng.random() < 0.3:
        zero_col = rng.randrange(ncols)
        for row in rows:
            row[zero_col] = Fraction(0)
    return rows


MATRICES = [
    random_matrix(rng, kind)
    for rng in [random.Random(20261018)]
    for _ in range(150)
    for kind in ("int", "rational", "deficient", "pullback")
] + [[], [[Fraction(0)] * 4], [[Fraction(0)] * 3 for _ in range(3)]]


def test_enough_and_varied_matrices():
    assert len(MATRICES) >= 500
    assert any(not m for m in MATRICES)
    assert any(v.denominator != 1 for m in MATRICES for row in m for v in row)


@pytest.mark.parametrize("chunk", range(5))
def test_rref_and_kernel_match_dense_oracle(chunk):
    for rows in MATRICES[chunk::5]:
        ncols = len(rows[0]) if rows else 0
        want_rows, want_pivots = dense_rref([list(r) for r in rows])
        want_kernel = dense_kernel(rows, ncols)

        got_rows, got_pivots = rref([list(r) for r in rows])
        assert (got_rows, got_pivots) == (want_rows, want_pivots)
        assert all(type(v) is Fraction for row in got_rows for v in row)
        assert kernel_basis([list(r) for r in rows]) == want_kernel

        got_rows, got_pivots = rref(sparse(rows))
        assert (got_rows, got_pivots) == (sparse(want_rows), want_pivots)
        assert kernel_basis(sparse(rows), ncols) == want_kernel


@pytest.mark.parametrize("chunk", range(5))
def test_rank_matches_dense_oracle(chunk):
    for rows in MATRICES[chunk::5]:
        ncols = len(rows[0]) if rows else 0
        want = len(dense_rref([list(r) for r in rows])[1])
        assert rank([list(r) for r in rows]) == want == len(rref(rows)[1])
        assert rank(sparse(rows), ncols) == want == rank(sparse(rows))
        assert rank(sparse(rows), ncols) + len(kernel_basis(sparse(rows), ncols)) == ncols


def test_rank_of_empty_and_zero_matrices():
    assert rank([]) == 0 and rank([], 3) == 0
    assert rank([[0] * 4]) == 0
    assert rank([{}, {}], 3) == 0


def test_rank_stops_once_every_column_has_a_pivot(monkeypatch):
    # the identity fills every column, so the two extra rows are never
    # cancelled when the column count is known
    calls = []
    real = exact._cancel
    monkeypatch.setattr(exact, "_cancel", lambda *a: calls.append(1) or real(*a))
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [2, -1, 5]]
    assert rank(rows) == 3 and rank(sparse(rows), 3) == 3
    assert not calls
    assert rank(sparse(rows)) == 3
    assert calls


def test_input_rows_are_not_modified():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    rref(rows)
    assert rows == [[2, 4], [1, 3]]


def int_sparse(rows) -> list[dict]:
    return [{c: int(v) for c, v in enumerate(row) if v != 0} for row in rows]


def test_int_rows_skip_the_conversion_and_match_dense_oracle(monkeypatch):
    # sparse rows of nonzero ints reach the elimination as they are, often
    # not primitive; the read-out divides by the pivots, so the reduced form
    # and kernel are still the unique ones, and the rows come back unchanged
    monkeypatch.setattr(exact, "_int_row", lambda items: pytest.fail("row converted"))
    integral = [m for m in MATRICES if all(v.denominator == 1 for row in m for v in row)]
    assert len(integral) >= 300
    for rows in integral:
        ncols = len(rows[0]) if rows else 0
        mat = int_sparse(rows)
        before = [dict(r) for r in mat]
        want_rows, want_pivots = dense_rref([list(r) for r in rows])
        assert rref(mat) == (sparse(want_rows), want_pivots)
        assert kernel_basis(mat, ncols) == dense_kernel(rows, ncols)
        assert rank(mat, ncols) == len(want_pivots) == rank(mat)
        assert mat == before


@pytest.mark.parametrize(
    "odd",
    [{0: Fraction(1, 2), 2: Fraction(3)}, {0: True, 1: True}, {1: 0, 2: 3}],
    ids=["fraction", "bool", "explicit-zero"],
)
def test_one_odd_row_among_int_rows_keeps_the_dense_oracle(odd):
    # one entry that is not a nonzero int sends every row through _int_row;
    # the rank and the reduced form are still the dense oracle's
    rng = random.Random(20261019)
    integral = [m for m in MATRICES if m and all(v.denominator == 1 for row in m for v in row)]
    for rows in integral:
        ncols = max(len(rows[0]), 3)
        rows = [list(r) + [Fraction(0)] * (ncols - len(r)) for r in rows]
        at = rng.randrange(len(rows) + 1)
        mat = int_sparse(rows)
        mat.insert(at, odd)
        dense = rows[:at] + [[Fraction(odd.get(c, 0)) for c in range(ncols)]] + rows[at:]
        want_rows, want_pivots = dense_rref(dense)
        assert rank(mat, ncols) == len(want_pivots) == rank(mat)
        assert rref(mat) == (sparse(want_rows), want_pivots)


@pytest.mark.parametrize(
    "rows",
    [
        # an explicit zero that reached the elimination would be a zero pivot
        # in column 0, and the rank would read 2
        [{0: 0, 1: 2}, {1: 3}],
        [{0: 0, 1: 2}, {1: 3}, {0: 1}],
        [{0: True, 1: True}, {1: True}, {0: 1, 1: 1}],
        [{0: False, 1: True}, {1: 5}],
        [{0: Fraction(2), 1: Fraction(-4)}, {0: Fraction(1), 1: Fraction(-2)}],
        [{0: 2, 1: 4}, {0: Fraction(1, 2), 1: Fraction(1)}, {1: Fraction(3)}],
        [{0: 6, 2: 4}, {0: Fraction(3), 1: 1}, {1: 2, 2: Fraction(-1, 3)}],
    ],
)
def test_rank_of_other_rows_equals_the_int_row_route(rows):
    ncols = 1 + max(c for row in rows for c in row)
    want = len(exact._echelon([exact._int_row(r.items()) for r in rows], ncols))
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert want == len(dense_rref([[Fraction(v) for v in r] for r in dense])[1])
    assert rank(rows, ncols) == want == rank(rows)


def test_sparse_kernel_needs_column_count():
    with pytest.raises(ValueError):
        kernel_basis([{0: 1}])
    assert kernel_basis([], 2) == [(1, 0), (0, 1)]


def oracle_reduce(coeffs: dict, monos: tuple, red: list, pivots: list) -> dict:
    """Walk the reduced rows of U: clear each pivot monomial in turn."""
    coeffs = dict(coeffs)
    for row, pc in zip(red, pivots):
        c = coeffs.get(monos[pc], 0)
        if c == 0:
            continue
        for e, v in zip(monos, row):
            if v == 0:
                continue
            c2 = coeffs.get(e, 0) - c * v
            if c2 == 0:
                coeffs.pop(e, None)
            else:
                coeffs[e] = c2
    return coeffs


def test_piece_data_matches_dense_oracle():
    # the closed-form pivot rule and normal form against row-reduced U
    for n in range(13):
        for d in range(0, 2 * n + 1, 2):
            monos = tuple(piece_monomials(n, d))
            gens = [u_generator_poly(a, b, s) for a, b, s in u_generator_exponents(n, d)]
            rows = [[Fraction(p.coeffs.get(e, 0)) for e in monos] for p in gens]
            red, pivots = dense_rref(rows)
            assert [monos[i] for i in pivots] == [e for e in monos if _is_pivot(e)]
            pivot_set = set(pivots)
            assert piece_data(n, d) == tuple(
                e for i, e in enumerate(monos) if i not in pivot_set
            )
            for e in monos:
                want = oracle_reduce({e: Fraction(1)}, monos, red, pivots)
                got = reduce_poly(Poly.monomial(2, e)).rep.coeffs
                assert got == want, (n, d, e)
                assert all(type(c) is int for c in got.values()), (n, d, e)
