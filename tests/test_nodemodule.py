"""The quotient module of the node: reduction, dimensions, actions, checks."""

import ast
import inspect
import random
import textwrap
from fractions import Fraction
from math import factorial

import pytest

from nodehilb import exact, geometry, nodemodule, series
from nodehilb.cli import main
from nodehilb.exact import Poly
from nodehilb.nodemodule import (
    NodeClass,
    apply_generator,
    betti_table,
    commutator_columns,
    dim_ambient,
    dim_piece,
    dim_submodule,
    fundamental_class,
    generation_checks,
    injectivity_checks,
    no_extension_witness,
    operator_columns,
    piece_data,
    piece_monomials,
    pieces,
    reduce_poly,
    relation_matrix_checks,
    u_generator_exponents,
)
from nodehilb.weyl import Generator, SubalgebraWord, WeylOp, generators
from oracles import (
    poly_dim_submodule,
    poly_generation_checks,
    sorted_piece_monomials,
    span_solve,
    u_generator_poly,
    u_preservation_checks,
    weyl_commutator_columns,
    weyl_operator_columns,
)

X1, X2, Y1, Y2 = Poly.x(2, 1), Poly.x(2, 2), Poly.y(2, 1), Poly.y(2, 2)

# the graded dimension table of the module, rows n = 0..5
KNOWN_ROWS = [
    [1],
    [1, 2],
    [1, 3, 3],
    [1, 4, 5, 4],
    [1, 5, 7, 7, 5],
    [1, 6, 9, 10, 9, 6],
]


def referenced_names(func) -> set:
    """Every name and attribute in the source of ``func``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


class TestReduction:
    def test_x1_minus_x2_dies(self):
        assert reduce_poly(X1 - X2).is_zero()

    def test_y1_minus_y2_survives(self):
        # the submodule has no piece in bidegree (1, 2)
        assert u_generator_exponents(1, 2) == []
        cls = reduce_poly(Y1 - Y2)
        assert cls.rep == Y1 - Y2

    def test_difference_of_squares_dies(self):
        # oracle: x1^2 - x2^2 is an exact combination of submodule generators
        gens = [u_generator_poly(1, 0, 0), u_generator_poly(0, 1, 0)]
        assert span_solve(gens, X1**2 - X2**2) == [1, 1]
        assert reduce_poly(X1**2 - X2**2).is_zero()

    def test_reduce_is_idempotent_and_linear(self):
        rng = random.Random(12)
        for _ in range(200):
            n, j = rng.randrange(6), rng.randrange(6)
            if j > n:
                continue
            p = _random_piece_element(rng, n, 2 * j)
            q = _random_piece_element(rng, n, 2 * j)
            rp = reduce_poly(p, (n, 2 * j))
            assert reduce_poly(rp.rep, (n, 2 * j)).rep == rp.rep
            rq = reduce_poly(q, (n, 2 * j))
            assert reduce_poly(p + q, (n, 2 * j)).rep == rp.rep + rq.rep

    def test_kernel_of_reduce_is_exactly_the_submodule(self):
        for n in range(7):
            for j in range(n + 1):
                d = 2 * j
                killed = [
                    e
                    for e in piece_monomials(n, d)
                    if reduce_poly(Poly.monomial(2, e), (n, d)).rep
                    != Poly.monomial(2, e)
                ]
                # pivot monomials are in bijection with the submodule rank
                assert len(killed) == dim_submodule(n, d)
                for a, b, s in u_generator_exponents(n, d):
                    assert reduce_poly(u_generator_poly(a, b, s), (n, d)).is_zero()

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            reduce_poly(X1 + X1**2)

    def test_zero_needs_grade(self):
        with pytest.raises(ValueError):
            reduce_poly(Poly.zero(2))
        assert reduce_poly(Poly.zero(2), (3, 2)).is_zero()


def _random_piece_element(rng, n, d):
    coeffs = {}
    for e in piece_monomials(n, d):
        if rng.random() < 0.4:
            coeffs[e] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 3))
    return Poly(2, coeffs)


def test_piece_monomials_equal_a_sorted_enumeration():
    # read off in order, against listing and sorting by monomial_key
    for n in range(-2, 41):
        for d in range(-3, 2 * n + 4):
            assert piece_monomials(n, d) == sorted_piece_monomials(n, d), (n, d)


class TestDimensions:
    def test_rows_zero_to_five(self):
        table = betti_table(5)
        for n, expected in enumerate(KNOWN_ROWS):
            assert table[n] == expected

    def test_empty_subscheme(self):
        assert dim_piece(0, 0) == 1

    def test_row_two_column_one(self):
        assert dim_piece(2, 2) == 3

    def test_row_five_column_three(self):
        assert dim_piece(5, 6) == 10

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            dim_piece(3, 3)

    def test_out_of_range_is_zero(self):
        assert dim_piece(-1, 0) == 0
        assert dim_piece(2, 6) == 0

    def test_ambient_minus_submodule(self):
        for n in range(10):
            for j in range(n + 1):
                d = 2 * j
                assert dim_piece(n, d) == dim_ambient(n, d) - dim_submodule(n, d)

    def test_submodule_spanning_set_is_independent(self):
        for n in range(10):
            for j in range(n + 1):
                # rank equals the number of listed generators
                assert dim_submodule(n, 2 * j) == len(u_generator_exponents(n, 2 * j))

    def test_submodule_rank_equals_the_per_element_route(self):
        # U's product built once per piece against each element built whole
        for n in range(16):
            for j in range(n + 1):
                assert dim_submodule(n, 2 * j) == poly_dim_submodule(n, 2 * j), (n, j)

    def test_diagonal_dimension_counts_components(self):
        for n in range(11):
            assert dim_piece(n, 2 * n) == n + 1

    def test_rows_match_closed_form_series(self):
        # cross-module oracle: the generating-function route
        from nodehilb.series import closed_form_pv

        assert betti_table(10) == closed_form_pv(10)
        # pieces, the one enumeration the checks run over, is the triangle
        # (n, 2j) for 0 <= j <= n and holds every dimension of the closed form
        for N in range(13):
            ps = pieces(N)
            assert len(set(ps)) == len(ps) == (N + 1) * (N + 2) // 2
            assert all(0 <= n <= N and d % 2 == 0 and 0 <= d <= 2 * n for n, d in ps)
            assert sum(dim_piece(n, d) for n, d in ps) == sum(map(sum, closed_form_pv(N)))


class TestAction:
    def test_mu_plus_on_unit(self):
        one = reduce_poly(Poly.one(2), (0, 0))
        out = apply_generator(Generator("mu+"), one)
        assert out.rep == Y1 + Y2 and (out.n, out.d) == (1, 2)

    def test_d1_on_y1y2(self):
        v = reduce_poly(Y1 * Y2, (2, 4))
        out = apply_generator(Generator("d", 1), v)
        assert out.rep == Y2 and (out.n, out.d) == (1, 2)

    def test_mu_minus_on_x1sq_x2(self):
        # derivative gives 2 x1 x2 + x1^2; its canonical representative is
        # 3 x2^2 since x1^2 and x1 x2 are pivot monomials of the submodule
        v = reduce_poly(X1**2 * X2, (3, 0))
        out = apply_generator(Generator("mu-"), v)
        assert out.rep == reduce_poly(2 * X1 * X2 + X1**2, (2, 0)).rep
        assert out.rep == 3 * X2**2

    def test_acting_into_negative_points_gives_zero(self):
        one = reduce_poly(Poly.one(2), (0, 0))
        assert apply_generator(Generator("mu-"), one).is_zero()
        assert apply_generator(Generator("d", 1), one).is_zero()

    def test_bad_generator_index(self):
        one = reduce_poly(Poly.one(2), (0, 0))
        with pytest.raises(ValueError):
            apply_generator(Generator("x", 3), one)


class TestFundamentalClasses:
    def test_small_cases(self):
        assert fundamental_class(1, 1).rep == Y1
        assert fundamental_class(2, 1).rep == Y1 * Y2
        assert fundamental_class(3, 2).rep == Y1**2 * Y2 * Fraction(1, 2)
        # the one division of the module: 1/(k!(n-k)!) stays a Fraction
        for n in range(7):
            for k in range(n + 1):
                (c,) = fundamental_class(n, k).rep.coeffs.values()
                den = factorial(k) * factorial(n - k)
                assert c == Fraction(1, den)
                assert den == 1 or type(c) is Fraction

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            fundamental_class(2, 3)

    def test_mu_minus_annihilates_diagonal(self):
        # on the top-degree row there is nothing below: degree reasons
        for n in range(6):
            for k in range(n + 1):
                out = apply_generator(Generator("mu-"), fundamental_class(n, k))
                assert out.is_zero()

    def test_mu_plus_is_symmetric_multiplication(self):
        for n in range(5):
            for k in range(n + 1):
                fc = fundamental_class(n, k)
                out = apply_generator(Generator("mu+"), fc)
                assert out.rep == fundamental_class(n + 1, k + 1).rep * (k + 1) + (
                    fundamental_class(n + 1, k).rep * (n - k + 1)
                )

    def test_gysin_descent(self):
        # d1 sends the class with k on the first branch to the one with k-1
        for n in range(1, 6):
            for k in range(1, n + 1):
                out = apply_generator(Generator("d", 1), fundamental_class(n, k))
                assert out.rep == fundamental_class(n - 1, k - 1).rep
        for n in range(1, 6):
            for k in range(n):
                out = apply_generator(Generator("d", 2), fundamental_class(n, k))
                assert out.rep == fundamental_class(n - 1, k).rep


class TestGeneration:
    def test_diagonal_alone(self):
        # on the diagonal the fundamental classes themselves are a basis
        for n in range(6):
            vectors = [fundamental_class(n, k).rep for k in range(n + 1)]
            for target_exps in piece_data(n, 2 * n):
                target = Poly.monomial(2, target_exps)
                assert span_solve(vectors, target) is not None

    def test_generation_to_six(self):
        checks = generation_checks(6)
        assert all(c.ok for c in checks)
        by_key = {(c.points, c.row): c for c in checks}
        assert by_key[(1, 0)].rank == 1 and by_key[(1, 0)].dim == 1
        assert by_key[(2, 1)].rank == 3 and by_key[(2, 1)].dim == 3

    def test_generation_equals_the_polynomial_route(self):
        # rows read off the exponents and ranked without read-out, against
        # polynomial shifts reduced by reduce_poly and ranked through rref
        for n_max in range(13):
            assert generation_checks(n_max) == poly_generation_checks(n_max), n_max

    def test_scaled_fundamental_class_is_the_bare_monomial(self):
        # the read-off of generation_checks rests on this: k!(n-k)! times the
        # class of y1^k y2^(n-k)/k!(n-k)! is y1^k y2^(n-k), already reduced
        for n in range(16):
            for k in range(n + 1):
                scaled = fundamental_class(n, k).rep * (factorial(k) * factorial(n - k))
                assert scaled == Poly.monomial(2, (0, 0, k, n - k)), (n, k)

    def test_generation_does_not_build_fundamental_classes(self):
        # poly_generation_checks goes through these; sharing them would leave
        # the two routes unable to check each other
        banned = {"fundamental_class", "reduce_poly", "Poly", "Fraction"}
        shared = referenced_names(nodemodule.generation_checks) & banned
        assert not shared, shared


def test_node_suite_ranks_only_int_rows(capsys, monkeypatch, ranked):
    # every row the node suite ranks is built in int, so none is converted;
    # the certificates leave nothing to rank, so the second run declines
    # them and sends every injectivity and generation matrix to rank
    def converted(items):
        raise AssertionError("a row went through _int_row")

    monkeypatch.setattr(exact, "_int_row", converted)
    for declined in (False, True):
        if declined:
            monkeypatch.setattr(nodemodule, "_leads", lambda vecs: set())
        assert main(["verify", "node", "--n-max", "6"]) == 0
        assert '"status": "pass"' in capsys.readouterr().out
        assert len(ranked) == declined * (3 * 28 + 28)


class TestCertificates:
    def test_columns_and_normal_forms_list_rows_in_ascending_order(self):
        # _leads reads the largest row of a column or generation row as its
        # last entry, so both must come in strictly ascending row order
        def ascending(terms):
            rows = [i for i, _ in terms]
            return all(a < b for a, b in zip(rows, rows[1:]))

        for n in range(21):
            for d in range(0, 2 * n + 1, 2):
                for g in generators(2):
                    assert all(map(ascending, operator_columns(g, n, d))), (g, n, d)
                index = piece_data(n, d)
                assert list(index.values()) == list(range(len(index)))
                for e in piece_monomials(n, d):
                    terms = [(index[h], c) for h, c in nodemodule._normal_form(e)]
                    assert ascending(terms), e

    def test_certificates_agree_with_elimination(self, monkeypatch):
        # every injectivity and generation matrix with n <= 20 is decided by
        # its leads, and elimination, the independent route, gives that rank
        seen = []
        real = nodemodule.certified_rank
        monkeypatch.setattr(
            nodemodule, "certified_rank", lambda vecs, ncols: seen.append((vecs, ncols)) or real(vecs, ncols)
        )
        injectivity_checks(20)
        generation_checks(20)
        assert len(seen) == 3 * 231 + 231
        for vecs, ncols in seen:
            full = min(len(vecs), ncols)
            assert len(nodemodule._leads(vecs)) == full
            assert exact.rank([dict(v) for v in vecs], ncols) == full

    def test_verify_node_ranks_nothing_at_the_desk_cap(self, capsys, ranked):
        # a certificate that stops deciding shows here, not only in the benchmark
        assert main(["verify", "node", "--n-max", "15"]) == 0
        capsys.readouterr()
        assert ranked == []


class TestNoExtension:
    def test_witness(self):
        w = no_extension_witness()
        assert w["witness_found"]
        assert w["symmetric_product_reduces_to"] == "0"

    def test_y1_alone_does_not_preserve_submodule(self):
        u = X1 - X2
        assert not reduce_poly(Y1 * u, (2, 2)).is_zero()
        assert not reduce_poly(Y2 * u, (2, 2)).is_zero()
        assert reduce_poly((Y1 + Y2) * u, (2, 2)).is_zero()

    def test_against_span_oracle(self):
        # bidegree (2, 2) of the submodule is spanned by (y1+y2)(x1-x2) alone;
        # y1(x1-x2) is not a multiple of it
        gens = [u_generator_poly(a, b, s) for a, b, s in u_generator_exponents(2, 2)]
        assert len(gens) == 1
        assert span_solve(gens, Y1 * (X1 - X2)) is None


class TestOperatorIdentities:
    def test_relation_matrices_to_six(self):
        checks = relation_matrix_checks(6)
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]
        # every piece once per relation, piece by piece
        assert [(c.n, c.d) for c in checks] == [p for p in pieces(6) for _ in range(21)]

    def test_relation_table_is_pinned(self):
        # the 21 defining relations per piece, in report order
        assert [c.name for c in relation_matrix_checks(0)] == [
            "[d1,mu+]=id", "[d2,mu+]=id", "[mu-,x1]=id", "[mu-,x2]=id",
            "[x1,x1]=0", "[x1,x2]=0", "[x2,x1]=0", "[x2,x2]=0",
            "[d1,d1]=0", "[d1,d2]=0", "[d2,d1]=0", "[d2,d2]=0",
            "[d1,x1]=0", "[d1,x2]=0", "[d2,x1]=0", "[d2,x2]=0",
            "[x1,mu+]=0", "[x2,mu+]=0", "[d1,mu-]=0", "[d2,mu-]=0",
            "[mu+,mu-]=0",
        ]
        for n in range(6):
            assert len(relation_matrix_checks(n)) == 21 * (n + 1) * (n + 2) // 2

    def test_one_commutator_per_unordered_pair_and_piece(self, monkeypatch):
        # [a, a] = 0 and the reversed [b, a] = 0 take their verdicts without a
        # commutator of their own: 15 calls per piece settle the 21 entries
        calls = []
        real = nodemodule.commutator_columns
        monkeypatch.setattr(
            nodemodule, "commutator_columns", lambda *args: calls.append(args) or real(*args)
        )
        for n in range(6):
            calls.clear()
            relation_matrix_checks(n)
            assert len(calls) == 15 * (n + 1) * (n + 2) // 2
            assert len({(frozenset(call[:2]), call[2:]) for call in calls}) == len(calls)

    def test_equal_operator_columns_are_one_object(self):
        relation_matrix_checks(8)
        cols = [
            col
            for g in generators(2)
            for n in range(10)
            for d in range(0, 2 * n + 1, 2)
            for col in operator_columns(g, n, d)
        ]
        assert len({id(col) for col in cols}) == len(set(cols)) < len(cols)
        # and so are equal (row, coeff) terms across all of them
        terms = [term for col in cols for term in col]
        assert len({id(term) for term in terms}) == len(set(terms)) < len(terms)

    def test_injectivity_to_six(self):
        checks = injectivity_checks(6)
        assert all(c.ok for c in checks)
        # every piece once per generator, generator by generator
        assert [(c.n, c.d) for c in checks] == pieces(6) * 3
        names = [f"mult-by-{g}-injective" for g in ("x1", "x2", "mu+")]
        assert [c.name for c in checks] == [name for name in names for _ in pieces(6)]

    def test_operator_matrix_shapes(self):
        # one column per source basis class, rows inside the target basis
        cols = operator_columns(Generator("x", 1), 1, 0)
        assert len(cols) == dim_piece(1, 0)
        assert {i for col in cols for i, _ in col} == set(range(dim_piece(2, 0)))
        # d1 leaves the range from (0, 0): one empty column
        assert operator_columns(Generator("d", 1), 0, 0) == ((),)

    def test_bad_generator_index_raises_before_the_range_check(self):
        # d3 from (0, 0) would leave the range too, but there is no d3 at m = 2
        with pytest.raises(ValueError):
            operator_columns(Generator("d", 3), 0, 0)
        with pytest.raises(ValueError):
            commutator_columns(Generator("d", 3), Generator("x", 1), 0, 0)

    def test_operator_columns_are_int(self):
        # the generators act on monomials with integer coefficients and the
        # normal form rewrites with binomials, so no column entry is rational
        for g in generators(2):
            for n in range(11):
                for d in range(0, 2 * n + 1, 2):
                    for col in operator_columns(g, n, d):
                        assert all(type(c) is int for _, c in col), (g, n, d)

    def test_operator_columns_equal_the_weyl_route(self):
        # the exponent read-off against acting by the Weyl algebra element
        for g in generators(2):
            for n in range(17):
                for d in range(0, 2 * n + 1, 2):
                    assert operator_columns(g, n, d) == weyl_operator_columns(g, n, d), (g, n, d)

    def test_only_x1_and_d2_meet_a_pivot(self):
        # the read-off indexes the images of x2, d1, mu+ and mu- straight into
        # the target basis, and reduce only x1 on (0, n - j, j, 0) and d2
        # where b2 = 1 and a1 >= 1; the images, from the definitions: x_i
        # raises a_i, d_i lowers b_i, mu+ raises b1 or b2, mu- lowers a1 or a2
        def raised(e, i, k):
            return e[:i] + (e[i] + k,) + e[i + 1 :]

        def images(e):
            return {
                "x1": [raised(e, 0, 1)],
                "x2": [raised(e, 1, 1)],
                "d1": [raised(e, 2, -1)] if e[2] else [],
                "d2": [raised(e, 3, -1)] if e[3] else [],
                "mu+": [raised(e, 2, 1), raised(e, 3, 1)],
                "mu-": [raised(e, i, -1) for i in (0, 1) if e[i]],
            }

        # every image lies in the target piece, so a target outside the
        # triangle gets no image at all and needs no range guard
        shift = {str(g): g.bidegree for g in generators(2)}
        met = {g: set() for g in ("x1", "x2", "d1", "d2", "mu+", "mu-")}
        for n in range(31):
            for j in range(n + 1):
                for e in piece_data(n, 2 * j):
                    for g, fs in images(e).items():
                        dn, dd = shift[g]
                        assert set(fs) <= set(piece_monomials(n + dn, 2 * j + dd)), (g, e)
                        if any(nodemodule._is_pivot(f) for f in fs):
                            met[g].add(e)
        assert not met["x2"] and not met["d1"] and not met["mu+"] and not met["mu-"]
        assert met["x1"] == {(0, n - j, j, 0) for n in range(31) for j in range(n + 1)}
        assert met["d2"] == {
            (a1, a2, b1, b2)
            for n in range(31)
            for j in range(n + 1)
            for a1, a2, b1, b2 in piece_data(n, 2 * j)
            if b2 == 1 and a1 >= 1
        }

    def test_operator_columns_do_not_act_through_the_weyl_algebra(self):
        # two routes that share the action would not check each other
        banned = {"generator_element", "WeylOp", "act", "reduce_poly", "Poly"}
        for func in (nodemodule.operator_columns, nodemodule._read_off, nodemodule._reduced):
            shared = referenced_names(func) & banned
            assert not shared, (func.__name__, shared)

    def test_unit_commutator_on_one_piece(self):
        # [d1, mu+] as honest matrices on the (2, 2) piece
        cols = commutator_columns(Generator("d", 1), Generator("mu+"), 2, 2)
        assert cols == [{i: 1} for i in range(dim_piece(2, 2))]

    def test_commutator_columns_equal_the_weyl_route(self):
        # one-pass accumulation against a b and b a composed separately from
        # the Weyl-algebra columns, for all 36 ordered generator pairs
        for n in range(11):
            for d in range(0, 2 * n + 1, 2):
                for a in generators(2):
                    for b in generators(2):
                        want = weyl_commutator_columns(a, b, n, d)
                        assert commutator_columns(a, b, n, d) == want, (a, b, n, d)


class TestUPreservation:
    def test_all_generators_preserve_submodule(self):
        rng = random.Random(60302)
        results = u_preservation_checks(100, rng)
        assert len(results) >= 600  # six generators per sample
        assert all(results)


class TestNodeClass:
    def test_str(self):
        cls = reduce_poly(Y1, (1, 2))
        assert str(cls) == "[y1] @ (n=1, d=2)"


@pytest.mark.parametrize(
    "call",
    [
        lambda: Poly.x(2, 1) ** -1,
        lambda: WeylOp.x(2, 1).act(Poly.x(3, 1)),
        lambda: SubalgebraWord((1,), 0, (0,), 0).to_weyl(2),
        lambda: geometry.coh_basis(2, 3),
        lambda: geometry.mv_dimensions(-1),
        lambda: geometry.paving_cells(-1),
        lambda: series.paving_row(-1),
        lambda: reduce_poly(Poly.x(2, 1), (2, 0)),
    ],
    ids=[
        "negative-power",
        "act-across-sizes",
        "word-of-wrong-size",
        "coh-basis-past-n",
        "mv-dimensions-below-0",
        "paving-cells-below-0",
        "paving-row-below-0",
        "reduce-into-wrong-grade",
    ],
)
def test_library_guards_reject_bad_input(call):
    with pytest.raises(ValueError):
        call()


def test_u_generators_outside_the_grades_are_none():
    assert u_generator_exponents(3, 3) == u_generator_exponents(3, -2) == []
