"""Truncated bivariate series and the identities between the four routes."""

from fractions import Fraction
from math import comb

import pytest

from nodehilb.nodemodule import betti_table
from nodehilb.series import (
    ambient_module_pv,
    closed_form,
    closed_form_pv,
    expand,
    intersection_poincare,
    module_pv,
    module_pv_identity,
    mv_pv,
    paving_pv,
    paving_row,
    series_equal,
    submodule_pv,
)
from oracles import box_count_mv_pv, component_poincare, truncated_product

KNOWN_ROWS = [
    [1],
    [1, 2],
    [1, 3, 3],
    [1, 4, 5, 4],
    [1, 5, 7, 7, 5],
    [1, 6, 9, 10, 9, 6],
]


# -- convolution oracle for the Poincare polynomials of components -------------


def _ones(k):
    """1 + t^2 + ... + t^(2(k-1)) as a coefficient list of length k."""
    return [Fraction(1)] * k


def _conv(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _shift(p, k):
    return [Fraction(0)] * k + p if p else []


def _add_lists(p, q):
    n = max(len(p), len(q))
    return [
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ]


def oracle_component(n, k):
    """Blown-up product plus t^2 times the exceptional divisor's product."""
    exceptional = _shift(_conv(_ones(k), _ones(n - k)), 1)
    base = _conv(_ones(n - k + 1), _ones(k + 1))
    out = _add_lists(exceptional, base)
    return out + [Fraction(0)] * (n + 1 - len(out))


def oracle_intersection(n, k):
    return _conv(_ones(k + 1), _ones(n - k))


def denominator(q_factors, qt2_factors):
    """(1-q)^q_factors (1-q t^2)^qt2_factors multiplied out by the binomial theorem."""
    return {
        (i + k, k): (-1) ** (i + k) * comb(q_factors, i) * comb(qt2_factors, k)
        for i in range(q_factors + 1)
        for k in range(qt2_factors + 1)
    }


def in_box(poly, order):
    out = [[0] * (order + 1) for _ in range(order + 1)]
    for (i, j), v in poly.items():
        if i <= order and j <= order:
            out[i][j] += v
    return out


class TestExpand:
    def test_geometric_series(self):
        s = expand({(0, 0): 1}, 8, 1, 0)
        assert s == [[1] + [0] * n for n in range(9)]
        # t^2 / (1-q) has q^1 t^2 inside the triangle, reached only from
        # q^0 t^2 outside it, so the triangle refuses that numerator
        for factors in ((1, 0), (0, 2), (0, 0)):
            with pytest.raises(ValueError):
                expand({(0, 1): 1}, 8, *factors)

    def test_derivative_of_geometric(self):
        s = expand({(0, 0): 1}, 8, 0, 2)
        assert s == [[0] * n + [n + 1] for n in range(9)]

    def test_closed_form_row_five_column_three(self):
        assert closed_form_pv(6)[5][3] == 10

    def test_multiplying_back_gives_numerator(self):
        order = 10
        numerators = [
            closed_form()[0],
            # the punctual factor 1 + sum_{c>=1} q^c (1 + (c-1) t^2)
            {(0, 0): 1} | {(c, j): v for c in range(1, order + 1) for j, v in enumerate([1, c - 1])},
            {(3, 1): 5},
        ]
        for num in numerators:
            for a in range(5):
                for b in range(5):
                    back = truncated_product(expand(num, order, a, b), denominator(a, b))
                    assert back == in_box(num, order), (num, a, b)

    def test_integer_routes_stay_in_int(self):
        for route in (closed_form_pv, mv_pv, paving_pv, module_pv, betti_table):
            s = route(12)
            assert all(type(v) is int for row in s for v in row), route.__name__
            assert [len(row) for row in s] == list(range(1, 14)), route.__name__


class TestClosedForm:
    def test_rows_match_figure(self):
        s = closed_form_pv(5)
        for n, row in enumerate(KNOWN_ROWS):
            assert s[n] == row

    def test_row_zero(self):
        assert closed_form_pv(0) == [[1]]

    def test_row_eight_matches_module_enumeration(self):
        assert closed_form_pv(8)[8] == betti_table(8)[8]


class TestComponentPolynomials:
    def test_projective_plane(self):
        assert component_poincare(2, 0) == [1, 1, 1]

    def test_blown_up_quadric(self):
        # by hand: t^2 + (1+t^2)^2 = 1 + 3t^2 + t^4
        assert component_poincare(2, 1) == [1, 3, 1]

    def test_three_one(self):
        # t^2 (1)(1+t^2) + (1+t^2+t^4)(1+t^2)
        assert component_poincare(3, 1) == [1, 3, 3, 1]

    def test_palindromic(self):
        for n in range(13):
            for k in range(n + 1):
                poly = component_poincare(n, k)
                assert poly == poly[::-1]
                assert len(poly) == n + 1

    def test_equals_convolution_oracle(self):
        for n in range(25):
            for k in range(n + 1):
                assert component_poincare(n, k) == oracle_component(n, k), (n, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            component_poincare(2, 3)


class TestIntersectionPolynomials:
    def test_projective_line_both_ways(self):
        assert intersection_poincare(2, 0) == [1, 1]
        assert intersection_poincare(2, 1) == [1, 1]

    def test_palindromic(self):
        for n in range(1, 13):
            for k in range(n):
                poly = intersection_poincare(n, k)
                assert poly == poly[::-1]
                assert len(poly) == n

    def test_equals_convolution_oracle(self):
        for n in range(1, 25):
            for k in range(n):
                assert intersection_poincare(n, k) == oracle_intersection(n, k), (n, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            intersection_poincare(2, 2)


class TestInclusionExclusion:
    def test_row_two_by_hand(self):
        # (1+t^2+t^4) + (1+3t^2+t^4) + (1+t^2+t^4) - 2(1+t^2)
        total = [Fraction(0)] * 3
        for k in range(3):
            for j, v in enumerate(component_poincare(2, k)):
                total[j] += v
        for k in range(2):
            for j, v in enumerate(intersection_poincare(2, k)):
                total[j] -= v
        assert total == [1, 3, 3]
        assert mv_pv(4)[2] == [1, 3, 3]

    def test_row_zero(self):
        assert mv_pv(3)[0] == [1]

    def test_equals_closed_form_to_thirty(self):
        ok, where = series_equal(mv_pv(30), closed_form_pv(30))
        assert ok, where

    def test_equals_closed_form_at_128(self):
        ok, where = series_equal(mv_pv(128), closed_form_pv(128))
        assert ok, where

    def test_point_masses_equal_the_trapezoid_count(self):
        # running sums of +-1 masses against counting each coefficient
        for order in [*range(41), 64]:
            s = mv_pv(order)
            assert s == box_count_mv_pv(order), order
            assert all(type(v) is int for row in s for v in row), order


class TestPavingRoute:
    def test_row_two_by_hand_count(self):
        # two points, by the number c at the node: c = 0 leaves 3 pairs
        # (a, b), each a cell of dim 2; c = 1 leaves 2, of dim 1; c = 2 leaves
        # (0, 0), a point of dim 0 and one line cell of dim 1
        by_stratum = [[0, 0, 3], [0, 2, 0], [1, 1, 0]]
        assert paving_row(2) == [sum(cells) for cells in zip(*by_stratum)] == [1, 3, 3]
        assert paving_pv(4)[2] == [1, 3, 3]

    def test_equals_closed_form_to_thirty(self):
        for order in (30, 128):
            ok, where = series_equal(paving_pv(order), closed_form_pv(order))
            assert ok, (order, where)


class TestModuleRoute:
    def test_first_row_pieces(self):
        amb = ambient_module_pv(3)
        sub = submodule_pv(3)
        assert amb[1] == [2, 2]
        assert sub[1] == [1, 0]
        assert module_pv(3)[1] == [1, 2]

    def test_constant_term(self):
        assert module_pv(3)[0] == [1]

    def test_identity_to_thirty(self):
        quotient, _, mismatches = module_pv_identity(30)
        assert series_equal(quotient, closed_form_pv(30)) == (True, None)
        assert mismatches == []
        ok, where = series_equal(module_pv(30), closed_form_pv(30))
        assert ok, where

    def test_enumeration_cross_check_contents(self):
        _, bound, mismatches = module_pv_identity(12)
        assert bound == 12
        assert mismatches == []


class TestSeriesEqual:
    def test_difference_beyond_truncation_invisible(self):
        num, a, b = closed_form()
        bumped = num | {(9, 0): 1}
        ok, where = series_equal(expand(num, 5, a, b), expand(bumped, 5, a, b))
        assert ok and where is None

    def test_first_discrepancy_location(self):
        a = closed_form_pv(4)
        b = closed_form_pv(4)
        b[2][1] += 1
        b[3][0] += 1
        ok, where = series_equal(a, b)
        assert not ok and where == (2, 1)
        # a row one entry short (or long) differs at the entry only one side has
        short = closed_form_pv(4)
        short[3].pop()
        assert series_equal(a, short) == series_equal(short, a) == (False, (3, 3))
        assert series_equal(a, [*a[:3], a[3] + [0], a[4]]) == (False, (3, 4))

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            series_equal(closed_form_pv(3), closed_form_pv(4))


class TestSpecializations:
    def test_row_sums_match_t_equals_one(self):
        # at t = 1 the closed form becomes (q^2 - q + 1)/(1-q)^4; expand it
        # with the same machinery as a univariate check of the row sums
        univ = expand({(2, 0): 1, (1, 0): -1, (0, 0): 1}, 15, 4, 0)
        full = closed_form_pv(15)
        for n in range(16):
            assert sum(full[n]) == univ[n][0]

    def test_component_count_per_row(self):
        # the inclusion-exclusion row at level n sums n+1 component polynomials
        from nodehilb.geometry import component_count

        for n in range(10):
            assert component_count(n, 2) == n + 1


def test_negative_order_rejected():
    routes = (closed_form_pv, mv_pv, paving_pv, module_pv, betti_table)
    for make in (*routes, lambda order: expand({(0, 0): 1}, order, 2, 2)):
        with pytest.raises(ValueError):
            make(-1)
