"""Component combinatorics, cohomology bases, pullbacks, kernels, pavings."""

import itertools
from fractions import Fraction

import pytest

from nodehilb.exact import kernel_basis, rank
from nodehilb.geometry import (
    CohElem,
    _elem_valid,
    coh_basis,
    component_count,
    kernel_intersection,
    mv_dimensions,
    paving_cells,
    paving_census,
    poincare_from_basis,
    pullback_x1,
    pullback_x2,
    top_zeta_class,
)
from nodehilb.nodemodule import dim_piece
from nodehilb.series import intersection_poincare, paving_pv
from oracles import component_poincare, pullback_matrix


class TestComponentCount:
    def test_four_points_two_branches(self):
        assert component_count(4, 2) == 5

    def test_irreducible_curve(self):
        for n in range(8):
            assert component_count(n, 1) == 1

    def test_three_three_by_enumeration(self):
        # oracle: count distributions of 3 points over 3 branches directly
        triples = [
            t for t in itertools.product(range(4), repeat=3) if sum(t) == 3
        ]
        assert component_count(3, 3) == len(triples) == 10

    def test_bad_input(self):
        with pytest.raises(ValueError):
            component_count(-1, 2)
        with pytest.raises(ValueError):
            component_count(2, 0)


class TestCohBasis:
    def test_projective_plane(self):
        elems = coh_basis(2, 0)
        assert [(e.kind, e.i, e.j) for e in elems] == [
            ("plain", 0, 0),
            ("plain", 1, 0),
            ("plain", 2, 0),
        ]

    def test_middle_component_level_two(self):
        # ordered by (degree, kind, i, j): within degree 2 the plain classes
        # b = a^0 b^1 and a = a^1 b^0 precede zeta
        elems = coh_basis(2, 1)
        assert [e.label() for e in elems] == ["1", "b", "a", "zeta", "a*b"]
        by_degree = {}
        for e in elems:
            by_degree[e.degree] = by_degree.get(e.degree, 0) + 1
        assert by_degree == {0: 1, 2: 3, 4: 1}

    def test_level_three_component_one(self):
        labels = [e.label() for e in coh_basis(3, 1)]
        assert set(labels) == {"1", "a", "b", "zeta", "a^2", "a*b", "zeta*a", "a^2*b"}
        assert labels == ["1", "b", "a", "zeta", "a*b", "a^2", "zeta*a", "a^2*b"]

    def test_count_formula(self):
        for n in range(9):
            for k in range(n + 1):
                expected = (n - k + 1) * (k + 1) + (n - k) * k
                assert len(coh_basis(n, k)) == expected

    def test_census_equals_component_polynomial(self):
        for n in range(13):
            for k in range(n + 1):
                assert poincare_from_basis(n, k) == component_poincare(n, k)

    def test_basis_is_the_in_range_classes_sorted_by_degree(self):
        for n in range(21):
            for k in range(n + 1):
                in_range = [
                    CohElem(n, k, kind, i, j)
                    for kind in ("plain", "zeta")
                    for i in range(n + 1)
                    for j in range(n + 1)
                    if _elem_valid(n, k, kind, i, j)
                ]
                in_range.sort(key=lambda e: (e.degree, e.kind, e.i, e.j))
                assert coh_basis(n, k) == in_range, (n, k)

    def test_invalid_elements_rejected(self):
        assert not _elem_valid(2, 1, "zeta", 1, 0)  # zeta exponents out of range
        assert not _elem_valid(2, 0, "zeta", 0, 0)  # no exceptional divisor on P^2
        assert not _elem_valid(2, 1, "plain", 2, 0)  # a^2 does not exist at (2, 1)


class TestPullbacks:
    def test_plain_out_of_range_dies(self):
        assert pullback_x1(CohElem(3, 1, "plain", 2, 1)) is None  # a^2 b

    def test_plain_in_range_survives(self):
        assert pullback_x1(CohElem(3, 1, "plain", 1, 1)) == CohElem(2, 1, "plain", 1, 1)  # a b

    def test_zeta_maps_to_zeta(self):
        assert pullback_x1(CohElem(3, 1, "zeta", 0, 0)) == CohElem(2, 1, "zeta", 0, 0)

    def test_second_branch_component_shift(self):
        assert pullback_x2(CohElem(2, 1, "plain", 1, 0)) == CohElem(1, 0, "plain", 1, 0)  # a at (2,1)

    def test_second_branch_b_dies_at_component_zero(self):
        assert pullback_x2(CohElem(2, 1, "plain", 0, 1)) is None  # b at (2,1)

    def test_second_branch_zeta_dies_at_component_zero(self):
        assert pullback_x2(CohElem(3, 1, "zeta", 1, 0)) is None  # zeta*a at (3,1)

    def test_component_zero_has_no_second_branch_target(self):
        assert pullback_x2(CohElem(2, 0, "plain", 1, 0)) is None

    def test_degree_preserved(self):
        for n in range(1, 7):
            for k in range(n + 1):
                for e in coh_basis(n, k):
                    for pb in (pullback_x1, pullback_x2):
                        out = pb(e)
                        assert out is None or (out.degree == e.degree and _elem_valid(*out))

    @staticmethod
    def matrix_of(route, src, tgt):
        # the exact 0/1 matrix of a map that sends each source class to one class or to 0
        index = {e: i for i, e in enumerate(tgt)}
        rows = [[Fraction(0)] * len(src) for _ in tgt]
        for col, e in enumerate(src):
            out = route(e)
            if out is not None:
                rows[index[out]][col] = Fraction(1)
        return rows

    @staticmethod
    def after(outer, inner):
        # outer after inner, on basis classes; 0 stays 0
        def route(e):
            mid = inner(e)
            return None if mid is None else outer(mid)

        return route

    def test_pullbacks_commute_as_matrices(self):
        # x1* x2* = x2* x1* from level n+2 to level n, as exact matrices
        for n in range(9):
            src = [e for k in range(n + 3) for e in coh_basis(n + 2, k)]
            tgt = [e for k in range(n + 1) for e in coh_basis(n, k)]
            first = self.matrix_of(self.after(pullback_x1, pullback_x2), src, tgt)
            second = self.matrix_of(self.after(pullback_x2, pullback_x1), src, tgt)
            assert first == second

    def test_mat_mul_agrees_with_composition(self):
        # the same composite, assembled from the two single-step matrices
        n = 3
        levels = {
            level: [e for k in range(level + 1) for e in coh_basis(level, k)]
            for level in (n, n + 1, n + 2)
        }

        def product(a, b):
            return [
                [sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
                for row in a
            ]

        via_product = product(
            self.matrix_of(pullback_x1, levels[n + 1], levels[n]),
            self.matrix_of(pullback_x2, levels[n + 2], levels[n + 1]),
        )
        direct = self.matrix_of(self.after(pullback_x1, pullback_x2), levels[n + 2], levels[n])
        assert via_product == direct


class TestKernels:
    def test_level_two(self):
        kernels = kernel_intersection(2)
        assert kernels[0] == [] and kernels[2] == []
        assert kernels[1] == [CohElem(2, 1, "zeta", 0, 0)]

    def test_level_two_end_components_injective(self):
        # on P^2 the restriction is injective below the top degree
        elems = [e for e in coh_basis(2, 0) if e.degree < 4]
        assert all(pullback_x1(e) is not None for e in elems)

    def test_level_four_middle(self):
        kernels = kernel_intersection(4)
        assert kernels[2] == [CohElem(4, 2, "zeta", 1, 1)]

    def test_top_zeta_everywhere(self):
        for n in range(2, 9):
            kernels = kernel_intersection(n)
            for k in range(n + 1):
                assert kernels[k] == ([top_zeta_class(n, k)] if 0 < k < n else []), (n, k)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            kernel_intersection(0)

    def test_read_off_equals_elimination(self):
        # the read-off against kernel_basis of the full pullback matrix, and
        # the rank identity that the read-off makes redundant at run time;
        # each eliminated vector is a single 1, at its source class
        for n in range(2, 13):
            kernels = kernel_intersection(n)
            for k in range(n + 1):
                source, rows = pullback_matrix(n, k)
                vecs = kernel_basis(rows, len(source))
                eliminated = []
                for vec in vecs:
                    (col,) = [c for c, v in enumerate(vec) if v != 0]
                    assert vec[col] == 1, (n, k, vec)
                    eliminated.append(source[col])
                assert kernels[k] == eliminated, (n, k)
                assert rank(rows, len(source)) + len(kernels[k]) == len(source), (n, k)


class TestMayerVietorisDimensions:
    def test_level_two_middle_degree(self):
        components = sum(poincare_from_basis(2, k)[1] for k in range(3))
        intersections = sum(intersection_poincare(2, k)[1] for k in range(2))
        assert (components, intersections, mv_dimensions(2)[1]) == (5, 2, 3)

    def test_level_zero(self):
        assert mv_dimensions(0) == [1]

    def test_equals_module_dimensions_to_thirty(self):
        for n in range(31):
            assert mv_dimensions(n) == [dim_piece(n, 2 * j) for j in range(n + 1)], n


def punctual_dims(c):
    """Dimensions of the cells of level c with every point at the node."""
    return [cell.dim for cell in paving_cells(c) if cell.a == cell.b == 0]


class TestPaving:
    def test_single_point_on_germ(self):
        assert punctual_dims(1) == [0]

    def test_chain_of_lines(self):
        assert punctual_dims(3) == [0, 1, 1]

    def test_empty_cell(self):
        assert punctual_dims(0) == [0]

    def test_census_level_two(self):
        assert paving_census(2, paving_cells(2)) == [1, 3, 3]

    def test_census_level_zero(self):
        assert paving_census(0, paving_cells(0)) == [1]

    def test_cells_level_two_inventory(self):
        cells = paving_cells(2)
        abc = sorted({(c.a, c.b, c.c) for c in cells})
        assert abc == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
        assert sum(1 for c in cells if (c.a, c.b, c.c) == (0, 0, 2)) == 2

    def test_census_matches_series_route(self):
        s = paving_pv(29)
        for n in range(30):
            assert paving_census(n, paving_cells(n)) == s[n]
