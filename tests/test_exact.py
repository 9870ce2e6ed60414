"""Exact polynomial arithmetic and linear algebra over Q."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import nodehilb
from nodehilb.exact import Poly, as_exact, kernel_basis, monomial_bidegree, rank, rref
from nodehilb.weyl import WeylOp
from oracles import solve_columns, span_solve


def x(i, m=2):
    return Poly.x(m, i)


def y(i, m=2):
    return Poly.y(m, i)


def random_poly(rng, m=2, max_terms=5, max_exp=3):
    coeffs = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp) for _ in range(2 * m))
        coeffs[exps] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return Poly(m, coeffs)


class TestArithmetic:
    def test_additive_inverse(self):
        assert (x(1) + (-x(1))).is_zero()

    def test_like_term_collection(self):
        assert x(1) + y(2) + x(1) == 2 * x(1) + y(2)

    def test_add_symmetry(self):
        assert ((x(1) - x(2)) + (x(2) - x(1))).is_zero()

    def test_distributivity_example(self):
        lhs = (y(1) + y(2)) * (x(1) - x(2))
        rhs = x(1) * y(1) + x(1) * y(2) - x(2) * y(1) - x(2) * y(2)
        assert lhs == rhs

    def test_mul_identity(self):
        p = x(1) ** 2 - y(2) * Fraction(1, 3)
        assert Poly.one(2) * p == p

    def test_binomial_square(self):
        assert (x(1) - x(2)) ** 2 == x(1) ** 2 - 2 * x(1) * x(2) + x(2) ** 2

    def test_mismatched_ambient_rejected(self):
        with pytest.raises(ValueError):
            Poly.x(2, 1) + Poly.x(3, 1)
        with pytest.raises(ValueError):
            Poly.x(2, 1) * Poly.x(3, 1)

    def test_ring_properties_random(self):
        # commutative, associative, distributive: >= 1000 random cases
        rng = random.Random(20240517)
        for _ in range(1000):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_canonical_form_is_stable(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_poly(rng)
            assert Poly(p.m, dict(p.coeffs)) == p
            for c in p.coeffs.values():
                assert c != 0
                assert c.denominator > 0  # Fraction keeps reduced canonical form

    @pytest.mark.parametrize("cls", [Poly, WeylOp])
    def test_a_combination_meets_only_combinations(self, cls):
        # sums and equality take a combination of the same class; a scalar
        # enters only through scalar multiplication
        p = cls.constant(2, 3)
        assert p != 3 and not p == 3
        assert p == 3 * cls.one(2)
        for op in (lambda: p + 1, lambda: 1 - p, lambda: hash(p)):
            with pytest.raises(TypeError):
                op()


class TestDerivative:
    def test_product_of_distinct_variables(self):
        assert (y(1) * y(2)).derivative(2) == y(2)

    def test_absent_variable(self):
        assert (y(2) ** 3).derivative(0).is_zero()

    def test_power_rule_exact(self):
        p = y(1) ** 3 * Fraction(1, 6)
        assert p.derivative(2) == y(1) ** 2 * Fraction(1, 2)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            x(1).derivative(4)
        with pytest.raises(ValueError):
            x(1).derivative(-1)


class TestBidegree:
    def test_monomial_bidegree(self):
        # x1^2 y1 y2: 4 symbols total, two of them y
        assert monomial_bidegree((2, 0, 1, 1), 2) == (4, 4)

    def test_additivity_on_homogeneous(self):
        rng = random.Random(99)
        for _ in range(300):
            n1, j1 = rng.randrange(4), rng.randrange(3)
            n2, j2 = rng.randrange(4), rng.randrange(3)
            p = _random_homogeneous(rng, n1 + j1, j1)
            q = _random_homogeneous(rng, n2 + j2, j2)
            if p.is_zero() or q.is_zero() or (p * q).is_zero():
                continue
            bn, bd = (p * q).bidegree()
            assert (bn, bd) == (n1 + j1 + n2 + j2, 2 * (j1 + j2))

    def test_inhomogeneous_raises(self):
        with pytest.raises(ValueError):
            (x(1) + x(1) ** 2).bidegree()


def _random_homogeneous(rng, n, j):
    """Random element with all monomials of bidegree (n, 2j)."""
    coeffs = {}
    for _ in range(3):
        b1 = rng.randrange(j + 1)
        a1 = rng.randrange(n - j + 1)
        coeffs[(a1, n - j - a1, b1, j - b1)] = Fraction(rng.randrange(-3, 4))
    return Poly(2, coeffs)


class TestSpanSolve:
    def test_member(self):
        assert span_solve([x(1) - x(2)], x(1) - x(2)) == [1]

    def test_independent_vector(self):
        assert span_solve([x(1) - x(2)], x(1) + x(2)) is None

    def test_two_generators(self):
        # x1^2 - x2^2 = 1*(x1(x1-x2)) + 1*(x2(x1-x2)), checked by hand:
        # x1^2 - x1 x2 + x1 x2 - x2^2
        gens = [x(1) * (x(1) - x(2)), x(2) * (x(1) - x(2))]
        assert span_solve(gens, x(1) ** 2 - x(2) ** 2) == [1, 1]

    def test_solution_reproduces_target(self):
        rng = random.Random(3)
        for _ in range(100):
            gens = [_random_homogeneous(rng, 3, 1) for _ in range(3)]
            combo = sum(
                (g * Fraction(rng.randrange(-3, 4)) for g in gens), Poly.zero(2)
            )
            sol = span_solve(gens, combo)
            assert sol is not None
            rebuilt = sum((g * c for g, c in zip(gens, sol)), Poly.zero(2))
            assert rebuilt == combo

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            span_solve([x(1) + x(1) ** 2], x(1))
        with pytest.raises(ValueError):
            span_solve([x(1)], y(1))  # different bidegrees


class TestLinearAlgebra:
    def test_identity_injective(self):
        assert kernel_basis([{i: 1} for i in range(3)], 3) == []

    def test_zero_matrix_full_kernel(self):
        assert len(kernel_basis([{}, {}], 2)) == 2

    def test_rank_one_symmetric(self):
        vecs = kernel_basis([{0: 1, 1: 1}, {0: 1, 1: 1}], 2)
        assert len(vecs) == 1
        v = vecs[0]
        assert v[0] == -v[1] != 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(200):
            rows = [
                [Fraction(rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 5))]
            ]
            ncols = len(rows[0])
            for _ in range(rng.randrange(4)):
                rows.append([Fraction(rng.randrange(-4, 5)) for _ in range(ncols)])
            mat = [{c: v for c, v in enumerate(row) if v} for row in rows]
            kernel = kernel_basis(mat, ncols)
            assert rank(mat, ncols) + len(kernel) == ncols
            for v in kernel:
                for row in mat:
                    assert sum(a * v[c] for c, a in row.items()) == 0

    def test_rref_pivots_are_unit_columns(self):
        red, pivots = rref([{0: 2, 1: 4, 2: 1}, {0: 1, 1: 2}, {2: Fraction(3)}])
        for r, pc in enumerate(pivots):
            col = [row.get(pc, 0) for row in red]
            assert col[r] == 1 and all(c == 0 for i, c in enumerate(col) if i != r)

    def test_solve_columns_inconsistent(self):
        assert solve_columns([{0: 1}, {}], {1: 1}) is None


class TestRendering:
    def test_sorted_by_graded_lex(self):
        p = x(2) + x(1) ** 2 + y(1)
        assert str(p) == "x1^2 + x2 + y1"

    def test_fraction_rendering(self):
        p = x(1) * Fraction(-1, 2) + Poly.constant(2, Fraction(3))
        assert str(p) == "-1/2*x1 + 3"

    def test_frac_str(self):
        # an int or a whole Fraction prints as p, any other Fraction as p/q
        for c, text in ((Fraction(-1, 2), "-1/2"), (Fraction(10), "10"), (-7, "-7"), (True, "1"), (0, "0"), (False, "0")):
            assert str(Poly.constant(2, c)) == text
        assert str(x(2) * Fraction(2, 3) - y(1) * True) == "2/3*x2 - y1"

    def test_zero(self):
        assert str(Poly.zero(2)) == "0"


class TestCoefficientTypes:
    def test_int_kept_and_inexact_input_made_fraction(self):
        key = (1, 0, 0, 0, 0, 0, 0, 0)
        x1 = (1, 0, 0, 0)
        for c, kind in ((3, int), (Fraction(1, 3), Fraction), (0.5, Fraction), ("2/3", Fraction)):
            stored = [
                Poly(2, {x1: c}).coeffs[x1],
                (Poly.x(2, 1) * c).coeffs[x1],
                WeylOp(2, {key: c}).coeffs[key],
                (WeylOp(2, {key: 1}) * c).coeffs[key],
            ]
            assert all(type(v) is kind and v == Fraction(c) for v in stored), (c, stored)

    def test_int_and_fraction_pass_through_as_they_are(self):
        half = Fraction(1, 2)
        assert as_exact(True) is True and as_exact(half) is half

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Poly(2, {(1, 0, 0): 1}),  # three exponents at m = 2
            lambda: Poly(2, {(1, 0, 0, -1): 1}),
            lambda: Poly.x(2, 3),  # 1-based index past m
            lambda: Poly.y(2, 0),
            lambda: WeylOp(2, {(1, 0, 0, 0, 0, 0, 0): 1}),  # seven exponents at m = 2
            lambda: WeylOp(2, {(0, 0, 0, 0, 0, -1, 0, 0): 1}),
            lambda: WeylOp(2, {((1, 0), (0, 0), (0, 0), (0, 0)): 1}),  # the nested form
            lambda: WeylOp.dy(2, 3),
            lambda: WeylOp(0),  # no ambient components
            lambda: WeylOp(1, {((1,), (0,), (0,), (0,)): 1}),  # nested, of the right length
            lambda: Poly(1, {((1,), (0,)): 1}),
            lambda: Poly(1, {(1.5, 0): 1}),  # exponents are ints
            lambda: Poly(1, {("1", 0): 1}),
            lambda: Poly(1, {(True, 0): 1}),  # bool is not an exponent
        ],
    )
    def test_bad_key_rejected(self, build):
        with pytest.raises(ValueError):
            build()


# The key format and the arithmetic every sparse combination shares, written
# once on exact.Combination; the subclasses add only their prefixes and
# products.
SHARED_ARITHMETIC = {
    "__init__", "_plus", "__add__", "__sub__", "__neg__", "__mul__", "__pow__",
    "__eq__", "is_zero", "zero", "constant", "one",
    "_key", "_unit", "_single", "monomial", "var_names", "__str__",
}


def class_members(package: Path) -> dict:
    """Class name -> (base names, names bound in the class body)."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names.add(item.name)
                    elif isinstance(item, ast.Assign):
                        names |= {t.id for t in item.targets if isinstance(t, ast.Name)}
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                found[node.name] = (bases, names)
    return found


def test_combination_arithmetic_is_written_once():
    classes = class_members(Path(nodehilb.__file__).parent)
    assert SHARED_ARITHMETIC <= classes["Combination"][1]
    assert {name for name, (bases, _) in classes.items() if "Combination" in bases} == {"Poly", "WeylOp"}
    for name in ("Poly", "WeylOp"):
        bases, names = classes[name]
        assert bases == {"Combination"}, name
        assert not names & SHARED_ARITHMETIC, (name, names & SHARED_ARITHMETIC)


# Where a coefficient may become a Fraction: a division, or the coercion of
# an inexact input.  Everything else in the package computes on int.
FRACTION_SITES = {
    ("exact.py", "as_exact"),
    ("exact.py", "rref"),
    ("exact.py", "kernel_basis"),
    ("nodemodule.py", "fundamental_class"),
}


def fraction_uses(path: Path) -> tuple[set, set]:
    """Where ``path`` calls ``Fraction(...)`` and where it imports ``fractions``.

    Each is a set of (file, innermost enclosing function); an import in the
    body of ``if TYPE_CHECKING:`` is placed in "TYPE_CHECKING" instead.
    """
    calls, imports = set(), set()

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            func = "TYPE_CHECKING"
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "Fraction":
                calls.add((path.name, func))
        if isinstance(node, ast.ImportFrom) and node.module == "fractions" or (
            isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
        ):
            imports.add((path.name, func))
        for child in ast.iter_child_nodes(node):
            walk(child, func)

    walk(ast.parse(path.read_text()), None)
    return calls, imports


def test_fraction_is_built_only_at_division_sites():
    package = Path(nodehilb.__file__).parent
    uses = [fraction_uses(p) for p in sorted(package.glob("*.py"))]
    assert set().union(*(calls for calls, _ in uses)) == FRACTION_SITES
    # fractions (and the decimal it loads) is imported only where a Fraction is built
    imports = set().union(*(found for _, found in uses))
    assert {(file, func) for file, func in imports if func != "TYPE_CHECKING"} == FRACTION_SITES
