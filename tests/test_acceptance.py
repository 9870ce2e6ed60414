"""Acceptance suite: one test per exit criterion, exact tolerances, timed.

Each test prints a single PASS line on success (run pytest -s to see them);
everything is exact rational arithmetic, so tolerances are zero throughout.
"""

import random
import time
from fractions import Fraction

from nodehilb import nodemodule, series
from nodehilb.cli import main
from nodehilb.exact import Poly
from nodehilb.geometry import CohElem, kernel_intersection, top_zeta_class
from nodehilb.weyl import WeylOp, commutator, generators, verify_relations
from oracles import u_preservation_checks

KNOWN_TABLE = "1\n1 2\n1 3 3\n1 4 5 4\n1 5 7 7 5\n1 6 9 10 9 6\n"


def report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_01_betti_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(["betti", "--n-max", "5"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == KNOWN_TABLE
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "betti table matches the six known rows exactly")


def test_02_triple_series_identity():
    start = time.perf_counter()
    closed = series.closed_form_pv(30)
    ok_mv, where_mv = series.series_equal(closed, series.mv_pv(30))
    ok_paving, where_paving = series.series_equal(closed, series.paving_pv(30))
    elapsed = time.perf_counter() - start
    assert ok_mv, where_mv
    assert ok_paving, where_paving
    assert elapsed < 1.0
    report(2, "closed form = inclusion-exclusion = paving to order 30")


def test_03_module_series_identity():
    start = time.perf_counter()
    diff = series.module_pv(30)
    ok, where = series.series_equal(diff, series.closed_form_pv(30))
    assert ok, where
    ambient = series.ambient_module_pv(30)
    sub = series.submodule_pv(30)
    for n in range(16):
        for j in range(n + 1):
            d = 2 * j
            assert ambient[n][j] == nodemodule.dim_ambient(n, d)
            assert sub[n][j] == nodemodule.dim_submodule(n, d)
            assert diff[n][j] == nodemodule.dim_piece(n, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "ambient minus submodule series, enumerated to n=15")


def test_04_relation_suite():
    start = time.perf_counter()
    for m in range(1, 6):
        checks = verify_relations(m)
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    matrix_checks = nodemodule.relation_matrix_checks(10)
    bad = [c for c in matrix_checks if not c.ok]
    assert not bad, bad
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, "operator relations at m=1..5 and as matrices on pieces n<=10")


def test_05_generation_by_fundamental_classes():
    start = time.perf_counter()
    checks = nodemodule.generation_checks(10)
    bad = [c for c in checks if not c.ok]
    assert not bad, bad
    assert len(checks) == 66  # all pairs n <= K <= 10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "translates of fundamental classes span every row piece to 10")


def test_06_per_component_kernels():
    # The joint kernel in each middle component is the span of the single
    # top zeta basis class (exponents n-k-1 and k-1 per the basis ranges; at
    # n = 2k this is literally zeta a^(k-1) b^(n-k-1)), and zero at the ends.
    for n in range(2, 9):
        kernels = kernel_intersection(n)
        for k in range(n + 1):
            vecs = kernels[k]
            if k in (0, n):
                assert vecs == []
                continue
            assert top_zeta_class(n, k) == CohElem(n, k, "zeta", n - k - 1, k - 1)
            assert vecs == [top_zeta_class(n, k)]
    report(6, "joint pullback kernels are the top zeta classes, 2<=n<=8")


def test_07_no_extension_witness():
    witness = nodemodule.no_extension_witness()
    assert witness["witness_found"]
    u = Poly.x(2, 1) - Poly.x(2, 2)
    assert not nodemodule.reduce_poly(Poly.y(2, 1) * u, (2, 2)).is_zero()
    report(7, "y1 alone does not preserve the submodule")


def test_08_freeness_injectivity():
    checks = nodemodule.injectivity_checks(10)
    bad = [c for c in checks if not c.ok]
    assert not bad, bad
    report(8, "x1, x2 and y1+y2 act injectively on all pieces n<=10")


def test_09_property_suites():
    rng = random.Random(987654321)

    def random_word(m, max_len=3):
        syms = ("x", "y", "dx", "dy")
        return [(rng.choice(syms), rng.randrange(1, m + 1)) for _ in range(rng.randrange(max_len + 1))]

    def random_op(m):
        builders = {"x": WeylOp.x, "y": WeylOp.y, "dx": WeylOp.dx, "dy": WeylOp.dy}
        op = WeylOp.zero(m)
        for _ in range(rng.randrange(1, 3)):
            term = WeylOp.one(m)
            for sym, i in random_word(m):
                term = term * builders[sym](m, i)
            op = op + term * Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
        return op

    def random_poly(m):
        coeffs = {}
        for _ in range(rng.randrange(4)):
            exps = tuple(rng.randrange(3) for _ in range(2 * m))
            coeffs[exps] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
        return Poly(m, coeffs)

    for _ in range(500):
        m = rng.choice((1, 2))
        a, b, c = random_op(m), random_op(m), random_op(m)
        assert (a * b) * c == a * (b * c)
        jacobi = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert jacobi.is_zero()

    for _ in range(500):
        m = rng.choice((1, 2))
        a, b = random_op(m), random_op(m)
        p = random_poly(m)
        assert (a * b).act(p) == a.act(b.act(p))

    results = u_preservation_checks(100, rng)
    assert len(results) == 100 * len(generators(2))
    assert all(results)
    report(9, "associativity/Jacobi, module action, submodule preservation")
