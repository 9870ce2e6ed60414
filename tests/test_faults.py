"""Negative controls: a deliberately broken model must turn its suite red.

Each test breaks one piece of the model with ``monkeypatch`` and asserts
that the matching ``verify`` suite exits 1 with a failure that names where
the fault shows.
"""

import json

import pytest

from nodehilb import exact, geometry, nodemodule, series, weyl
from nodehilb.cli import main
from nodehilb.exact import Poly
from nodehilb.weyl import Generator
from conftest import clear_node_caches


def verify(capsys, *argv):
    code = main(["verify", *argv])
    return code, json.loads(capsys.readouterr().out)["reports"][0]


def failures_of(report, check):
    (entry,) = [c for c in report["checks"] if c["check"] == check]
    assert entry["status"] == "fail"
    return entry["failures"]


@pytest.fixture
def fresh_caches():
    """Empty the piece and column caches around a test that breaks the normal form.

    Otherwise columns cached by earlier tests would hide the fault, and the
    broken columns would leak into later tests.
    """
    clear_node_caches()
    yield
    clear_node_caches()


def series_check(report, check):
    (entry,) = [c for c in report["checks"] if c["check"] == check]
    return entry


def test_series_suite_catches_a_sign_flip_in_the_closed_form(capsys, monkeypatch):
    # numerator q^2 t^2 + q + 1: the q^1 row of the closed form is off by 2
    num, q_factors, qt2_factors = series.closed_form()
    flipped = (num | {(1, 0): 1}, q_factors, qt2_factors)
    monkeypatch.setattr(series, "closed_form", lambda: flipped)
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and report["status"] == "fail"
    for label in ("mayer-vietoris", "paving"):
        entry = series_check(report, f"closed-form-equals-{label}")
        assert entry["status"] == "fail" and entry["first_difference"] == [1, 0]


def test_series_suite_catches_a_division_one_factor_short(capsys, monkeypatch):
    # every expansion divides by one 1-q t^2 too few.  Routes that share
    # expand do not check each other: the closed form and ambient minus
    # submodule lose the same factor and still agree.  The Mayer-Vietoris
    # route, the paving count and the enumerated dimensions share no division.
    real = series.expand
    monkeypatch.setattr(series, "expand", lambda num, order, q, qt2: real(num, order, q, qt2 - 1))
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and report["status"] == "fail"
    for label in ("mayer-vietoris", "paving"):
        entry = series_check(report, f"closed-form-equals-{label}")
        assert entry["status"] == "fail" and entry["first_difference"] == [1, 1]
    first_two = [["ambient", 1, 1, "1", 2], ["quotient", 1, 1, "1", 2]]
    assert enumeration_mismatches(report)[:2] == first_two


def test_series_suite_catches_a_missing_exceptional_divisor(capsys, monkeypatch):
    # components as the bare products P^(n-k) x P^k: the first one with an
    # exceptional divisor is n = 2, k = 1, which loses its t^2 class
    def product_only(acc, n, k):
        return series._add_box(acc, n - k + 1, k + 1)

    monkeypatch.setattr(series, "_component_masses", product_only)
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and report["status"] == "fail"
    failed = [c["check"] for c in report["checks"] if c["status"] == "fail"]
    assert failed == ["closed-form-equals-mayer-vietoris"]
    assert series_check(report, "closed-form-equals-mayer-vietoris")["first_difference"] == [2, 1]


def test_a_row_one_coefficient_short_is_a_named_difference(capsys, monkeypatch):
    # row 5 loses its top coefficient: the entry that only one side holds is
    # a difference, not the end of the comparison, and each command names it
    def short_row_five(make):
        def short(order):
            s = make(order)
            s[5].pop()
            return s

        return short

    monkeypatch.setattr(series, "mv_pv", short_row_five(series.mv_pv))
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and report["status"] == "fail"
    failed = [c["check"] for c in report["checks"] if c["status"] == "fail"]
    assert failed == ["closed-form-equals-mayer-vietoris"]
    assert series_check(report, "closed-form-equals-mayer-vietoris")["first_difference"] == [5, 5]

    monkeypatch.setattr(nodemodule, "betti_table", short_row_five(nodemodule.betti_table))
    code = main(["betti", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out.splitlines()[5] == "1 6 9 10 9"
    assert captured.err == "error: betti n=5 j=5: enumerated missing, closed form 6\n"

    real_row = series.paving_row
    monkeypatch.setattr(series, "paving_row", lambda n: real_row(n)[:n])
    code = main(["paving", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out.splitlines()[-1] == "census: 1 5 7 7 5"
    assert captured.err == "error: paving n=4 dim=4: enumerated 5, counted missing\n"


def test_kernel_suite_catches_equal_pullbacks(capsys, monkeypatch):
    # adding a point on the second branch now keeps the component index, so
    # the last component k = n has no restriction target and its whole
    # cohomology below the top degree lies in the joint kernel
    monkeypatch.setattr(geometry, "pullback_x2", geometry.pullback_x1)
    code, report = verify(capsys, "kernel", "--n-max", "6")
    assert code == 1 and report["status"] == "fail"
    located = {(f["n"], f["k"]) for f in report["failures"]}
    assert (6, 6) in located and (2, 2) in located


def test_kernel_suite_catches_zeta_classes_pulled_back_to_zero(capsys, monkeypatch):
    # every zeta class restricts to 0, so on each middle component the whole
    # zeta block below the top degree joins the kernel; at n = 2 the top
    # zeta class is the only one, and the first failure is (3, 1)
    real = geometry._moved
    monkeypatch.setattr(geometry, "_moved", lambda e, new_k: None if e.kind == "zeta" else real(e, new_k))
    code, report = verify(capsys, "kernel", "--n-max", "6")
    assert code == 1 and report["status"] == "fail"
    assert report["failures"][0] == {"n": 3, "k": 1, "got": ["zeta", "zeta*a"]}
    assert len(report["failures"]) == 14  # 1 <= k <= n-1 for n = 3..6
    # the kernel is then the whole zeta block a^i b^j, i < n-k, j < k
    assert all(len(f["got"]) == (f["n"] - f["k"]) * f["k"] for f in report["failures"])


def test_kernel_suite_catches_two_classes_pulled_back_to_one(capsys, monkeypatch):
    # b^j dropped before the move: 1 and b on component (2, 1) both land on
    # 1@M(1,1) under x1, so that row has two entries and the read-off of the
    # kernel no longer holds; every level n >= 2 has such a pair
    real = geometry._moved
    monkeypatch.setattr(
        geometry, "_moved", lambda e, new_k: real(geometry.CohElem(e.n, e.k, e.kind, e.i, 0), new_k)
    )
    code, report = verify(capsys, "kernel", "--n-max", "6")
    assert code == 1 and report["status"] == "fail"
    assert report["failures"][0] == {
        "n": 2,
        "k": 1,
        "pullback": "x1",
        "hit_twice": "1@M(1,1)",
        "by": ["1@M(2,1)", "b@M(2,1)"],
    }
    assert [f["n"] for f in report["failures"]] == [2, 3, 4, 5, 6]
    assert all(f["hit_twice"].endswith(f"@M({f['n'] - 1},{f['k']})") for f in report["failures"])
    assert main(["kernel", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: component (3, ")


def test_node_suite_catches_a_lost_x1_column(capsys, monkeypatch, ranked):
    # the empty column has no lead, so this piece alone falls back to rank
    real = nodemodule.operator_columns

    def broken(g, n, d):
        cols = real(g, n, d)
        if g == Generator("x", 1) and (n, d) == (3, 2):
            return ((),) + cols[1:]
        return cols

    monkeypatch.setattr(nodemodule, "operator_columns", broken)
    code, report = verify(capsys, "node", "--n-max", "4")
    assert code == 1
    assert failures_of(report, "multiplication-injectivity") == [
        {"name": "mult-by-x1-injective", "n": 3, "d": 2}
    ]
    assert len(ranked) == 1 and ranked[0][0] == {}


def test_node_suite_catches_a_missing_fundamental_class(capsys, monkeypatch, fresh_caches, ranked):
    # every monomial ending y1 y2 reduced to 0: the translates of the class
    # y1 y2 of row 2 vanish, and the other checks reduce no such monomial;
    # the leads of row 2 no longer cover its pieces, which fall back to rank
    real = nodemodule._normal_form

    def dropped(e):
        return [] if e[2:] == (1, 1) else real(e)

    monkeypatch.setattr(nodemodule, "_normal_form", dropped)
    code, report = verify(capsys, "node", "--n-max", "4")
    assert code == 1
    failures = failures_of(report, "generation-by-fundamental-classes")
    assert {"points": 2, "row": 2, "rank": 2, "dim": 3} in failures
    assert all(f["row"] == 2 and f["rank"] < f["dim"] for f in failures)
    assert len(ranked) == len(failures) == 3


def test_node_suite_catches_a_normal_form_without_its_sum(capsys, monkeypatch, fresh_caches):
    # x1^A x2^B y1^C rewritten to x2^(A+B) y1^C alone: no longer a coset member
    real = nodemodule._normal_form

    def truncated(e):
        if nodemodule._is_pivot(e):
            a, b, s, _ = e
            return [((0, a + b, s, 0), 1)]
        return real(e)

    monkeypatch.setattr(nodemodule, "_normal_form", truncated)
    code, report = verify(capsys, "node", "--n-max", "6")
    assert code == 1
    failures = failures_of(report, "relation-matrices")
    assert {"name": "[x1,mu+]=0", "n": 0, "d": 0} in failures
    assert all(0 <= f["n"] <= 6 and 0 <= f["d"] <= 2 * f["n"] for f in failures)


def test_node_suite_catches_a_miscounted_mu_minus_image(capsys, monkeypatch, fresh_caches):
    # mu- = dx1 + dx2 read off with a2 + 1 instead of a2 on its x2 term, the
    # first entry of each column whose basis monomial has a2 >= 1
    real = nodemodule._read_off

    def miscounted(g, src, row):
        cols = real(g, src, row)
        if g != Generator("mu-"):
            return cols
        return tuple(
            ((col[0][0], col[0][1] + 1),) + col[1:] if e[1] else col for e, col in zip(src, cols)
        )

    monkeypatch.setattr(nodemodule, "_read_off", miscounted)
    code, report = verify(capsys, "node", "--n-max", "6")
    assert code == 1
    failures = failures_of(report, "relation-matrices")
    assert {"name": "[mu-,x1]=id", "n": 1, "d": 2} in failures
    assert all(0 <= f["n"] <= 6 and 0 <= f["d"] <= 2 * f["n"] for f in failures)


def miscount_read_off_on_one_piece(monkeypatch, g, entry=lambda c: c + 1):
    """Change the first entry of the first nonzero column of g on the (2, 2) piece.

    By default it becomes one too large.
    """
    real = nodemodule._read_off

    def miscounted(h, src, row):
        cols = real(h, src, row)
        if h != g or src != nodemodule.piece_data(2, 2):
            return cols
        k = next(k for k, col in enumerate(cols) if col)
        (i, c), *rest = cols[k]
        return cols[:k] + (((i, entry(c)), *rest),) + cols[k + 1 :]

    monkeypatch.setattr(nodemodule, "_read_off", miscounted)


MISCOUNTED = [
    (Generator("x", 1), "[x1,mu+]=0"),
    (Generator("x", 2), "[x2,mu+]=0"),
    (Generator("d", 1), "[d1,mu+]=id"),
    (Generator("d", 2), "[d2,mu+]=id"),
    (Generator("mu+"), "[mu+,mu-]=0"),
    (Generator("mu-"), "[mu-,x1]=id"),
]


@pytest.mark.parametrize("g, expected", MISCOUNTED, ids=str)
def test_node_suite_catches_a_read_off_miscounted_on_one_piece(
    capsys, monkeypatch, fresh_caches, g, expected
):
    # only relations through the miscounted generator can see the fault
    miscount_read_off_on_one_piece(monkeypatch, g)
    code, report = verify(capsys, "node", "--n-max", "4")
    assert code == 1 and only_failing_check(report) == "relation-matrices"
    failures = failures_of(report, "relation-matrices")
    assert {"name": expected, "n": 2, "d": 2} in failures
    assert all(str(g) in f["name"] for f in failures)


def test_node_suite_reports_a_zeroed_entry_instead_of_crashing(capsys, monkeypatch, fresh_caches):
    # a stored zero makes a zero product in the commutator, which must fall
    # through as a failure like any other wrong entry
    miscount_read_off_on_one_piece(monkeypatch, Generator("x", 1), entry=lambda c: 0)
    code, report = verify(capsys, "node", "--n-max", "4")
    assert code == 1
    assert {"name": "[x1,mu+]=0", "n": 2, "d": 2} in failures_of(report, "relation-matrices")


@pytest.mark.parametrize("g", [None] + [g for g, _ in MISCOUNTED], ids=str)
def test_settled_relation_entries_equal_their_commutators(monkeypatch, fresh_caches, g):
    # [a, a] = 0 and the reversed [b, a] = 0 are settled without a commutator
    # of their own; on the clean model and under each miscount, every such
    # verdict must be what computing that very commutator would give
    if g is not None:
        miscount_read_off_on_one_piece(monkeypatch, g)
    relations = {f"[{r.a},{r.b}]=0": (r.a, r.b) for r in weyl.defining_relations(2) if not r.ident}
    pairs = list(relations.values())
    settled = [
        name for k, (name, (a, b)) in enumerate(relations.items()) if a == b or (b, a) in pairs[:k]
    ]
    assert len(settled) == 6
    verdicts = []
    for check in nodemodule.relation_matrix_checks(4):
        if check.name in settled:
            a, b = relations[check.name]
            cols = nodemodule.commutator_columns(a, b, check.n, check.d)
            assert check.ok == (not any(cols)), check
            verdicts.append(check.ok)
    assert len(verdicts) == 6 * 15
    # a miscount of x_i or d_i must fail a reversed pair, so not all pass
    assert all(verdicts) == (g is None or g.kind.startswith("mu"))


def test_a_smallest_row_certificate_falls_back_on_the_x1_pieces_it_cannot_decide(monkeypatch, ranked):
    # the smallest row of a column is its largest monomial, which is no
    # certificate: x1 sends the pivot image (1, A, j, 0) through its normal
    # form, whose first term (1, A, j-1, 1) is also x1 of (0, A, j-1, 1), so
    # every x1 piece with j >= 1 repeats a row and must fall back to rank
    monkeypatch.setattr(nodemodule, "_leads", lambda vecs: {v[0][0] for v in vecs if v and v[0][1]})
    x1 = Generator("x", 1)
    undecided = [(n, 2 * j) for n in range(11) for j in range(1, n + 1)]
    inj = nodemodule.injectivity_checks(10)
    assert ranked == [[dict(col) for col in nodemodule.operator_columns(x1, n, d)] for n, d in undecided]
    gen = nodemodule.generation_checks(10)
    assert len(ranked) == len(undecided) == 55
    assert all(c.ok for c in inj + gen)


def only_failing_check(report):
    (failed,) = [c["check"] for c in report["checks"] if c["status"] != "pass"]
    return failed


def test_node_suite_catches_a_wrong_dimension(capsys, monkeypatch):
    real = nodemodule.dim_piece
    monkeypatch.setattr(nodemodule, "dim_piece", lambda n, d: real(n, d) + ((n, d) == (3, 2)))
    code, report = verify(capsys, "node", "--n-max", "6")
    assert code == 1
    assert only_failing_check(report) == "dimension-table-matches-closed-form"


def test_node_suite_catches_a_lost_second_branch(capsys, monkeypatch):
    # every y_i is y1: y2 (x1 - x2) no longer differs from y1 (x1 - x2), and
    # (y1 + y2)(x1 - x2) = 2 y1 (x1 - x2) leaves U
    monkeypatch.setattr(Poly, "y", classmethod(lambda cls, m, i: cls.variable(m, m)))
    code, report = verify(capsys, "node", "--n-max", "6")
    assert code == 1
    assert only_failing_check(report) == "no-extension-witness"


def test_node_suite_catches_a_rank_that_stops_one_column_early(capsys, monkeypatch):
    # the early stop of exact.rank fires one pivot too soon, so a piece whose
    # translates span it all counts one short of its dimension; verify series
    # also ranks through exact.rank (dim_submodule), but U never has full
    # column rank in a piece -- every piece of the quotient is nonzero -- so
    # the stop is never reached there.  The certificates would decide every
    # piece without rank, so they decline here and every matrix is ranked
    monkeypatch.setattr(nodemodule, "_leads", lambda vecs: set())
    real = exact.rank
    monkeypatch.setattr(exact, "rank", lambda mat, ncols=None: real(mat, ncols - 1))
    code, report = verify(capsys, "node", "--n-max", "6")
    assert code == 1
    assert only_failing_check(report) == "generation-by-fundamental-classes"
    failures = failures_of(report, "generation-by-fundamental-classes")
    assert failures[0] == {"points": 1, "row": 1, "rank": 1, "dim": 2}
    assert all(f["rank"] == f["dim"] - 1 for f in failures)
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 0 and report["status"] == "pass"


def test_series_suite_catches_a_widened_pivot_rule(capsys, monkeypatch, fresh_caches):
    # y2-exponent <= 1 also counted as pivot: the enumerated basis shrinks,
    # while the rank of U's spanning rows does not
    monkeypatch.setattr(nodemodule, "_is_pivot", lambda e: e[0] >= 1 and e[3] <= 1)
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and report["status"] == "fail"
    (identity,) = [c for c in report["checks"] if c["check"] == "module-series-identity"]
    (enumerated,) = [
        c for c in identity["detail"] if c["check"].startswith("series-match-enumerated-dimensions")
    ]
    assert enumerated["status"] == "fail"
    assert ["quotient", 2, 1, "3", 2] in enumerated["mismatches"]
    assert all(m[0] == "quotient" for m in enumerated["mismatches"])


def test_relations_suite_catches_a_product_without_its_rewriting_terms(capsys, monkeypatch):
    # du*u -> u*du with the "+ 1" dropped: every j >= 1 term of the closed
    # form lowers the position exponents, so keep only those that do not
    real = weyl._mono_mul

    def commuting(k1, k2, m):
        n = 2 * m  # the position exponents come first
        for key, c in real(k1, k2, m):
            if sum(key[:n]) == sum(k1[:n]) + sum(k2[:n]):
                yield key, c

    monkeypatch.setattr(weyl, "_mono_mul", commuting)
    code, report = verify(capsys, "relations", "--m", "2")
    assert code == 1 and report["status"] == "fail"
    assert {(f["family"], f["i"], f["got"]) for f in report["failures"]} == {
        ("[d_i,mu+]=1", 1, "0"),
        ("[d_i,mu+]=1", 2, "0"),
        ("[mu-,x_i]=1", 1, "0"),
        ("[mu-,x_i]=1", 2, "0"),
    }


def test_relations_suite_catches_a_product_that_pairs_the_wrong_slots(capsys, monkeypatch):
    # dx_i meets y_i and dy_i meets x_i: the correct product with the x and y
    # blocks of every key swapped on the way in and out
    real = weyl._mono_mul

    def swap(key, m):
        return key[m : 2 * m] + key[:m] + key[2 * m :]

    def crossed(k1, k2, m):
        for key, c in real(swap(k1, m), swap(k2, m), m):
            yield swap(key, m), c

    monkeypatch.setattr(weyl, "_mono_mul", crossed)
    code, report = verify(capsys, "relations", "--m", "2")
    assert code == 1 and report["status"] == "fail"
    # d_i = dy_i now meets x_i rather than mu+, and mu- = dx1 + dx2 meets mu+
    assert {(f["family"], f["i"], f["j"], f["got"]) for f in report["failures"]} == {
        ("[d_i,mu+]=1", 1, None, "0"),
        ("[d_i,mu+]=1", 2, None, "0"),
        ("[mu-,x_i]=1", 1, None, "0"),
        ("[mu-,x_i]=1", 2, None, "0"),
        ("[d_i,x_j]=0", 1, 1, "1"),
        ("[d_i,x_j]=0", 2, 2, "1"),
        ("[mu+,mu-]=0", None, None, "-2"),
    }


def test_series_suite_catches_a_punctual_chain_one_line_too_long(capsys, monkeypatch):
    # c line cells per pair (a, b) instead of c-1: the stratum whose line
    # cells have dimension j >= 1 has j pairs, so j more cells there.  Only
    # the paving route counts the strata, and the first such cell is at q^1
    real = series.paving_row
    monkeypatch.setattr(series, "paving_row", lambda n: [v + j for j, v in enumerate(real(n))])
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and report["status"] == "fail"
    failed = [c["check"] for c in report["checks"] if c["status"] == "fail"]
    assert failed == ["closed-form-equals-paving"]
    assert series_check(report, "closed-form-equals-paving")["first_difference"] == [1, 1]


def test_paving_command_catches_line_cells_one_dimension_too_high(capsys, monkeypatch):
    # each affine line cell of the punctual chain counted one dimension too
    # high: at n = 3 the two line cells of the stratum c = 3 leave dimension
    # 1, so the enumerated census reads 2 there against the counted 4
    monkeypatch.setattr(geometry.PavingCell, "dim", property(lambda c: c.a + c.b + 2 * (c.d >= 1)))
    code = main(["paving", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out.splitlines()[-1] == "census: 1 2 5 6"
    assert captured.err == "error: paving n=3 dim=1: enumerated 2, counted 4\n"


def test_paving_command_names_a_cell_above_the_top_dimension(capsys, monkeypatch):
    # each affine line cell counted two dimensions too high: at n = 2 the line
    # cell of the stratum c = 2 lands at dimension 3, past the top of the
    # level.  The census grows a slot for it instead of failing to index it
    monkeypatch.setattr(geometry.PavingCell, "dim", property(lambda c: c.a + c.b + 3 * (c.d >= 1)))
    code = main(["paving", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out.splitlines()[-1] == "census: 1 2 3 1"
    assert captured.err == "error: paving n=2 dim=1: enumerated 2, counted 3\n"


def enumeration_mismatches(report):
    identity = series_check(report, "module-series-identity")
    assert identity["status"] == "fail"
    failed = [c for c in identity["detail"] if c["status"] == "fail"]
    assert [c["check"] for c in failed] == ["series-match-enumerated-dimensions-to-n=8"]
    return failed[0]["mismatches"]


@pytest.mark.parametrize(
    "counter, expected",
    [("dim_ambient", ["ambient", 3, 1, "6", 7]), ("dim_submodule", ["submodule", 3, 1, "2", 3])],
)
def test_series_suite_catches_a_miscounted_factor(capsys, monkeypatch, counter, expected):
    # one monomial or generator too many at (3, 2): the quotient count comes
    # from dim_piece, so only this factor's comparison with its series fails
    real = getattr(nodemodule, counter)
    monkeypatch.setattr(nodemodule, counter, lambda n, d: real(n, d) + ((n, d) == (3, 2)))
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and only_failing_check(report) == "module-series-identity"
    assert enumeration_mismatches(report) == [expected]


def test_series_suite_catches_a_quotient_series_wrong_past_the_enumeration(capsys, monkeypatch):
    # the submodule series cut off after q^15: the enumeration stops at
    # n = 15, so only the comparison with the closed form sees q^16
    real = series.submodule_pv

    def truncated(order):
        s = real(order)
        s[16:] = [[0] * (order + 1) for _ in s[16:]]
        return s

    monkeypatch.setattr(series, "submodule_pv", truncated)
    code, report = verify(capsys, "series", "--order", "20")
    assert code == 1 and only_failing_check(report) == "module-series-identity"
    detail = series_check(report, "module-series-identity")["detail"]
    assert [c["status"] for c in detail] == ["fail", "pass"]
    assert detail[0]["check"] == "ambient-minus-submodule-equals-closed-form"
    assert detail[0]["first_difference"] == [16, 0]


def test_series_suite_enumerates_up_to_its_bound(capsys, monkeypatch):
    # one class too many at (ENUMERATION_BOUND, 2): only the last row of the
    # enumeration sees it, so an enumeration stopping short would pass
    bound = series.ENUMERATION_BOUND
    real = nodemodule.dim_piece
    monkeypatch.setattr(nodemodule, "dim_piece", lambda n, d: real(n, d) + ((n, d) == (bound, 2)))
    code, report = verify(capsys, "series", "--order", "64")
    assert code == 1 and only_failing_check(report) == "module-series-identity"
    detail = series_check(report, "module-series-identity")["detail"]
    assert detail[1]["check"] == f"series-match-enumerated-dimensions-to-n={bound}"
    assert detail[1]["mismatches"] == [["quotient", bound, 1, str(real(bound, 2)), real(bound, 2) + 1]]


def test_relations_suite_catches_a_dy_built_as_dx(capsys, monkeypatch):
    # d_i = dy_i built as dx_i: [d_i, x_i] is 1 instead of 0, and [d_i, mu+]
    # is 0 instead of 1, since mu+ = y1 + y2 no longer meets a dy
    monkeypatch.setattr(weyl.WeylOp, "dy", classmethod(lambda cls, m, i: cls.dx(m, i)))
    code, report = verify(capsys, "relations", "--m", "2")
    assert code == 1 and report["status"] == "fail"
    assert {(f["family"], f["i"], f["j"], f["got"]) for f in report["failures"]} == {
        ("[d_i,x_j]=0", 1, 1, "1"),
        ("[d_i,x_j]=0", 2, 2, "1"),
        ("[d_i,mu+]=1", 1, None, "0"),
        ("[d_i,mu+]=1", 2, None, "0"),
    }


@pytest.mark.parametrize(
    "attr, fault, expected",
    [
        # mu+ = dx1 + dx2: it no longer commutes with x_i and no longer meets dy_i
        (
            "y",
            lambda real, cls, m, i: cls.dx(m, i),
            {
                ("[x_i,mu+]=0", 1, None, "-1"),
                ("[x_i,mu+]=0", 2, None, "-1"),
                ("[d_i,mu+]=1", 1, None, "0"),
                ("[d_i,mu+]=1", 2, None, "0"),
            },
        ),
        # mu- = dy1 + dy2: [y1 + y2, dy1 + dy2] = -2, and mu- no longer meets x_i
        (
            "dx",
            lambda real, cls, m, i: cls.dy(m, i),
            {
                ("[mu+,mu-]=0", None, None, "-2"),
                ("[mu-,x_i]=1", 1, None, "0"),
                ("[mu-,x_i]=1", 2, None, "0"),
            },
        ),
        # mu- = y1 + y2: [dy_i, y_i] = 1, and mu- no longer meets x_i
        (
            "dx",
            lambda real, cls, m, i: cls.y(m, i),
            {
                ("[d_i,mu-]=0", 1, None, "1"),
                ("[d_i,mu-]=0", 2, None, "1"),
                ("[mu-,x_i]=1", 1, None, "0"),
                ("[mu-,x_i]=1", 2, None, "0"),
            },
        ),
        # x1 + dx2: [x1, x2] = [dx2, x2] = 1, and every other family still holds
        (
            "x",
            lambda real, cls, m, i: real(m, i) + cls.dx(m, 2) if i == 1 else real(m, i),
            {("[x_i,x_j]=0", 1, 2, "1"), ("[x_i,x_j]=0", 2, 1, "-1")},
        ),
        # dy1 + y2: [d1, d2] = [y2, dy2] = -1, and every other family still holds
        (
            "dy",
            lambda real, cls, m, i: real(m, i) + cls.y(m, 2) if i == 1 else real(m, i),
            {("[d_i,d_j]=0", 1, 2, "-1"), ("[d_i,d_j]=0", 2, 1, "1")},
        ),
    ],
    ids=["y-as-dx", "dx-as-dy", "dx-as-y", "x1-plus-dx2", "dy1-plus-y2"],
)
def test_relations_suite_catches_a_broken_zero_family(capsys, monkeypatch, attr, fault, expected):
    real = getattr(weyl.WeylOp, attr)
    monkeypatch.setattr(weyl.WeylOp, attr, classmethod(lambda cls, m, i: fault(real, cls, m, i)))
    code, report = verify(capsys, "relations", "--m", "2")
    assert code == 1 and report["status"] == "fail"
    assert {(f["family"], f["i"], f["j"], f["got"]) for f in report["failures"]} == expected
    monkeypatch.undo()
    assert verify(capsys, "relations", "--m", "2")[0] == 0
