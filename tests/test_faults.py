"""Negative controls: a deliberately broken model must turn its suite red.

Each test breaks one piece of the model with ``monkeypatch`` and asserts
that the matching ``verify`` suite exits 1 with a failure that names where
the fault shows.
"""

import json

import pytest

from nodehilb import geometry, nodemodule, series
from nodehilb.cli import main
from nodehilb.exact import Poly
from nodehilb.weyl import Generator


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
    caches = (nodemodule.piece_data, nodemodule.operator_columns)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def series_check(report, check):
    (entry,) = [c for c in report["checks"] if c["check"] == check]
    return entry


def test_series_suite_catches_a_sign_flip_in_the_closed_form(capsys, monkeypatch):
    # numerator q^2 t^2 + q + 1: the q^1 row of the closed form is off by 2
    real = series.closed_form()
    flipped = series.RationalFunction2.make(dict(real.num) | {(1, 0): 1}, dict(real.den))
    monkeypatch.setattr(series, "closed_form", lambda: flipped)
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and report["status"] == "fail"
    for label in ("mayer-vietoris", "paving"):
        entry = series_check(report, f"closed-form-equals-{label}")
        assert entry["status"] == "fail" and entry["first_difference"] == [1, 0]


def test_series_suite_catches_a_missing_exceptional_divisor(capsys, monkeypatch):
    # components as the bare products P^(n-k) x P^k: the first one with an
    # exceptional divisor is n = 2, k = 1, which loses its t^2 class
    def product_only(n, k):
        return [sum(1 for u in range(n - k + 1) if 0 <= j - u <= k) for j in range(n + 1)]

    monkeypatch.setattr(series, "component_poincare", product_only)
    code, report = verify(capsys, "series", "--order", "8")
    assert code == 1 and report["status"] == "fail"
    failed = [c["check"] for c in report["checks"] if c["status"] == "fail"]
    assert failed == ["closed-form-equals-mayer-vietoris"]
    assert series_check(report, "closed-form-equals-mayer-vietoris")["first_difference"] == [2, 1]


def test_kernel_suite_catches_equal_pullbacks(capsys, monkeypatch):
    # adding a point on the second branch now keeps the component index, so
    # the last component k = n has no restriction target and its whole
    # cohomology below the top degree lies in the joint kernel
    monkeypatch.setattr(geometry, "pullback_x2", geometry.pullback_x1)
    code, report = verify(capsys, "kernel", "--n-max", "6")
    assert code == 1 and report["status"] == "fail"
    located = {(f["n"], f["k"]) for f in report["failures"]}
    assert (6, 6) in located and (2, 2) in located


def test_node_suite_catches_a_lost_x1_column(capsys, monkeypatch):
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


def test_node_suite_catches_a_missing_fundamental_class(capsys, monkeypatch):
    real = nodemodule.fundamental_class

    def dropped(n, k):
        if (n, k) == (2, 1):
            return nodemodule.NodeClass(Poly.zero(2), n, 2 * n)
        return real(n, k)

    monkeypatch.setattr(nodemodule, "fundamental_class", dropped)
    code, report = verify(capsys, "node", "--n-max", "4")
    assert code == 1
    failures = failures_of(report, "generation-by-fundamental-classes")
    assert {"points": 2, "row": 2, "rank": 2, "dim": 3} in failures
    assert all(f["row"] == 2 and f["rank"] < f["dim"] for f in failures)


def test_node_suite_catches_a_normal_form_without_its_sum(capsys, monkeypatch, fresh_caches):
    # x1^A x2^B y1^C rewritten to x2^(A+B) y1^C alone: no longer a coset member
    def truncated(p, grade=None):
        coeffs: dict = {}
        for e, c in p.coeffs.items():
            if nodemodule._is_pivot(e):
                a, b, s, _ = e
                e = (0, a + b, s, 0)
            coeffs[e] = coeffs.get(e, 0) + c
        return nodemodule.NodeClass(Poly(2, coeffs), *(p.bidegree() or grade))

    monkeypatch.setattr(nodemodule, "reduce_poly", truncated)
    code, report = verify(capsys, "node", "--n-max", "6")
    assert code == 1
    failures = failures_of(report, "relation-matrices")
    assert {"name": "[x1,mu+]=0", "n": 0, "d": 0} in failures
    assert all(0 <= f["n"] <= 6 and 0 <= f["d"] <= 2 * f["n"] for f in failures)


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
