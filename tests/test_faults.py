"""Negative controls: a deliberately broken model must turn its suite red.

Each test breaks one piece of the model with ``monkeypatch`` and asserts
that the matching ``verify`` suite exits 1 with a failure that names where
the fault shows.
"""

import json

from nodehilb import geometry, nodemodule
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
