"""The route table: which code each cross-check's routes may share, and its controls.

Two routes that share code do not check each other.  Each row of
``ROUTES`` is one check that ``verify``, ``betti`` or ``paving`` prints:
the entry definitions of each of its routes, the definitions the routes
may share with the reason each is allowed, and the ``tests/test_faults.py``
controls that turn the check red.  A check with one route is listed in
``SINGLE_ROUTE`` with its reason and controls instead.  Every printed
check has one or the other, so a new check, or a new route of an old one,
is a new entry here rather than a new guard.  ``callgraph.CallGraph``
reads what each route reaches.
"""

from __future__ import annotations

import ast
import json
import re
from itertools import combinations
from typing import NamedTuple

import pytest

import test_faults
from callgraph import PACKAGE, CallGraph
from nodehilb import cli
from nodehilb.cli import main


class Row(NamedTuple):
    check: str  # as printed, less any "=<bound>" suffix
    routes: dict[str, tuple[str, ...]]  # route -> its entry definitions
    allowed: dict[str, str]  # definition the routes may share -> why that is sound
    controls: tuple[str, ...]  # tests/test_faults.py functions that turn the check red


class Single(NamedTuple):
    reason: str  # why the check has one route
    controls: tuple[str, ...]


CLOSED_FORM = ("series.closed_form_pv",)
ENUMERATED_BASIS = ("nodemodule.betti_table",)
PRESENTED_MODULE = ("series.module_pv",)  # ambient minus submodule, as module_pv_identity takes it
LEVELS = {"series._levels": "the range 0..order of the rows, not a coefficient"}
CLASS_TEXT = {
    "geometry.CohElem": "the record of a basis class, which both sides build",
    "geometry.CohElem.__str__": "text of a class; comparison is by fields",
    "geometry.CohElem.label": "text of a class; comparison is by fields",
}
NORMAL_FORM = {
    "nodemodule._normal_form": "the definition of a coset representative, which both read classes in",
    "nodemodule._is_pivot": "which monomials the normal form rewrites",
}
GENERATOR = {
    "weyl.Generator": "the name of a generator, which both sides take",
    "weyl.Generator.__str__": "text of a generator",
    "weyl.Generator.bidegree": "the shift of a generator, a table entry",
    "exact.Poly.bidegree": "reached only through the over-approximated `.bidegree` of a Generator",
    "exact.monomial_bidegree": "reached only through `Poly.bidegree`, as above",
}

ROUTES = [
    Row(
        "dimension-table-matches-closed-form",
        {"enumerated basis": ENUMERATED_BASIS, "closed form": CLOSED_FORM},
        {},
        ("test_node_suite_catches_a_wrong_dimension",),
    ),
    Row(
        "betti",
        {"enumerated basis": ENUMERATED_BASIS, "closed form": CLOSED_FORM},
        {},
        ("test_a_row_one_coefficient_short_is_a_named_difference",),
    ),
    # verify prints the commutators of the read-off columns; tier-1 compares
    # those columns with the action through the Weyl algebra
    # (test_commutator_columns_equal_the_weyl_route)
    Row(
        "relation-matrices",
        {"operator columns": ("nodemodule.operator_columns",), "Weyl action": ("nodemodule.apply_generator",)},
        {**NORMAL_FORM, **GENERATOR, "nodemodule._check_index": "the m = 2 guard on a generator's index"},
        (
            "test_node_suite_catches_a_normal_form_without_its_sum",
            "test_node_suite_catches_a_miscounted_mu_minus_image",
            "test_node_suite_catches_a_read_off_miscounted_on_one_piece",
            "test_node_suite_reports_a_zeroed_entry_instead_of_crashing",
        ),
    ),
    # verify prints the rank of the translates read off the exponents; tier-1
    # compares it with the translates of the fundamental classes as
    # polynomials (test_generation_equals_the_polynomial_route).  That a
    # Fraction is built only in fundamental_class is the Fraction-site scan
    Row(
        "generation-by-fundamental-classes",
        {
            "translates read off the exponents": ("nodemodule.generation_checks",),
            "fundamental classes as polynomials": ("nodemodule.fundamental_class",),
        },
        {
            **NORMAL_FORM,
            "exact.add_into": "the one accumulation loop, reached by exact.rank and by Poly",
            "exact.as_exact": "coefficient coercion, reached by exact.rank and by Poly",
        },
        (
            "test_node_suite_catches_a_missing_fundamental_class",
            "test_node_suite_catches_a_rank_that_stops_one_column_early",
        ),
    ),
    Row(
        "closed-form-equals-mayer-vietoris",
        {"closed form": CLOSED_FORM, "Mayer-Vietoris": ("series.mv_pv",)},
        LEVELS,
        (
            "test_series_suite_catches_a_sign_flip_in_the_closed_form",
            "test_series_suite_catches_a_division_one_factor_short",
            "test_series_suite_catches_a_missing_exceptional_divisor",
            "test_a_row_one_coefficient_short_is_a_named_difference",
        ),
    ),
    Row(
        "closed-form-equals-paving",
        {"closed form": CLOSED_FORM, "paving strata": ("series.paving_pv",)},
        LEVELS,
        (
            "test_series_suite_catches_a_sign_flip_in_the_closed_form",
            "test_series_suite_catches_a_division_one_factor_short",
            "test_series_suite_catches_a_punctual_chain_one_line_too_long",
        ),
    ),
    Row(
        "ambient-minus-submodule-equals-closed-form",
        {"presented module": PRESENTED_MODULE, "closed form": CLOSED_FORM},
        {
            **LEVELS,
            "series.expand": "both divide by 1-q and 1-q t^2 in it; ROADMAP item 21 compares "
            "the numerators instead",
        },
        ("test_series_suite_catches_a_quotient_series_wrong_past_the_enumeration",),
    ),
    Row(
        "series-match-enumerated-dimensions-to-n",
        {
            "presented module": PRESENTED_MODULE,
            "enumeration": ("nodemodule.dim_ambient", "nodemodule.dim_submodule", "nodemodule.dim_piece"),
        },
        {},
        (
            "test_series_suite_catches_a_division_one_factor_short",
            "test_series_suite_catches_a_miscounted_factor",
            "test_series_suite_catches_a_widened_pivot_rule",
            "test_series_suite_enumerates_up_to_its_bound",
        ),
    ),
    Row(
        "pullback-kernels",
        {"kernel read-off": ("geometry.kernel_intersection",), "top zeta class": ("geometry.top_zeta_class",)},
        CLASS_TEXT,
        (
            "test_kernel_suite_catches_equal_pullbacks",
            "test_kernel_suite_catches_zeta_classes_pulled_back_to_zero",
            "test_kernel_suite_catches_two_classes_pulled_back_to_one",
        ),
    ),
    Row(
        "paving",
        {
            "enumerated cells": ("geometry.paving_cells", "geometry.paving_census"),
            "strata count": ("series.paving_row",),
        },
        {},
        (
            "test_paving_command_catches_line_cells_one_dimension_too_high",
            "test_paving_command_names_a_cell_above_the_top_dimension",
            "test_a_row_one_coefficient_short_is_a_named_difference",
        ),
    ),
]

SINGLE_ROUTE = {
    "multiplication-injectivity": Single(
        "the rank of the read-off columns of x1, x2 and mu+ against their count; nothing "
        "else computes that rank in verify (ROADMAP item 3)",
        ("test_node_suite_catches_a_lost_x1_column",),
    ),
    "no-extension-witness": Single(
        "one reduction by reduce_poly compared with zero, a worked example",
        ("test_node_suite_catches_a_lost_second_branch",),
    ),
    "module-series-identity": Single(
        "the conjunction of its two detail checks, which have rows",
        (
            "test_series_suite_catches_a_miscounted_factor",
            "test_series_suite_catches_a_quotient_series_wrong_past_the_enumeration",
        ),
    ),
    "weyl-relations": Single(
        "each commutator in the Weyl algebra against the 0 or 1 its relation states",
        (
            "test_relations_suite_catches_a_product_without_its_rewriting_terms",
            "test_relations_suite_catches_a_product_that_pairs_the_wrong_slots",
            "test_relations_suite_catches_a_dy_built_as_dx",
            "test_relations_suite_catches_a_broken_zero_family",
        ),
    ),
}


def crossings(rows=ROUTES) -> list:
    """Every pair of routes that the table claims check each other, as (name, a, b, allowed).

    A pair is two routes of one row, or two routes that two rows each
    compare with one common route: together those rows say a = c = b.
    Each route is a (name, entries) pair, and each pair of entries comes once.
    """
    pairs = []
    for row in rows:
        for a, b in combinations(row.routes.items(), 2):
            pairs.append((row.check, a, b, row.allowed))
    seen = {frozenset((a[1], b[1])) for _, a, b, _ in pairs}
    for r1, r2 in combinations(rows, 2):
        common = set(r1.routes.values()) & set(r2.routes.values())
        if not common:
            continue
        for a in r1.routes.items():
            for b in r2.routes.items():
                key = frozenset((a[1], b[1]))
                if a[1] not in common and b[1] not in common and key not in seen:
                    seen.add(key)
                    pairs.append((f"{r1.check} and {r2.check}", a, b, {**r1.allowed, **r2.allowed}))
    return pairs


def shared_outside(graph: CallGraph, a, b, allowed) -> set[str]:
    """What routes ``a`` and ``b`` both reach that ``allowed`` does not name."""
    return (graph.reach(a[1]) & graph.reach(b[1])) - allowed.keys()


GRAPH = CallGraph()
CROSSINGS = crossings()


@pytest.mark.parametrize(
    "name, a, b, allowed", CROSSINGS, ids=[f"{name}: {a[0]} | {b[0]}" for name, a, b, _ in CROSSINGS]
)
def test_routes_share_only_what_their_row_allows(name, a, b, allowed):
    extra = shared_outside(GRAPH, a, b, allowed)
    assert not extra, f"{name}: {a[0]} and {b[0]} both reach {sorted(extra)}"


@pytest.mark.parametrize("row", ROUTES, ids=lambda row: row.check)
def test_every_allowance_is_shared(row):
    # a stale allowance would let the next sharing of that code pass unseen
    shared = set()
    for (_, ea), (_, eb) in combinations(row.routes.items(), 2):
        shared |= GRAPH.reach(ea) & GRAPH.reach(eb)
    assert row.allowed.keys() <= shared, row.allowed.keys() - shared


def with_call(module: str, func: str, call: str) -> str:
    """The source of ``module`` with ``call`` as the first statement of ``func``; no file changes."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    (target,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func]
    target.body.insert(0, ast.parse(call).body[0])
    return ast.unparse(tree)


@pytest.mark.parametrize(
    "module, func, call, check, named",
    [
        ("series", "mv_pv", "expand({}, order, 0, 0)", "closed-form-equals-mayer-vietoris", "series.expand"),
        (
            "nodemodule",
            "_read_off",
            "reduce_poly(exact.Poly.zero(M), (0, 0))",
            "relation-matrices",
            "nodemodule.reduce_poly",
        ),
    ],
    ids=["mv-calls-expand", "read-off-calls-reduce-poly"],
)
def test_a_route_that_calls_into_the_other_fails_its_row(module, func, call, check, named):
    graph = CallGraph(**{module: with_call(module, func, call)})
    (row,) = [r for r in ROUTES if r.check == check]
    ((_, a, b, allowed),) = crossings([row])
    assert named in shared_outside(graph, a, b, allowed)
    assert not shared_outside(GRAPH, a, b, allowed)


def printed_checks(capsys) -> set[str]:
    """The check names that verify all, betti and paving print, less any "=<bound>"."""
    names = set()

    def collect(obj):
        if isinstance(obj, dict):
            if "check" in obj:
                names.add(re.sub(r"=\d+$", "", obj["check"]))
            for value in obj.values():
                collect(value)
        elif isinstance(obj, list):
            for value in obj:
                collect(value)

    main(["verify", "all", "--format", "json"])
    for report in json.loads(capsys.readouterr().out)["reports"]:
        if "checks" not in report:  # a report of one check
            names.add(report["name"])
        collect(report.get("checks", []))
    for argv in (["betti", "--n-max", "2"], ["paving", "--n", "2"]):
        main([*argv, "--format", "json"])
        names.add(json.loads(capsys.readouterr().out)["name"])
    return names


def test_every_printed_check_has_a_row_or_a_single_route_entry(capsys):
    listed = {row.check for row in ROUTES} | SINGLE_ROUTE.keys()
    assert printed_checks(capsys) == listed
    assert len(listed) == len(ROUTES) + len(SINGLE_ROUTE)  # no check listed twice
    controls = {c for entry in [*ROUTES, *SINGLE_ROUTE.values()] for c in entry.controls}
    assert all(entry.controls for entry in [*ROUTES, *SINGLE_ROUTE.values()])
    missing = {c for c in controls if not (c.startswith("test_") and callable(getattr(test_faults, c, None)))}
    assert not missing, missing


def test_a_new_check_without_an_entry_is_found(capsys, monkeypatch):
    real = cli.verify_node_report

    def with_a_new_check(n_max):
        report = real(n_max)
        return {**report, "checks": [*report["checks"], cli._check("new", True)]}

    monkeypatch.setattr(cli, "verify_node_report", with_a_new_check)
    assert printed_checks(capsys) - ({row.check for row in ROUTES} | SINGLE_ROUTE.keys()) == {"new"}


# The definitions that no command reaches (ROADMAP item 13): a new dead
# definition, or one promoted into a command, must change this set
UNREACHED = {
    "exact.rref",
    "exact.kernel_basis",
    "exact._reduce",
    "exact.Poly.derivative",
    "weyl.WeylOp.act",
    "weyl.SubalgebraWord",
    "weyl.SubalgebraWord.to_weyl",
    "weyl.subalgebra_membership",
    "nodemodule.apply_generator",
    "nodemodule.fundamental_class",
    "geometry.mv_dimensions",
    "geometry.poincare_from_basis",
    "series.intersection_poincare",
}


def test_the_definitions_no_command_reaches():
    unreached = GRAPH.definitions - GRAPH.reach(["cli", "cli.main", "cli.entry"])
    assert unreached == UNREACHED, (
        f"newly unreached: {sorted(unreached - UNREACHED)}, now reached: {sorted(UNREACHED - unreached)}"
    )
