"""Command line surface: tables and verification reports, machine readable.

Every subcommand is deterministic (identical arguments give byte-identical
stdout) and all numbers are printed as reduced fractions, never floats.
The exit code of ``verify`` (and of the cross-checked table commands) is 0
exactly when every executed check passed.

Verification bounds are desk-scale by default; the RUN_SCALE environment
variable (a positive integer; anything else exits 2) multiplies them for
longer runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import geometry, nodemodule, series
from .exact import frac_str
from .weyl import generator_element, generators, verify_relations

DESK_LIMITS = {"relations_m": 5, "node_n": 15, "kernel_n": 15, "series_order": 64}

# the --format values each subcommand accepts; main rejects any other first
FORMATS = {
    "betti": ("plain", "csv", "json"),
    "series": ("plain", "csv", "json"),
    "components": ("plain", "json"),
    "kernel": ("plain", "json"),
    "paving": ("plain", "json"),
    "verify": ("plain", "json"),
}


def _run_scale() -> int:
    """The RUN_SCALE multiplier: 1 when unset, else a positive integer.

    Raises ValueError for any other value, so a typo is not run at scale 1.
    """
    raw = os.environ.get("RUN_SCALE")
    if not raw:
        return 1
    try:
        scale = int(raw)
    except ValueError:
        scale = 0
    if scale < 1:
        raise ValueError(f"RUN_SCALE must be a positive integer, got {raw!r}")
    return scale


def _limit(name: str) -> int:
    return DESK_LIMITS[name] * _run_scale()


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


# -- betti ---------------------------------------------------------------------


def run_betti(n_max: int, fmt: str) -> int:
    if n_max < 0:
        print("error: --n-max must be >= 0", file=sys.stderr)
        return 2
    table = nodemodule.betti_table(n_max)
    rows = [[table[n][j] for j in range(n + 1)] for n in range(n_max + 1)]
    closed = series.closed_form_pv(n_max)
    ok = all(
        rows[n][j] == closed.c[n][j] for n in range(n_max + 1) for j in range(n + 1)
    )
    if fmt == "plain":
        _emit("\n".join(" ".join(str(v) for v in row) for row in rows))
    elif fmt == "csv":
        _emit("\n".join(",".join([str(n)] + [str(v) for v in row]) for n, row in enumerate(rows)))
    else:
        _emit_json(
            {
                "name": "betti",
                "parameters": {"n_max": n_max},
                "status": "pass" if ok else "fail",
                "rows": [
                    {"n": n, "coeffs": [str(v) for v in row]} for n, row in enumerate(rows)
                ],
            }
        )
    return 0 if ok else 1


# -- series --------------------------------------------------------------------


def run_series(which: str, order: int, fmt: str) -> int:
    if order < 0:
        print("error: --order must be >= 0", file=sys.stderr)
        return 2
    makers = {
        "closed": series.closed_form_pv,
        "mv": series.mv_pv,
        "paving": series.paving_pv,
        "module": series.module_pv,
    }
    if which not in makers:
        print(f"error: unknown series {which!r}", file=sys.stderr)
        return 2
    s = makers[which](order)
    rows = [[frac_str(v) for v in s.row(n)] for n in range(order + 1)]
    if fmt == "json":
        _emit_json({"order": order, "rows": [{"n": n, "coeffs": row} for n, row in enumerate(rows)]})
    elif fmt == "plain":
        _emit("\n".join(" ".join(row) for row in rows))
    else:
        _emit("\n".join(",".join([str(n)] + row) for n, row in enumerate(rows)))
    return 0


# -- components ------------------------------------------------------------------


def run_components(n: int, m: int, fmt: str) -> int:
    if n < 0 or m < 1:
        print("error: need --n >= 0 and --m >= 1", file=sys.stderr)
        return 2
    count = geometry.component_count(n, m)
    obj = {"name": "components", "parameters": {"n": n, "m": m}, "count": count}
    if m == 2:
        obj["components"] = [[n, k] for k in range(n + 1)]
        obj["intersections"] = [[k, k + 1] for k in range(n)]
    if fmt == "json":
        _emit_json(obj)
    else:
        lines = [f"components: {count}"]
        if m == 2:
            lines.append(" ".join(f"M({n},{k})" for k in range(n + 1)))
            if n >= 1:
                lines.append(
                    "intersections: " + " ".join(f"E({n}|{k},{k + 1})" for k in range(n))
                )
            else:
                lines.append("intersections: none")
        _emit("\n".join(lines))
    return 0


# -- kernel ----------------------------------------------------------------------


def _class_label(cls) -> str:
    if cls.is_zero():
        return "0"
    return " + ".join(
        (f"{frac_str(c)}*" if c != 1 else "") + e.label() for e, c in cls.sorted_terms()
    )


def run_kernel(n: int, fmt: str) -> int:
    if n < 1:
        print("error: need --n >= 1", file=sys.stderr)
        return 2
    kernels = geometry.kernel_intersection(n)
    comps = [
        {"k": k, "kernel": [_class_label(v) for v in kernels[k]]} for k in sorted(kernels)
    ]
    if fmt == "json":
        _emit_json({"name": "kernel", "parameters": {"n": n}, "components": comps})
    else:
        _emit(
            "\n".join(
                f"k={c['k']}: " + ("; ".join(c["kernel"]) if c["kernel"] else "0")
                for c in comps
            )
        )
    return 0


# -- paving ----------------------------------------------------------------------


def run_paving(n: int, fmt: str) -> int:
    if n < 0:
        print("error: need --n >= 0", file=sys.stderr)
        return 2
    cells = geometry.paving_cells(n)
    census = [str(int(v)) for v in geometry.paving_census(n)]
    if fmt == "json":
        _emit_json(
            {
                "name": "paving",
                "parameters": {"n": n},
                "cells": [
                    {"a": c.a, "b": c.b, "c": c.c, "d": c.d, "dim": c.dim} for c in cells
                ],
                "census": census,
            }
        )
    else:
        lines = [f"a={c.a} b={c.b} c={c.c} d={c.d} dim={c.dim}" for c in cells]
        lines.append("census: " + " ".join(census))
        _emit("\n".join(lines))
    return 0


# -- verify ----------------------------------------------------------------------


def verify_relations_report(m: int) -> dict:
    checks = verify_relations(m)
    failures = [
        {"family": c.family, "i": c.i, "j": c.j, "got": c.got} for c in checks if not c.ok
    ]
    realization = {
        str(g): str(generator_element(g, m)) for g in generators(m)
    }
    return {
        "name": "weyl-relations",
        "parameters": {"m": m},
        "status": "pass" if not failures else "fail",
        "generators": realization,
        "checked": len(checks),
        "failures": failures,
    }


def verify_node_report(n_max: int) -> dict:
    dims = [
        {"n": n, "coeffs": [nodemodule.dim_piece(n, 2 * j) for j in range(n + 1)]}
        for n in range(n_max + 1)
    ]
    closed = series.closed_form_pv(n_max)
    dims_ok = all(
        row["coeffs"][j] == closed.c[row["n"]][j]
        for row in dims
        for j in range(row["n"] + 1)
    )
    rel = nodemodule.relation_matrix_checks(n_max)
    rel_failures = [
        {"name": c.name, "n": c.n, "d": c.d} for c in rel if not c.ok
    ]
    gen = nodemodule.generation_checks(n_max)
    gen_failures = [
        {"points": c.points, "row": c.row, "rank": c.rank, "dim": c.dim}
        for c in gen
        if not c.ok
    ]
    inj = nodemodule.injectivity_checks(n_max)
    inj_failures = [{"name": c.name, "n": c.n, "d": c.d} for c in inj if not c.ok]
    witness = nodemodule.no_extension_witness()
    checks = [
        {
            "check": "dimension-table-matches-closed-form",
            "status": "pass" if dims_ok else "fail",
            "rows": dims,
        },
        {
            "check": "relation-matrices",
            "status": "pass" if not rel_failures else "fail",
            "checked": len(rel),
            "failures": rel_failures,
        },
        {
            "check": "generation-by-fundamental-classes",
            "status": "pass" if not gen_failures else "fail",
            "checked": len(gen),
            "failures": gen_failures,
        },
        {
            "check": "multiplication-injectivity",
            "status": "pass" if not inj_failures else "fail",
            "checked": len(inj),
            "failures": inj_failures,
        },
        {
            "check": "no-extension-witness",
            "status": "pass" if witness["witness_found"] else "fail",
            "witness": witness,
        },
    ]
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"name": "node-module", "parameters": {"n_max": n_max}, "status": status, "checks": checks}


def verify_series_report(order: int) -> dict:
    closed = series.closed_form_pv(order)
    checks = []
    for label, s in (("mayer-vietoris", series.mv_pv(order)), ("paving", series.paving_pv(order))):
        ok, where = series.series_equal(closed, s)
        checks.append(
            {
                "check": f"closed-form-equals-{label}",
                "status": "pass" if ok else "fail",
                "first_difference": None if where is None else list(where),
            }
        )
    module_report = series.module_pv_identity(order)
    checks.append(
        {
            "check": "module-series-identity",
            "status": module_report["status"],
            "detail": module_report["checks"],
        }
    )
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"name": "series-identities", "parameters": {"order": order}, "status": status, "checks": checks}


def verify_kernel_report(n_max: int) -> dict:
    failures = []
    checked = 0
    for n in range(2, n_max + 1):
        kernels = geometry.kernel_intersection(n)
        for k in range(n + 1):
            checked += 1
            vecs = kernels[k]
            if k in (0, n):
                if vecs:
                    failures.append({"n": n, "k": k, "got": [_class_label(v) for v in vecs]})
                continue
            expected = geometry.top_zeta_class(n, k)
            # one kernel vector, supported on the single expected basis class
            ok = len(vecs) == 1 and set(vecs[0].coeffs) == set(expected.coeffs)
            if not ok:
                failures.append({"n": n, "k": k, "got": [_class_label(v) for v in vecs]})
    return {
        "name": "pullback-kernels",
        "parameters": {"n_max": n_max},
        "status": "pass" if not failures else "fail",
        "checked": checked,
        "failures": failures,
    }


def run_verify(target: str, m: int | None, n_max: int | None, order: int | None, fmt: str) -> int:
    # each flag with the targets that read it; any other target rejects it
    # (verify all checks relations at m = 1..5, so it takes no --m)
    for flag, value, readers in (
        ("--m", m, ("relations",)),
        ("--n-max", n_max, ("node", "kernel", "all")),
        ("--order", order, ("series", "all")),
    ):
        if value is not None and target not in readers:
            print(f"error: {flag} does not apply to verify {target}", file=sys.stderr)
            return 2
    node_n, kernel_n = (10, 8) if n_max is None else (n_max, n_max)
    order = 30 if order is None else order
    # (bound label, bound, lowest bound, desk limit, report); every bound is
    # checked before any suite runs
    suites = []
    if target == "relations":
        m = 2 if m is None else m
        suites.append(("relations bound m=", m, 1, "relations_m", verify_relations_report))
    if target in ("node", "all"):
        suites.append(("node bound ", node_n, 0, "node_n", verify_node_report))
    if target in ("series", "all"):
        suites.append(("series order ", order, 0, "series_order", verify_series_report))
    if target in ("kernel", "all"):
        suites.append(("kernel bound ", kernel_n, 1, "kernel_n", verify_kernel_report))
    for label, bound, lowest, limit, _ in suites:
        if not lowest <= bound <= _limit(limit):
            print(
                f"error: {label}{bound} outside desk scale ({lowest}..{_limit(limit)})",
                file=sys.stderr,
            )
            return 2
    reports = [verify_relations_report(mm) for mm in range(1, 6)] if target == "all" else []
    reports += [report(bound) for _, bound, _, _, report in suites]
    status = "pass" if all(r["status"] == "pass" for r in reports) else "fail"
    if fmt == "json":
        _emit_json({"name": f"verify-{target}", "status": status, "reports": reports})
    else:
        lines = []
        for r in reports:
            lines.append(f"{r['status'].upper()}: {r['name']} {json.dumps(r.get('parameters', {}))}")
        lines.append(f"overall: {status.upper()}")
        _emit("\n".join(lines))
    return 0 if status == "pass" else 1


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodehilb",
        description="Exact dimension tables and identity checks for the node module.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="graded dimension table, cross-checked")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", default="plain")

    p = sub.add_parser("series", help="one of the four series routes")
    p.add_argument("--which", default="closed")
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--format", default="plain")

    p = sub.add_parser("components", help="irreducible component combinatorics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--format", default="plain")

    p = sub.add_parser("kernel", help="joint pullback kernels per component")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="json")

    p = sub.add_parser("paving", help="affine paving cells and census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="plain")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("target", choices=["relations", "node", "series", "kernel", "all"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", default="json")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run_scale()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format not in FORMATS[args.command]:
        print(f"error: invalid format {args.format!r}", file=sys.stderr)
        return 2
    if args.command == "betti":
        return run_betti(args.n_max, args.format)
    if args.command == "series":
        return run_series(args.which, args.order, args.format)
    if args.command == "components":
        return run_components(args.n, args.m, args.format)
    if args.command == "kernel":
        return run_kernel(args.n, args.format)
    if args.command == "paving":
        return run_paving(args.n, args.format)
    if args.command == "verify":
        return run_verify(args.target, args.m, args.n_max, args.order, args.format)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
