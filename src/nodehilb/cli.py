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
from typing import NamedTuple

from . import geometry, nodemodule, series, weyl

DESK_LIMITS = {"relations_m": 5, "node_n": 15, "kernel_n": 15, "series_order": 64}


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


def _emit_report(fmt: str, obj: dict, lines: list[str]) -> None:
    """Print a report: ``obj`` for json, else ``lines`` as plain text."""
    _emit(json.dumps(obj, indent=2) if fmt == "json" else "\n".join(lines))


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _emit_rows(rows: list[list[str]], fmt: str, head: dict) -> None:
    """Print a table whose row n holds the coefficients of q^n.

    json puts the rows under the fields of ``head``; plain prints each row
    space separated, and csv comma separated after its n.
    """
    if fmt == "csv":
        _emit("\n".join(",".join([str(n), *row]) for n, row in enumerate(rows)))
    else:
        _emit_report(
            fmt,
            {**head, "rows": [{"n": n, "coeffs": row} for n, row in enumerate(rows)]},
            [" ".join(row) for row in rows],
        )


# -- betti ---------------------------------------------------------------------


def run_betti(args) -> int:
    n_max = args.n_max
    if n_max < 0:
        print("error: --n-max must be >= 0", file=sys.stderr)
        return 2
    table = nodemodule.betti_table(n_max)
    rows = [[table[n][j] for j in range(n + 1)] for n in range(n_max + 1)]
    closed = series.closed_form_pv(n_max)
    mismatch = next(
        ((n, j) for n in range(n_max + 1) for j in range(n + 1) if rows[n][j] != closed[n][j]),
        None,
    )
    ok = mismatch is None
    if not ok:
        n, j = mismatch
        print(
            f"error: betti n={n} j={j}: enumerated {rows[n][j]}, closed form {closed[n][j]}",
            file=sys.stderr,
        )
    _emit_rows(
        [[str(v) for v in row] for row in rows],
        args.format,
        {"name": "betti", "parameters": {"n_max": n_max}, "status": _status(ok)},
    )
    return 0 if ok else 1


# -- series --------------------------------------------------------------------


def run_series(args) -> int:
    which, order = args.which, args.order
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
    _emit_rows([[str(v) for v in s[n][: n + 1]] for n in range(order + 1)], args.format, {"order": order})
    return 0


# -- components ------------------------------------------------------------------


def run_components(args) -> int:
    n, m = args.n, args.m
    if n < 0 or m < 1:
        print("error: need --n >= 0 and --m >= 1", file=sys.stderr)
        return 2
    count = geometry.component_count(n, m)
    obj = {"name": "components", "parameters": {"n": n, "m": m}, "count": count}
    lines = [f"components: {count}"]
    if m == 2:
        obj["components"] = [[n, k] for k in range(n + 1)]
        obj["intersections"] = [[k, k + 1] for k in range(n)]
        lines.append(" ".join(f"M({n},{k})" for k in range(n + 1)))
        meets = " ".join(f"E({n}|{k},{k + 1})" for k in range(n))
        lines.append(f"intersections: {meets or 'none'}")
    _emit_report(args.format, obj, lines)
    return 0


# -- kernel ----------------------------------------------------------------------


def run_kernel(args) -> int:
    n = args.n
    if n < 1:
        print("error: need --n >= 1", file=sys.stderr)
        return 2
    try:
        kernels = geometry.kernel_intersection(n)
    except geometry.PullbackCollision as exc:
        print(f"error: component ({exc.n}, {exc.k}): {exc}", file=sys.stderr)
        return 1
    comps = [{"k": k, "kernel": [e.label() for e in kernels[k]]} for k in sorted(kernels)]
    _emit_report(
        args.format,
        {"name": "kernel", "parameters": {"n": n}, "components": comps},
        [f"k={c['k']}: " + ("; ".join(c["kernel"]) or "0") for c in comps],
    )
    return 0


# -- paving ----------------------------------------------------------------------


def run_paving(args) -> int:
    n = args.n
    if n < 0:
        print("error: need --n >= 0", file=sys.stderr)
        return 2
    cells = geometry.paving_cells(n)
    census = [str(v) for v in geometry.paving_census(n)]
    _emit_report(
        args.format,
        {
            "name": "paving",
            "parameters": {"n": n},
            "cells": [{"a": c.a, "b": c.b, "c": c.c, "d": c.d, "dim": c.dim} for c in cells],
            "census": census,
        },
        [
            *(f"a={c.a} b={c.b} c={c.c} d={c.d} dim={c.dim}" for c in cells),
            "census: " + " ".join(census),
        ],
    )
    return 0


# -- verify ----------------------------------------------------------------------


def _all_pass(entries) -> bool:
    return all(e["status"] == "pass" for e in entries)


def _check(name: str, ok: bool, **fields) -> dict:
    """One entry of a suite's ``checks`` list."""
    return {"check": name, "status": _status(ok), **fields}


def _tally(records) -> dict:
    """``checked`` and ``failures`` of check records; a failure is its record less ``ok``."""
    failures = [{k: v for k, v in r._asdict().items() if k != "ok"} for r in records if not r.ok]
    return {"checked": len(records), "failures": failures}


def _compared(name: str, a, b) -> dict:
    ok, where = series.series_equal(a, b)
    return _check(name, ok, first_difference=None if where is None else list(where))


# Each report function returns the suite's status and fields; run_verify adds
# the report's name and parameters in front.


def verify_relations_report(m: int) -> dict:
    tally = _tally(weyl.verify_relations(m))
    realization = {str(g): str(weyl.generator_element(g, m)) for g in weyl.generators(m)}
    return {"status": _status(not tally["failures"]), "generators": realization, **tally}


def verify_node_report(n_max: int) -> dict:
    dims = [
        {"n": n, "coeffs": [nodemodule.dim_piece(n, 2 * j) for j in range(n + 1)]}
        for n in range(n_max + 1)
    ]
    closed = series.closed_form_pv(n_max)
    dims_ok = all(row["coeffs"] == closed[row["n"]][: row["n"] + 1] for row in dims)
    rel = _tally(nodemodule.relation_matrix_checks(n_max))
    gen = _tally(nodemodule.generation_checks(n_max))
    inj = _tally(nodemodule.injectivity_checks(n_max))
    witness = nodemodule.no_extension_witness()
    checks = [
        _check("dimension-table-matches-closed-form", dims_ok, rows=dims),
        _check("relation-matrices", not rel["failures"], **rel),
        _check("generation-by-fundamental-classes", not gen["failures"], **gen),
        _check("multiplication-injectivity", not inj["failures"], **inj),
        _check("no-extension-witness", witness["witness_found"], witness=witness),
    ]
    return {"status": _status(_all_pass(checks)), "checks": checks}


def verify_series_report(order: int) -> dict:
    closed = series.closed_form_pv(order)
    checks = [
        _compared("closed-form-equals-mayer-vietoris", closed, series.mv_pv(order)),
        _compared("closed-form-equals-paving", closed, series.paving_pv(order)),
    ]
    quotient, bound, missed = series.module_pv_identity(order)
    detail = [
        _compared("ambient-minus-submodule-equals-closed-form", quotient, closed),
        _check(f"series-match-enumerated-dimensions-to-n={bound}", not missed, mismatches=missed),
    ]
    checks.append(_check("module-series-identity", _all_pass(detail), detail=detail))
    return {"status": _status(_all_pass(checks)), "checks": checks}


def verify_kernel_report(n_max: int) -> dict:
    failures = []
    checked = 0
    for n in range(2, n_max + 1):
        try:
            kernels = geometry.kernel_intersection(n)
        except geometry.PullbackCollision as exc:
            # the read-off does not hold at (n, k); the later components of n go unchecked
            checked += 1
            failures.append(
                {
                    "n": exc.n,
                    "k": exc.k,
                    "pullback": exc.tag,
                    "hit_twice": str(exc.target),
                    "by": [str(e) for e in exc.sources],
                }
            )
            continue
        for k in range(n + 1):
            checked += 1
            vecs = kernels[k]
            if vecs != ([geometry.top_zeta_class(n, k)] if 0 < k < n else []):
                failures.append({"n": n, "k": k, "got": [e.label() for e in vecs]})
    return {"status": _status(not failures), "checked": checked, "failures": failures}


class Suite(NamedTuple):
    """One ``verify`` target: the flag that sets its bound, and its report."""

    flag: str
    default: int
    lowest: int
    limit: str  # DESK_LIMITS key of its highest bound
    label: str  # names the bound in the out-of-range error
    name: str  # of its report
    report: str  # its report function in this module, looked up when the suite runs
    swept: bool = False  # verify all runs it at every desk bound, not at its flag


# verify all runs every suite, in this order
SUITES = {
    "relations": Suite("--m", 2, 1, "relations_m", "relations bound m=",
                       "weyl-relations", "verify_relations_report", swept=True),
    "node": Suite("--n-max", 10, 0, "node_n", "node bound ", "node-module", "verify_node_report"),
    "series": Suite("--order", 30, 0, "series_order", "series order ",
                    "series-identities", "verify_series_report"),
    "kernel": Suite("--n-max", 8, 2, "kernel_n", "kernel bound ",
                    "pullback-kernels", "verify_kernel_report"),
}


def _dest(flag: str) -> str:
    """The argparse attribute of a flag, which also keys its report parameter."""
    return flag[2:].replace("-", "_")


def run_verify(args) -> int:
    target = args.target
    flags = {s.flag: getattr(args, _dest(s.flag)) for s in SUITES.values()}
    suites = list(SUITES.values()) if target == "all" else [SUITES[target]]
    sweep = target == "all"
    reads = {s.flag for s in suites if not (sweep and s.swept)}
    for flag, value in flags.items():
        if value is not None and flag not in reads:
            print(f"error: {flag} does not apply to verify {target}", file=sys.stderr)
            return 2
    runs = []  # every bound is checked before any suite runs
    for s in suites:
        if sweep and s.swept:
            runs += [(s, bound) for bound in range(s.lowest, DESK_LIMITS[s.limit] + 1)]
            continue
        bound = s.default if flags[s.flag] is None else flags[s.flag]
        if not s.lowest <= bound <= _limit(s.limit):
            print(
                f"error: {s.label}{bound} outside desk scale ({s.lowest}..{_limit(s.limit)})",
                file=sys.stderr,
            )
            return 2
        runs.append((s, bound))
    reports = [
        {"name": s.name, "parameters": {_dest(s.flag): bound}, **globals()[s.report](bound)}
        for s, bound in runs
    ]
    status = _status(_all_pass(reports))
    _emit_report(
        args.format,
        {"name": f"verify-{target}", "status": status, "reports": reports},
        [
            *(f"{r['status'].upper()}: {r['name']} {json.dumps(r['parameters'])}" for r in reports),
            f"overall: {status.upper()}",
        ],
    )
    return 0 if status == "pass" else 1


# -- argument parsing ------------------------------------------------------------


def _declare(p: argparse.ArgumentParser, run, *formats: str) -> None:
    """Close a subcommand: its --format values (the first is the default) and its runner."""
    p.add_argument("--format", default=formats[0])
    p.set_defaults(run=run, formats=formats)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodehilb",
        description="Exact dimension tables and identity checks for the node module.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="graded dimension table, cross-checked")
    p.add_argument("--n-max", type=int, required=True)
    _declare(p, run_betti, "plain", "csv", "json")

    p = sub.add_parser("series", help="one of the four series routes")
    p.add_argument("--which", default="closed")
    p.add_argument("--order", type=int, default=30)
    _declare(p, run_series, "plain", "csv", "json")

    p = sub.add_parser("components", help="irreducible component combinatorics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    _declare(p, run_components, "plain", "json")

    p = sub.add_parser("kernel", help="joint pullback kernels per component")
    p.add_argument("--n", type=int, required=True)
    _declare(p, run_kernel, "json", "plain")

    p = sub.add_parser("paving", help="affine paving cells and census")
    p.add_argument("--n", type=int, required=True)
    _declare(p, run_paving, "plain", "json")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("target", choices=[*SUITES, "all"])
    for flag in dict.fromkeys(s.flag for s in SUITES.values()):
        p.add_argument(flag, type=int)
    _declare(p, run_verify, "json", "plain")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run_scale()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format not in args.formats:
        print(f"error: invalid format {args.format!r}", file=sys.stderr)
        return 2
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
