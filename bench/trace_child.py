"""Run one ``nodehilb`` command in this interpreter with layer spans recorded.

Usage: python3 bench/trace_child.py SPAN_FILE -- CLI_ARGS...

The CLI's stdout and exit code are exactly those of ``python -m
nodehilb.cli CLI_ARGS...``; the spans go to SPAN_FILE as one JSON object
when the command ends.  Nothing under ``src/`` is edited: the wrappers are
installed on the imported modules, at every module attribute that is bound
to a traced function, because ``from .exact import rref`` gives each
importing module its own binding.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from time import perf_counter_ns

# (defining module, attribute path, layer name).  The layer name is the
# module that owns the code, so spans charge time to the layer that did it.
TRACED = [
    ("exact", "rref", "exact.rref"),
    ("exact", "kernel_basis", "exact.kernel_basis"),
    ("weyl", "WeylOp.act", "weyl.WeylOp.act"),
    ("weyl", "verify_relations", "weyl.verify_relations"),
    ("nodemodule", "piece_data", "nodemodule.piece_data"),
    ("nodemodule", "reduce_poly", "nodemodule.reduce_poly"),
    ("nodemodule", "operator_columns", "nodemodule.operator_columns"),
    ("nodemodule", "relation_matrix_checks", "nodemodule.relation_matrix_checks"),
    ("nodemodule", "generation_checks", "nodemodule.generation_checks"),
    ("nodemodule", "injectivity_checks", "nodemodule.injectivity_checks"),
    ("series", "expand", "series.expand"),
    ("series", "closed_form_pv", "series.closed_form_pv"),
    ("series", "mv_pv", "series.mv_pv"),
    ("series", "paving_pv", "series.paving_pv"),
    ("series", "module_pv", "series.module_pv"),
    ("series", "module_pv_identity", "series.module_pv_identity"),
    ("geometry", "kernel_intersection", "geometry.kernel_intersection"),
    ("geometry", "pullback_x1", "geometry.pullback"),
    ("geometry", "pullback_x2", "geometry.pullback"),
    ("geometry", "paving_cells", "geometry.paving_cells"),
    ("cli", "main", "cli.main"),
]

# Layers whose matrix argument is scanned for its size and entry types.  The
# scan is the tracer's own work: it gets a span of its own, SCAN_LAYER, so
# that it is not charged to the caller's self time.
MATRIX_LAYERS = {"exact.rref", "exact.kernel_basis"}
SCAN_LAYER = "trace.count_cells"
# Layers backed by functools.lru_cache; their cache_info() is reported.
CACHED_LAYERS = {"nodemodule.piece_data", "nodemodule.operator_columns"}


class Recorder:
    """Spans and matrix counters of one traced command, kept in memory."""

    def __init__(self):
        self.names: list[str] = [SCAN_LAYER]  # name index 0 is the scan
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent]
        self.stack: list[int] = []
        self.cells: dict[str, list[int]] = {}  # layer -> [cells, nonzero, integral]

    def count_cells(self, layer: str, rows) -> None:
        acc = self.cells.setdefault(layer, [0, 0, 0])
        for row in rows:
            acc[0] += len(row)
            for v in row:
                if v != 0:
                    acc[1] += 1
                    if not isinstance(v, Fraction) or v.denominator == 1:
                        acc[2] += 1

    def wrap(self, fn, layer: str):
        name_id = len(self.names)
        self.names.append(layer)
        spans, stack = self.spans, self.stack
        scan = layer in MATRIX_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if scan:
                idx = len(spans)
                spans.append([0, perf_counter_ns(), 0, stack[-1] if stack else -1])
                self.count_cells(layer, getattr(args[0], "rows", args[0]))
                spans[idx][2] = perf_counter_ns()
            idx = len(spans)
            spans.append([name_id, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter_ns()

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper


def install(recorder: Recorder) -> dict:
    """Wrap every binding of each traced function; returns layer -> wrapper."""
    import nodehilb.cli  # noqa: F401  (loads every package module)

    modules = [m for k, m in sys.modules.items() if k == "nodehilb" or k.startswith("nodehilb.")]
    wrappers = {}
    for mod_name, path, layer in TRACED:
        owner = sys.modules[f"nodehilb.{mod_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = recorder.wrap(original, layer)
        wrappers.setdefault(layer, wrapper)
        if outer:  # a method: the class holds the only binding
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            if mod is owner and layer in MATRIX_LAYERS:
                # kernel_basis calls rref inside exact: that is its own work,
                # not a second matrix handed to the exact layer.
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
    return wrappers


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_child.py SPAN_FILE -- CLI_ARGS...", file=sys.stderr)
        return 2
    span_file, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    wrappers = install(recorder)
    try:
        return sys.modules["nodehilb.cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        cache = {}
        for layer in sorted(CACHED_LAYERS):
            info = wrappers[layer].cache_info()
            cache[layer] = [info.hits, info.misses, info.currsize]
        with open(span_file, "w") as fh:
            json.dump(
                {
                    "names": recorder.names,
                    "spans": recorder.spans,
                    "cells": recorder.cells,
                    "cache": cache,
                },
                fh,
            )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
