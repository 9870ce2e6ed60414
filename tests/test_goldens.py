"""The CLI as the benchmark sees it.

Runs every command of the benchmark workloads in-process and compares the
exit code and the sha256 of stdout with ``bench/goldens.json``, the digests
the benchmark itself checks; and runs the benchmark's layer tracer,
``bench/trace_child.py``, on a few commands.
"""

import hashlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import nodehilb
from nodehilb.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


GOLDENS = json.loads((BENCH / "goldens.json").read_text())
WORKLOADS = runpy.run_path(str(BENCH / "run.py"))["WORKLOADS"]
COMMANDS = [c for commands in WORKLOADS.values() for c in commands]


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_command(command, capsys, monkeypatch):
    monkeypatch.delenv("RUN_SCALE", raising=False)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == GOLDENS[command]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[command]["sha256"]


def test_mv_series_prints_the_closed_golden(capsys, monkeypatch):
    # the Mayer-Vietoris route has no golden of its own; at the desk cap it
    # must print exactly the closed form's bytes
    monkeypatch.delenv("RUN_SCALE", raising=False)
    closed = "series --which closed --order 64 --format json"
    assert main(closed.replace("closed", "mv").split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[closed]["sha256"]


# the layers under each verify suite, which the tracer must still reach
# (the table of suites must call them through their modules at run time)
VERIFY_LAYERS = [
    "weyl.verify_relations",
    "nodemodule.relation_matrix_checks",
    "nodemodule.generation_checks",
    "nodemodule.injectivity_checks",
    "series.module_pv_identity",
    "geometry.kernel_intersection",
]


def traced_run(args, tmp_path, capsys) -> dict:
    """Run ``args`` under the benchmark's tracer and return its span file.

    The traced command must exit 0 and print exactly what ``main(args)``
    prints in this process.
    """
    package_root = str(Path(nodehilb.__file__).resolve().parent.parent)
    span_file = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_child.py"), str(span_file), "--", *args],
        capture_output=True,
        env={"PATH": "/usr/bin:/usr/local/bin", "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    return json.loads(span_file.read_text())


def test_tracer_runs_the_cli_and_reads_the_caches(tmp_path, capsys, monkeypatch):
    # the tracer wraps functions by name and reads cache_info() of the two
    # cached layers, so a rename or a lost lru_cache breaks traced runs
    monkeypatch.delenv("RUN_SCALE", raising=False)
    for args in (["betti", "--n-max", "3"], ["verify", "all", "--n-max", "3", "--order", "4"]):
        traced = traced_run(args, tmp_path, capsys)
        cache = traced["cache"]
        assert {"nodemodule.piece_data", "nodemodule.operator_columns"} <= set(cache)
        hits, misses, size = cache["nodemodule.piece_data"]
        assert misses == size > 0
    layers = {traced["names"][span[0]] for span in traced["spans"]}
    assert [layer for layer in VERIFY_LAYERS if layer not in layers] == []


@pytest.mark.parametrize(
    "command",
    ["kernel --n 4", "paving --n 3 --format json", "series --which closed --order 8 --format json"],
)
def test_tracer_runs_the_commands_that_load_part_of_the_package(command, tmp_path, capsys, monkeypatch):
    # these commands leave most library modules unexecuted; the tracer must
    # still find, load and wrap every module it names
    monkeypatch.delenv("RUN_SCALE", raising=False)
    traced = traced_run(command.split(), tmp_path, capsys)
    if command.startswith("kernel"):
        assert "geometry.kernel_intersection" in {traced["names"][span[0]] for span in traced["spans"]}


def test_bench_harness_tests_pass():
    # the benchmark's own negative controls, run from the checkout root as
    # their docstring says
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "bench/test_bench.py"],
        cwd=BENCH.parent,
        capture_output=True,
        env={"PATH": "/usr/bin:/usr/local/bin", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
