"""Byte-identical CLI output for the benchmark's golden commands.

Runs every command of the ``node`` and ``kernel`` benchmark workloads
in-process and compares the exit code and the sha256 of stdout with
``bench/goldens.json``, the digests the benchmark itself checks.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from nodehilb.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


GOLDENS = json.loads((BENCH / "goldens.json").read_text())
WORKLOADS = runpy.run_path(str(BENCH / "run.py"))["WORKLOADS"]
COMMANDS = [c for w in ("node", "kernel") for c in WORKLOADS[w]]


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_command(command, capsys, monkeypatch):
    monkeypatch.delenv("RUN_SCALE", raising=False)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == GOLDENS[command]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[command]["sha256"]
