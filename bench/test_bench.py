"""Negative controls for the benchmark's golden check and its trace.

Run from the root of a checkout:  python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

PRINT_OK = [sys.executable, "-c", "print('ok')"]
OK_DIGEST = hashlib.sha256(b"ok\n").hexdigest()


class GoldenCheck(unittest.TestCase):
    def outcome(self, argv):
        return run.run_child(argv, run.child_env(0), 60)

    def test_matching_output_passes(self):
        c = run.check("cmd", self.outcome(PRINT_OK), {"cmd": {"exit": 0, "sha256": OK_DIGEST}})
        self.assertTrue(c.ok, c.reason)

    def test_wrong_digest_is_a_failure(self):
        c = run.check("cmd", self.outcome(PRINT_OK), {"cmd": {"exit": 0, "sha256": "0" * 64}})
        self.assertFalse(c.ok)
        self.assertIn("sha256", c.reason)

    def test_nonzero_exit_is_a_failure(self):
        argv = [sys.executable, "-c", "import sys; print('ok'); sys.exit(3)"]
        c = run.check("cmd", self.outcome(argv), {"cmd": {"exit": 0, "sha256": OK_DIGEST}})
        self.assertFalse(c.ok)
        self.assertIn("exit 3", c.reason)

    def test_crash_is_a_failure(self):
        c = run.check("cmd", self.outcome([sys.executable, "-c", "raise SystemError"]),
                      {"cmd": {"exit": 0, "sha256": OK_DIGEST}})
        self.assertFalse(c.ok)

    def test_missing_golden_is_a_failure(self):
        self.assertFalse(run.check("other", self.outcome(PRINT_OK), {}).ok)

    def test_timeout_is_a_failure(self):
        argv = [sys.executable, "-c", "import time; time.sleep(30)"]
        outcome = run.run_child(argv, run.child_env(0), timeout_s=0.5)
        self.assertTrue(outcome.timed_out)
        self.assertFalse(run.check("cmd", outcome, {"cmd": {"exit": 0, "sha256": OK_DIGEST}}).ok)

    def test_every_workload_command_has_a_golden(self):
        goldens = run.load_goldens()
        for commands in run.WORKLOADS.values():
            for command in commands:
                self.assertIn(command, goldens)


class Probe(unittest.TestCase):
    def test_failed_probe_is_recorded_not_raised(self):
        runner = run.Runner(random.Random(0), calibrator=None, kill_at=time.monotonic() + 60, core=0)
        with mock.patch.object(run, "PROBE_CODE", "import sys; sys.exit(3)"):
            self.assertIsNone(runner.probe_setup())
        with mock.patch.object(run, "PROBE_CODE", "print(1); print(2); print(3)"):
            self.assertIsNone(runner.probe_setup())
        self.assertEqual([c.ok for c in runner.probes], [False, False])
        self.assertIn("exit 3", runner.probes[0].reason)
        self.assertIn("3 lines", runner.probes[1].reason)


class PeakRss(unittest.TestCase):
    def test_peak_rss_is_the_child_own_not_the_harness(self):
        ballast = bytearray(64 * 2**20)
        ballast[::4096] = b"\1" * len(range(0, len(ballast), 4096))  # touch every page
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcome = run.run_child([sys.executable, "-c", run.CLI_CODE, "--help"], run.child_env(0), 60)
        del ballast
        self.assertEqual(outcome.exit_code, 0)
        self.assertIsNotNone(outcome.peak_rss_mb)
        self.assertLess(outcome.peak_rss_mb, own_mb - 32)


class Trace(unittest.TestCase):
    def test_traced_stdout_matches_golden_and_counts_repeat(self):
        command = "verify relations --m 2"
        plain = run.run_child([sys.executable, "-m", "nodehilb.cli"] + command.split(), run.child_env(1), 60)
        counts = []
        for hash_seed in (2, 3):
            with tempfile.TemporaryDirectory() as tmp:
                span_file = Path(tmp) / "spans.json"
                argv = [sys.executable, str(run.BENCH_DIR / "trace_child.py"), str(span_file), "--"]
                traced = run.run_child(argv + command.split(), run.child_env(hash_seed), 60)
                self.assertEqual(traced.exit_code, plain.exit_code)
                self.assertEqual(traced.stdout, plain.stdout)
                totals = run.layer_totals([json.loads(span_file.read_text())])
            counts.append({name: t["calls"] for name, t in totals.items()})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["cli.main"], 1)
        self.assertEqual(counts[0]["weyl.verify_relations"], 1)

    def test_benchmark_json_names_every_layer_metric(self):
        names = set(run.layer_metrics(run.PassResult(traced=True), 1.0)) | {"trace.overhead_s"}
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in spec["per_layer"]}, names)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])

    def test_self_time_excludes_children(self):
        # cli.main [0, 10] encloses rref [2, 5] and kernel_basis [6, 9].
        data = {
            "names": ["cli.main", "exact.rref", "exact.kernel_basis"],
            "spans": [[0, 0, 10, -1], [1, 2, 5, 0], [2, 6, 9, 0]],
        }
        totals = run.layer_totals([data], [1e9])  # scale 1e9: times read in ns
        self.assertEqual(totals["cli.main"]["self_s"], 4)
        self.assertEqual(totals["exact.rref"]["self_s"], 3)
        self.assertEqual(totals["cli.main"]["s"], 10)


if __name__ == "__main__":
    unittest.main()
