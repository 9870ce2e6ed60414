"""Desk benchmark of the ``nodehilb`` command line tool.

Usage (from the root of a checkout; stdlib only, no install needed):

    python3 bench/run.py --workload node --seed 1 --seconds 40 --trace 0

The load is a closed loop from this one process: it starts one fresh
interpreter per command, waits for it, checks its exit code and the sha256
of its stdout against ``bench/goldens.json``, and only then starts the next.
A pass runs every command of the workload once, in an order drawn from the
seed; passes repeat until the next one would overrun ``--seconds``.  Before
each pass a few bare ``import nodehilb.cli`` interpreters measure set-up.

The host's speed drifts by up to 2x, so the harness pins itself and its
children to one core, and while a command runs a thread times a fixed
calibration loop on that core every 0.1 s.  Every time is reported in
reference seconds: measured seconds divided by the slowdown the loop saw
against its reference time (see bench/README.md).  Raw seconds are in the
report line.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates traced and untraced passes: traced commands run
under ``bench/trace_child.py``, which records spans around each layer's
public functions, and the result gives per-layer counts and self times.

The last stdout line is the JSON result; the line before it is a JSON
report with the environment, the seed, per-command digests and the samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "spans"
GOLDENS = BENCH_DIR / "goldens.json"

# Each command runs in its own interpreter, at the desk caps of the CLI.
# Why these three: see bench/README.md.
WORKLOADS = {
    "node": [
        "verify node --n-max 15",
        "betti --n-max 15",
    ],
    "series": [
        "verify series --order 64",
        "series --which closed --order 64 --format json",
        "series --which paving --order 64 --format json",
        "series --which module --order 64 --format json",
    ],
    "kernel": [
        "verify kernel --n-max 15",
        "kernel --n 15",
        "paving --n 15 --format json",
        "components --n 15 --m 3",
        "verify relations --m 5",
    ],
}

PROBES_PER_PASS = 4
# A child still running this long after --seconds is killed and counted as
# failed, so a run ends well within the 180 s it may take.
OVERRUN_S = 120.0
PROBE_CODE = "import time, nodehilb.cli; print(time.monotonic()); print(nodehilb.__file__)"
PROBE_NAME = "probe: import nodehilb.cli"
# Runs ``python -m nodehilb.cli ARGS...`` and, at exit, writes the
# interpreter's own peak RSS to stderr.  The child's ru_maxrss from wait4
# cannot be used: exec carries the forking harness's peak into it.
CLI_CODE = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('nodehilb.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    sys.stderr.write(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
)
# The calibration loop: exact Fraction elimination of a fixed 12x12 matrix,
# the same kind of work as the program's hot path.  CAL_REF_S is its time at
# the reference speed (the fast state of the 2-core host the benchmark was
# defined on), so reference seconds read close to seconds on a quiet host.
# One sample every CAL_PERIOD_S takes about 5% of the command's core.
CAL_SIZE = 12
CAL_REF_S = 0.005
CAL_PERIOD_S = 0.1
CLK_TCK = os.sysconf("SC_CLK_TCK")


def core_steal_s(core: int) -> float:
    """Steal time of one core so far: seconds the hypervisor ran something else.

    A command's wall time includes the steal of the core it is pinned to,
    while its CPU time and the calibration loop's do not (measured: each
    gap between a command's wall and CPU time matched its core's steal).
    """
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(f"cpu{core} "):
                return int(line.split()[8]) / CLK_TCK
    return 0.0


def calibrate() -> float:
    """CPU seconds of this thread for one run of the calibration loop.

    Thread CPU time, not wall time, because the loop shares its core with
    the command: the command's time slices must not count.
    """
    n = CAL_SIZE
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    start = time.thread_time()
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return time.thread_time() - start


@dataclass
class Outcome:
    """One finished child: what it printed, how it exited, what it cost."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float | None  # the child's own VmHWM, when it reported one
    timed_out: bool = False
    calibration_s: float = 0.0  # time the calibration thread took from its core
    steal_s: float = 0.0  # steal time of the core while the command ran

    @property
    def own_wall_s(self) -> float:
        return self.wall_s - self.calibration_s - self.steal_s


@dataclass
class Check:
    """A command's outcome compared with its golden."""

    command: str
    outcome: Outcome
    ok: bool
    reason: str = ""


@dataclass
class PassResult:
    traced: bool
    start: float = 0.0
    end: float = 0.0
    slowdown: float = 1.0  # mean calibration sample during the pass over CAL_REF_S
    checks: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # span file contents, one per command

    @property
    def wall_s(self) -> float:
        return sum(c.outcome.own_wall_s for c in self.checks)

    @property
    def cpu_s(self) -> float:
        return sum(c.outcome.cpu_s for c in self.checks)

    @property
    def peak_rss_mb(self) -> float | None:
        return max((c.outcome.peak_rss_mb for c in self.checks if c.outcome.peak_rss_mb is not None), default=None)


def own_peak_mb(stderr: bytes) -> float | None:
    """The VmHWM line a CLI_CODE child wrote to stderr, in MB."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(b"VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def run_child(argv: list, env: dict, timeout_s: float) -> Outcome:
    """Run one child to completion; CPU time comes from os.wait4 rusage."""
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    err: list = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err[0] if err else b""
    return Outcome(
        exit_code=proc.returncode,
        stdout=out,
        stderr=stderr,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=own_peak_mb(stderr),
        timed_out=killed.is_set(),
    )


def check(command: str, outcome: Outcome, goldens: dict) -> Check:
    """Compare exit code and stdout digest with the golden; never raises."""
    golden = goldens.get(command)
    if golden is None:
        return Check(command, outcome, False, "no golden recorded")
    if outcome.timed_out:
        return Check(command, outcome, False, "timed out")
    if outcome.exit_code != golden["exit"]:
        return Check(command, outcome, False, f"exit {outcome.exit_code}, golden {golden['exit']}")
    digest = hashlib.sha256(outcome.stdout).hexdigest()
    if digest != golden["sha256"]:
        return Check(command, outcome, False, f"stdout sha256 {digest[:12]}, golden {golden['sha256'][:12]}")
    return Check(command, outcome, True)


def child_env(hash_seed: int) -> dict:
    """The caller's environment with src explicitly on PYTHONPATH.

    PYTHONPATH is set, not inherited, so an installed copy of nodehilb
    elsewhere can never be the one measured.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


class Calibrator:
    """Times the calibration loop every CAL_PERIOD_S while a command runs.

    The thread shares the command's core, so it sees the host slowdown the
    command sees, at evenly spread moments of its run.  Each sample takes
    the core from the command for its length; ``busy_s`` sums them.
    """

    def __init__(self):
        self.samples: list = []  # (monotonic time, CPU seconds of one loop)
        self.busy_s = 0.0
        self._active = threading.Event()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(CAL_PERIOD_S):
            if not self._active.is_set():
                continue
            with self._lock:
                if self._active.is_set():
                    sample = calibrate()
                    self.samples.append((time.monotonic(), sample))
                    self.busy_s += sample

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @contextmanager
    def sampling(self):
        self._active.set()
        try:
            yield
        finally:
            self._active.clear()
            with self._lock:  # a sample in flight finishes before we go on
                pass

    def slowdown(self, start: float = float("-inf"), end: float = float("inf")) -> float | None:
        """Mean sample between two instants over the reference time."""
        values = [s for t, s in self.samples if start <= t <= end]
        return statistics.fmean(values) / CAL_REF_S if values else None


class Runner:
    """Runs children one at a time, each with a hash seed drawn from the seed."""

    def __init__(self, rng: random.Random, calibrator: Calibrator, kill_at: float, core: int):
        self.rng = rng
        self.calibrator = calibrator
        self.core = core  # the one core of the harness and its children
        self.kill_at = kill_at  # monotonic time after which a child is killed
        self.probes: list = []  # one Check per set-up probe

    def run(self, argv: list) -> Outcome:
        timeout = max(1.0, self.kill_at - time.monotonic())
        return run_child(argv, child_env(self.rng.randrange(2**32)), timeout)

    def probe_setup(self) -> float | None:
        """Seconds from spawning an interpreter until nodehilb.cli is imported.

        A probe that fails is recorded in ``probes`` and gives no sample.
        """
        start = time.monotonic()
        outcome = self.run([sys.executable, "-c", PROBE_CODE])
        lines = outcome.stdout.decode(errors="replace").splitlines()
        if outcome.timed_out:
            reason = "timed out"
        elif outcome.exit_code != 0:
            reason = f"exit {outcome.exit_code}"
        elif len(lines) != 2:
            reason = f"printed {len(lines)} lines, expected 2"
        else:
            reason = ""
        self.probes.append(Check(PROBE_NAME, outcome, not reason, reason))
        if reason:
            return None
        if not Path(lines[1]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"nodehilb imported from {lines[1]}, not from {SRC}")
        return float(lines[0]) - start

    def run_pass(self, workload: str, goldens: dict, traced: bool) -> PassResult:
        order = list(range(len(WORKLOADS[workload])))
        self.rng.shuffle(order)
        result = PassResult(traced, start=time.monotonic())
        for idx in order:
            command = WORKLOADS[workload][idx]
            if traced:
                span_file = SPAN_DIR / workload / f"{idx}.json"
                span_file.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(span_file), "--"]
            else:
                argv = [sys.executable, "-c", CLI_CODE]
            busy, steal = self.calibrator.busy_s, core_steal_s(self.core)
            with self.calibrator.sampling():
                outcome = self.run(argv + command.split())
            outcome.calibration_s = self.calibrator.busy_s - busy
            outcome.steal_s = core_steal_s(self.core) - steal
            result.checks.append(check(command, outcome, goldens))
            if traced:
                result.spans.append(read_spans(span_file))
        result.end = time.monotonic()
        return result


# -- trace aggregation -------------------------------------------------------------


def read_spans(path: Path) -> dict | None:
    """A traced command's span file; None if the command died before writing it."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


# Modules below the CLI; their self times plus cli.main.self_s make trace.span_s.
MODULES = ("exact", "weyl", "nodemodule", "series", "geometry")


def layer_totals(span_files: list, scales: list | None = None) -> dict:
    """Calls, inclusive and self seconds per layer over a pass's span files.

    Self time is a span's duration minus the durations of its direct
    children; inclusive time counts only outermost spans of a name, so a
    layer that re-enters itself is not counted twice.  Each file's times
    are multiplied by its entry in ``scales``.
    """
    totals: dict = {}
    for data, scale in zip(span_files, scales or [1.0] * len(span_files)):
        names, spans = data["names"], data["spans"]
        scale /= 1e9
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += (end - start - child_ns[i]) * scale
            p = parent
            while p >= 0 and names[spans[p][0]] != name:
                p = spans[p][3]
            if p < 0:
                t["s"] += (end - start) * scale
    return totals


def layer_metrics(p: PassResult, slowdown: float) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands.

    Times are in reference seconds, like the end-to-end metrics.  The
    calibration loop's share of a command's wall time is spread evenly over
    its spans, so each span is scaled down by that share.
    """
    done = [(s, c.outcome) for s, c in zip(p.spans, p.checks) if s is not None]
    files = [s for s, _ in done]
    totals = layer_totals(files, [o.own_wall_s / o.wall_s / slowdown for _, o in done])

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def cells(name, k):
        return sum(f["cells"].get(name, [0, 0, 0])[k] for f in files)

    out = {}
    for name in ("exact.rref", "exact.kernel_basis"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.cells"] = cells(name, 0)
        out[f"{name}.self_s"] = get(name, "self_s")
    total, nonzero, integral = (cells("exact.rref", k) + cells("exact.kernel_basis", k) for k in range(3))
    out["exact.nonzero_share"] = nonzero / total if total else 0.0
    out["exact.integral_share"] = integral / nonzero if nonzero else 0.0
    entries = 0
    for name in ("nodemodule.piece_data", "nodemodule.operator_columns"):
        hits = sum(f["cache"][name][0] for f in files)
        misses = sum(f["cache"][name][1] for f in files)
        entries += sum(f["cache"][name][2] for f in files)
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.misses"] = misses
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"{name}.self_s"] = get(name, "self_s")
    out["nodemodule.reduce_poly.calls"] = get("nodemodule.reduce_poly", "calls")
    out["nodemodule.reduce_poly.self_s"] = get("nodemodule.reduce_poly", "self_s")
    out["nodemodule.cache_entries"] = entries
    for name in ("relation_matrix_checks", "generation_checks", "injectivity_checks"):
        out[f"nodemodule.{name}.s"] = get(f"nodemodule.{name}", "s")
    out["weyl.WeylOp.act.calls"] = get("weyl.WeylOp.act", "calls")
    out["weyl.WeylOp.act.self_s"] = get("weyl.WeylOp.act", "self_s")
    out["weyl.verify_relations.s"] = get("weyl.verify_relations", "s")
    for name in ("mv_pv", "paving_pv", "module_pv"):
        out[f"series.{name}.s"] = get(f"series.{name}", "s")
    out["series.module_pv_identity.self_s"] = get("series.module_pv_identity", "self_s")
    for name in ("expand", "closed_form_pv"):
        out[f"series.{name}.calls"] = get(f"series.{name}", "calls")
        out[f"series.{name}.s"] = get(f"series.{name}", "s")
    out["geometry.kernel_intersection.calls"] = get("geometry.kernel_intersection", "calls")
    out["geometry.kernel_intersection.self_s"] = get("geometry.kernel_intersection", "self_s")
    out["geometry.pullback.calls"] = get("geometry.pullback", "calls")
    out["geometry.paving_cells.s"] = get("geometry.paving_cells", "s")
    out["cli.main.self_s"] = get("cli.main", "self_s")
    out["cli.stdout_bytes"] = sum(len(c.outcome.stdout) for c in p.checks)
    for module in MODULES:
        out[f"{module}.self_s"] = sum(t["self_s"] for n, t in totals.items() if n.split(".")[0] == module)
    out["trace.wall_s"] = p.wall_s / slowdown
    out["trace.span_s"] = sum(t["self_s"] for n, t in totals.items() if not n.startswith("trace."))
    out["trace.count_cells.s"] = get("trace.count_cells", "s")
    out["trace.spans"] = sum(len(f["spans"]) for f in files)
    return out


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- statistics and reporting --------------------------------------------------------


def tail(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    k = len(values)
    if k < 11:
        return None
    return {"percentile": round(100.0 * (k - 10) / k, 1), "value": sorted(values)[k - 11]}


def summary(values: list) -> dict:
    median = statistics.median(values) if values else None
    return {"median": median, "samples": len(values), "tail": tail(values), "values": values}


def git_sha() -> str | None:
    """The checkout's commit, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Desk benchmark of the nodehilb CLI.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nodehilb" / "cli.py").is_file():
        print(f"error: no nodehilb sources under {SRC}", file=sys.stderr)
        return 2
    goldens = load_goldens()
    commands = WORKLOADS[args.workload]
    if args.trace:
        SPAN_DIR.joinpath(args.workload).mkdir(parents=True, exist_ok=True)

    # One core for the harness, its threads and its children: the
    # calibration thread then shares the core each command runs on.
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    start = time.monotonic()
    deadline = start + args.seconds
    setups: list = []
    passes: list = []
    with Calibrator() as calibrator:
        runner = Runner(random.Random(f"{args.workload}:{args.seed}"), calibrator, deadline + OVERRUN_S, core)
        runner.probe_setup()  # warm-up: writes the bytecode caches of a fresh checkout
        longest = 0.0
        while True:
            pass_start = time.monotonic()
            traced = bool(args.trace) and len(passes) % 2 == 0
            setups += [s for s in (runner.probe_setup() for _ in range(PROBES_PER_PASS)) if s is not None]
            passes.append(runner.run_pass(args.workload, goldens, traced))
            now = time.monotonic()
            longest = max(longest, now - pass_start)
            # A traced run needs one traced and one untraced pass.
            if now + longest > deadline and len(passes) > args.trace:
                break
    slowdown = calibrator.slowdown() or calibrate() / CAL_REF_S
    for p in passes:
        p.slowdown = calibrator.slowdown(p.start, p.end) or slowdown

    commands_run = [c for p in passes for c in p.checks]
    checks = commands_run + runner.probes
    failed = [c for c in checks if not c.ok]
    plain = [p for p in passes if not p.traced]
    digests: dict = {}
    for c in commands_run:
        digests.setdefault(c.command, set()).add(hashlib.sha256(c.outcome.stdout).hexdigest())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "passes": len(passes),
        "failed_share": sum(not c.ok for c in commands_run) / len(commands_run),
        "failures": [
            {"command": c.command, "reason": c.reason, "stderr": c.outcome.stderr.decode(errors="replace")[-400:]}
            for c in failed
        ],
        "digests": {cmd: sorted(d) for cmd, d in digests.items()},
        "slowdown": slowdown,
        "pass_slowdowns": [p.slowdown for p in passes],
        "calibration_s": summary([s for _, s in calibrator.samples]),
        "setup_s": summary([s / slowdown for s in setups]),
        "raw_setup_s": summary(setups),
        "wall_s": summary([p.wall_s / p.slowdown for p in plain]),
        "raw_wall_s": summary([p.wall_s for p in plain]),
        "steal_s": summary([sum(c.outcome.steal_s for c in p.checks) for p in plain]),
        "cpu_s": summary([p.cpu_s / p.slowdown for p in plain]),
        "peak_rss_mb": summary([p.peak_rss_mb for p in plain if p.peak_rss_mb is not None]),
    }
    if args.trace:
        per_pass = [layer_metrics(p, p.slowdown) for p in passes if p.traced]
        # Counts and shares are exact, so their median is an actual value.
        layers = {
            k: (statistics.median if unit_of(k) == "s" else statistics.median_low)(m[k] for m in per_pass)
            for k in per_pass[0]
        }
        layers["trace.overhead_s"] = (layers["trace.wall_s"] - report["wall_s"]["median"]) / len(commands)
        counts = [k for k in per_pass[0] if unit_of(k) in ("count", "bytes")]
        report["counts_repeat"] = all(m[k] == per_pass[0][k] for m in per_pass for k in counts)
        report["layers_per_pass"] = per_pass
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": report["wall_s"]["median"], "unit": "s"},
            "cpu_s": {"value": report["cpu_s"]["median"], "unit": "s"},
            "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"]["median"], "unit": "MB"},
        }
    report["elapsed_s"] = time.monotonic() - start
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
