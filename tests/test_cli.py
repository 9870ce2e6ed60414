"""Command line: golden outputs, formats, determinism, exit codes."""

import argparse
import ast
import gc
import hashlib
import json
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import nodehilb
from nodehilb import cli, geometry, nodemodule, series
from nodehilb.cli import main
from nodehilb.weyl import Generator
from callgraph import CallGraph
from conftest import clear_node_caches

KNOWN_TABLE = "1\n1 2\n1 3 3\n1 4 5 4\n1 5 7 7 5\n1 6 9 10 9 6\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBetti:
    def test_plain_golden(self, capsys):
        code, out, err = run(capsys, "betti", "--n-max", "5")
        assert code == 0 and err == ""
        assert out == KNOWN_TABLE

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "betti", "--n-max", "0")
        assert code == 0 and out == "1\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "betti", "--n-max", "2", "--format", "csv")
        assert code == 0
        assert out == "0,1\n1,1,2\n2,1,3,3\n"

    def test_json_cross_checked(self, capsys):
        code, out, _ = run(capsys, "betti", "--n-max", "12", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "pass"
        assert obj["rows"][5]["coeffs"] == ["1", "6", "9", "10", "9", "6"]

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_mismatch_is_named_on_stderr(self, capsys, monkeypatch, fmt):
        real = nodemodule.dim_piece
        monkeypatch.setattr(nodemodule, "dim_piece", lambda n, d: real(n, d) + ((n, d) == (3, 2)))
        code, out, err = run(capsys, "betti", "--n-max", "5", "--format", fmt)
        assert code == 1
        assert err == "error: betti n=3 j=1: enumerated 5, closed form 4\n"
        if fmt == "plain":
            assert out == KNOWN_TABLE.replace("1 4 5 4", "1 5 5 4")
        elif fmt == "csv":
            assert "3,1,5,5,4\n" in out
        else:
            assert json.loads(out)["status"] == "fail"

    def test_invalid_format(self, capsys):
        code, _, err = run(capsys, "betti", "--n-max", "2", "--format", "xml")
        assert code == 2 and "invalid format" in err

    def test_negative_bound(self, capsys):
        code, _, err = run(capsys, "betti", "--n-max", "-1")
        assert code == 2 and "error" in err


class TestSeries:
    @pytest.mark.parametrize("which", ["closed", "mv", "paving", "module"])
    def test_all_routes_agree(self, capsys, which):
        code, out, _ = run(capsys, "series", "--which", which, "--order", "8")
        assert code == 0
        _, reference, _ = run(capsys, "series", "--which", "closed", "--order", "8")
        assert out == reference

    def test_routes_identical_output(self, capsys):
        outputs = set()
        for which in ("closed", "mv", "paving", "module"):
            _, out, _ = run(capsys, "series", "--which", which, "--order", "10")
            outputs.add(out)
        assert len(outputs) == 1

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "series", "--which", "closed", "--order", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj.keys()) == {"order", "rows"}
        assert obj["order"] == 3
        assert obj["rows"][2] == {"n": 2, "coeffs": ["1", "3", "3"]}

    def test_json_roundtrip(self, capsys):
        _, out, _ = run(capsys, "series", "--which", "closed", "--order", "5", "--format", "json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_unknown_series(self, capsys):
        code, _, err = run(capsys, "series", "--which", "nope")
        assert code == 2 and "unknown series" in err


class TestComponents:
    def test_two_points_plain(self, capsys):
        code, out, _ = run(capsys, "components", "--n", "2", "--m", "2")
        assert code == 0
        assert out == (
            "components: 3\nM(2,0) M(2,1) M(2,2)\nintersections: E(2|0,1) E(2|1,2)\n"
        )

    def test_zero_points(self, capsys):
        code, out, _ = run(capsys, "components", "--n", "0", "--m", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_four_points_chain(self, capsys):
        code, out, _ = run(capsys, "components", "--n", "4", "--format", "json")
        obj = json.loads(out)
        assert obj["count"] == 5
        assert obj["intersections"] == [[0, 1], [1, 2], [2, 3], [3, 4]]

    def test_many_branches_count_only(self, capsys):
        code, out, _ = run(capsys, "components", "--n", "3", "--m", "3", "--format", "json")
        obj = json.loads(out)
        assert obj["count"] == 10 and "components" not in obj


class TestKernel:
    def test_level_two_json(self, capsys):
        code, out, _ = run(capsys, "kernel", "--n", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["components"] == [
            {"k": 0, "kernel": []},
            {"k": 1, "kernel": ["zeta"]},
            {"k": 2, "kernel": []},
        ]

    def test_level_four_plain(self, capsys):
        code, out, _ = run(capsys, "kernel", "--n", "4", "--format", "plain")
        assert code == 0
        assert out == "k=0: 0\nk=1: zeta*a^2\nk=2: zeta*a*b\nk=3: zeta*b^2\nk=4: 0\n"


class TestPaving:
    def test_level_two_json(self, capsys, monkeypatch):
        # the cells are enumerated once, for the listing and the census both
        calls = []
        real = geometry.paving_cells
        monkeypatch.setattr(geometry, "paving_cells", lambda n: calls.append(n) or real(n))
        code, out, err = run(capsys, "paving", "--n", "2", "--format", "json")
        assert code == 0 and err == "" and calls == [2]
        obj = json.loads(out)
        assert obj["census"] == ["1", "3", "3"]
        assert {"a": 0, "b": 0, "c": 2, "d": 1, "dim": 1} in obj["cells"]

    def test_census_line_plain(self, capsys):
        _, out, _ = run(capsys, "paving", "--n", "3")
        assert out.strip().splitlines()[-1] == "census: 1 4 5 4"


class TestVerify:
    def test_relations_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "relations", "--m", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "pass"
        assert obj["reports"][0]["checked"] == 21

    def test_node_small(self, capsys):
        code, out, _ = run(capsys, "verify", "node", "--n-max", "4")
        assert code == 0
        obj = json.loads(out)
        names = [c["check"] for c in obj["reports"][0]["checks"]]
        assert names == [
            "dimension-table-matches-closed-form",
            "relation-matrices",
            "generation-by-fundamental-classes",
            "multiplication-injectivity",
            "no-extension-witness",
        ]

    def test_series_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "series", "--order", "12")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_kernel_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "kernel", "--n-max", "5")
        assert code == 0

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "verify", "relations", "--m", "1", "--format", "plain")
        assert code == 0
        assert out.splitlines()[-1] == "overall: PASS"

    def test_bound_rejection(self, capsys, monkeypatch):
        monkeypatch.delenv("RUN_SCALE", raising=False)
        code, _, err = run(capsys, "verify", "relations", "--m", "6")
        assert code == 2 and "desk scale" in err
        code, _, err = run(capsys, "verify", "node", "--n-max", "16")
        assert code == 2 and "desk scale" in err
        # the kernel suite checks the levels n = 2..n_max, so 1 would check nothing
        code, _, err = run(capsys, "verify", "kernel", "--n-max", "1")
        assert code == 2 and "kernel bound 1 outside desk scale (2..15)" in err

    def test_bad_format_rejected_before_the_suite_runs(self, capsys, monkeypatch):
        def suite_ran(n_max):
            raise AssertionError("the suite ran before the format was checked")

        monkeypatch.setattr(cli, "verify_node_report", suite_ran)
        code, _, err = run(capsys, "verify", "node", "--format", "bogus")
        assert code == 2 and "invalid format" in err

    @pytest.mark.parametrize("raw", ["abc", "-3", "0"])
    def test_invalid_run_scale_rejected_before_work(self, capsys, monkeypatch, raw):
        def suite_ran(m):
            raise AssertionError("the suite ran with an invalid RUN_SCALE")

        monkeypatch.setattr(cli, "verify_relations_report", suite_ran)
        monkeypatch.setenv("RUN_SCALE", raw)
        code, out, err = run(capsys, "verify", "relations", "--m", "2")
        assert code == 2 and out == ""
        assert "RUN_SCALE" in err and repr(raw) in err

    def test_run_scale_raises_bounds(self, capsys, monkeypatch):
        monkeypatch.setenv("RUN_SCALE", "2")
        code, out, _ = run(capsys, "verify", "relations", "--m", "6")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_kernel_suite_at_its_scaled_bound(self, capsys, monkeypatch):
        # RUN_SCALE=2 doubles the kernel bound to 30: levels 2..30 have
        # sum(n + 1) = 493 components, and each one is checked
        monkeypatch.setenv("RUN_SCALE", "2")
        code, out, _ = run(capsys, "verify", "kernel", "--n-max", "30")
        report = json.loads(out)["reports"][0]
        assert code == 0 and report["status"] == "pass"
        assert report["checked"] == 493 and report["failures"] == []

    def test_node_suite_at_its_scaled_bound(self, capsys, monkeypatch):
        # RUN_SCALE=2 doubles the node bound to 30; at 20 the pieces n <= 20
        # number 21 * 22 / 2 = 231, and each carries the 21 relations
        monkeypatch.setenv("RUN_SCALE", "2")
        code, out, _ = run(capsys, "verify", "node", "--n-max", "20")
        report = json.loads(out)["reports"][0]
        assert code == 0 and report["status"] == "pass"
        (relations,) = [c for c in report["checks"] if c["check"] == "relation-matrices"]
        assert relations["status"] == "pass"
        assert relations["checked"] == 4851 and relations["failures"] == []


class TestArgumentRejection:
    def test_negative_series_order(self, capsys):
        code, _, err = run(capsys, "series", "--order", "-1")
        assert code == 2 and "error" in err

    def test_kernel_needs_positive_level(self, capsys):
        code, _, err = run(capsys, "kernel", "--n", "0")
        assert code == 2 and "error" in err

    def test_paving_negative(self, capsys):
        code, _, err = run(capsys, "paving", "--n", "-2")
        assert code == 2 and "error" in err

    def test_components_bad_branches(self, capsys):
        code, _, err = run(capsys, "components", "--n", "1", "--m", "0")
        assert code == 2 and "error" in err

    def test_csv_only_for_tables(self, capsys):
        code, _, err = run(capsys, "kernel", "--n", "2", "--format", "csv")
        assert code == 2 and "invalid format" in err
        code, _, err = run(capsys, "verify", "relations", "--format", "csv")
        assert code == 2 and "invalid format" in err


class TestDefaultFormat:
    # the parser holds each subcommand's default --format, the first it accepts
    @pytest.mark.parametrize(
        "argv, default",
        [
            (["betti", "--n-max", "3"], "plain"),
            (["series", "--order", "4"], "plain"),
            (["components", "--n", "2"], "plain"),
            (["paving", "--n", "2"], "plain"),
            (["kernel", "--n", "3"], "json"),
            (["verify", "relations", "--m", "1"], "json"),
        ],
    )
    def test_no_format_is_the_documented_default(self, capsys, argv, default):
        bare = run(capsys, *argv)
        assert bare[0] == 0
        assert bare == run(capsys, *argv, "--format", default)
        other = "json" if default == "plain" else "plain"
        assert bare != run(capsys, *argv, "--format", other)


class TestFormatCheckedFirst:
    # one compute function per subcommand, which must not run on a bad format
    @pytest.mark.parametrize(
        "module, name, argv",
        [
            (nodemodule, "betti_table", ["betti", "--n-max", "2"]),
            (series, "mv_pv", ["series", "--which", "mv", "--order", "64"]),
            (geometry, "component_count", ["components", "--n", "2"]),
            (geometry, "kernel_intersection", ["kernel", "--n", "2"]),
            (geometry, "paving_cells", ["paving", "--n", "2"]),
            (cli, "verify_node_report", ["verify", "node"]),
        ],
    )
    def test_bad_format_rejected_before_work(self, capsys, monkeypatch, module, name, argv):
        def computed(*args):
            raise AssertionError(f"{name} ran before the format was checked")

        monkeypatch.setattr(module, name, computed)
        code, out, err = run(capsys, *argv, "--format", "bogus")
        assert code == 2 and out == ""
        assert "error: invalid format 'bogus'" in err


@pytest.fixture
def no_suite_runs(monkeypatch):
    def suite_ran(bound):
        raise AssertionError("a suite ran before every flag and bound was checked")

    monkeypatch.delenv("RUN_SCALE", raising=False)
    for name in (
        "verify_relations_report",
        "verify_node_report",
        "verify_series_report",
        "verify_kernel_report",
    ):
        monkeypatch.setattr(cli, name, suite_ran)


class TestVerifyAll:
    def test_parent_output_pinned(self, capsys, monkeypatch):
        monkeypatch.delenv("RUN_SCALE", raising=False)
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f38d2d70fa8e7f2af15e94cd07806da903ce7fde3672cdc870b53aaba80e6ee8"
        )

    def test_m_rejected(self, capsys, no_suite_runs):
        code, out, err = run(capsys, "verify", "all", "--m", "3")
        assert code == 2 and out == ""
        assert "--m" in err

    @pytest.mark.parametrize(
        "flags, where",
        [
            (["--n-max", "99"], "node bound 99"),
            (["--n-max", "0"], "kernel bound 0"),
            (["--order", "99"], "series order 99"),
            (["--n-max", "1"], "kernel bound 1"),
        ],
    )
    def test_every_bound_checked_before_any_suite(self, capsys, no_suite_runs, flags, where):
        code, out, err = run(capsys, "verify", "all", *flags)
        assert code == 2 and out == ""
        assert where in err and "desk scale" in err

    def test_n_max_reaches_the_kernel_suite(self, capsys, monkeypatch):
        monkeypatch.delenv("RUN_SCALE", raising=False)
        code, out, _ = run(capsys, "verify", "all", "--n-max", "3", "--order", "4")
        assert code == 0
        params = {r["name"]: r["parameters"] for r in json.loads(out)["reports"]}
        assert params["node-module"] == {"n_max": 3}
        assert params["pullback-kernels"] == {"n_max": 3}
        assert params["series-identities"] == {"order": 4}

    def test_relations_alone_defaults_to_two_branches(self, capsys):
        code, out, _ = run(capsys, "verify", "relations")
        assert code == 0
        assert json.loads(out)["reports"][0]["parameters"] == {"m": 2}


class TestVerifyFlagsPerSuite:
    # a named suite reads only its own flags and rejects the others before any work
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["node", "--n-max", "2", "--m", "7", "--order", "999"], "--m"),
            (["node", "--n-max", "2", "--order", "4"], "--order"),
            (["relations", "--m", "1", "--n-max", "99"], "--n-max"),
            (["relations", "--order", "4"], "--order"),
            (["series", "--order", "4", "--n-max", "3"], "--n-max"),
            (["series", "--m", "2"], "--m"),
            (["kernel", "--n-max", "3", "--order", "4"], "--order"),
            (["kernel", "--m", "2"], "--m"),
        ],
    )
    def test_foreign_flag_rejected(self, capsys, no_suite_runs, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert f"{flag} does not apply to verify {argv[0]}" in err

    def test_series_alone_defaults_to_order_thirty(self, capsys, monkeypatch):
        monkeypatch.delenv("RUN_SCALE", raising=False)
        code, out, _ = run(capsys, "verify", "series")
        assert code == 0
        assert json.loads(out)["reports"][0]["parameters"] == {"order": 30}


# sha256 of stdout and the exit code of every subcommand in every --format it
# accepts, at small bounds, recorded before json reports were streamed
OUTPUT_DIGESTS = [
    ("betti --n-max 5 --format plain", 0, "f500959839594661334471f163f655b5363320b306053311beb3c9f557d2c944"),
    ("betti --n-max 5 --format csv", 0, "df8d4b69382b0764c520f7f7d9d89623c4641e10b1c8247b45936b1e9a9fc4fd"),
    ("betti --n-max 5 --format json", 0, "84d67996062d4a98c1321dfffde34a9ae8077b7aad340d96f0de5c15aecf1433"),
    ("series --which closed --order 8 --format plain", 0, "14fccbd8e1ed086886eff71c0125a1a9a81a62844ea3000a9c524e6702cbd102"),
    ("series --which closed --order 8 --format csv", 0, "b22ece6cdda2b2d15e30d7487eeceefe39f5e2f4e3a3ee69d0ad4935b66a63d1"),
    ("series --which closed --order 8 --format json", 0, "2525bbb5caaafce748fd4acf573f8ac90d565b52fe98cb463d5fa6cdad9128a2"),
    ("series --which mv --order 8 --format plain", 0, "14fccbd8e1ed086886eff71c0125a1a9a81a62844ea3000a9c524e6702cbd102"),
    ("series --which mv --order 8 --format csv", 0, "b22ece6cdda2b2d15e30d7487eeceefe39f5e2f4e3a3ee69d0ad4935b66a63d1"),
    ("series --which mv --order 8 --format json", 0, "2525bbb5caaafce748fd4acf573f8ac90d565b52fe98cb463d5fa6cdad9128a2"),
    ("series --which paving --order 8 --format plain", 0, "14fccbd8e1ed086886eff71c0125a1a9a81a62844ea3000a9c524e6702cbd102"),
    ("series --which paving --order 8 --format csv", 0, "b22ece6cdda2b2d15e30d7487eeceefe39f5e2f4e3a3ee69d0ad4935b66a63d1"),
    ("series --which paving --order 8 --format json", 0, "2525bbb5caaafce748fd4acf573f8ac90d565b52fe98cb463d5fa6cdad9128a2"),
    ("series --which module --order 8 --format plain", 0, "14fccbd8e1ed086886eff71c0125a1a9a81a62844ea3000a9c524e6702cbd102"),
    ("series --which module --order 8 --format csv", 0, "b22ece6cdda2b2d15e30d7487eeceefe39f5e2f4e3a3ee69d0ad4935b66a63d1"),
    ("series --which module --order 8 --format json", 0, "2525bbb5caaafce748fd4acf573f8ac90d565b52fe98cb463d5fa6cdad9128a2"),
    ("components --n 3 --m 2 --format plain", 0, "61230db65f9667e5bcf301323e6626631c22f6eede38cfd201aa129a8b452d0e"),
    ("components --n 3 --m 2 --format json", 0, "4d81b9284b75289490e1091aa48a762efa59e99d1a071343c743d00e1afc30db"),
    ("components --n 3 --m 3 --format plain", 0, "e3f1fc9f19acbab1b4ac79345362c7d5c63c5950a15eaade6630256b04f4b9cd"),
    ("components --n 3 --m 3 --format json", 0, "669a6d69d0c275301c821ce8d7ac3c591957028da3b1f76e477ad943577727cc"),
    ("kernel --n 4 --format plain", 0, "98c3df88882ba4a6e717b7ecfdd0abea5e157b8a05620b7ea9458bcf7596d31f"),
    ("kernel --n 4 --format json", 0, "6ac1b4fe90a47df065bd775b8884211b3e61be064addd8ac90e3ba59daa7f632"),
    ("paving --n 4 --format plain", 0, "aefecd38633ee534fc3953f262060c584f672632e770c6a5727e260e4d08f06e"),
    ("paving --n 4 --format json", 0, "12bd5b3298ce04cc783c691c2a32009f869e9c8c38b58e96f1c7ffb97670b837"),
    ("verify relations --m 2 --format plain", 0, "ba797aa4cd627c4b853d2936d3e2183fc96e3dbbb72a07ae94553c83a9638dcf"),
    ("verify relations --m 2 --format json", 0, "a9f7c6c3de0b6dde2d0bd021cc64950d14e04824e32d6b9de83709853de0b9a0"),
    ("verify node --n-max 3 --format plain", 0, "5ffcf5f58e629c855eff6c6734660d45e4d7de416122076acc0164b78ed0a674"),
    ("verify node --n-max 3 --format json", 0, "c84c37d7202574c9be76a99c47e2fb73784031e15a6394d6ccb4dd48ca339f9a"),
    ("verify series --order 6 --format plain", 0, "aea31ab672196ab66658357fda21a236819db7dc3d90a8297e127cd00e4eb47f"),
    ("verify series --order 6 --format json", 0, "7629e457027e9c45a71308b15027aeee81d20129b479dd66e79a08c19342eb1c"),
    ("verify kernel --n-max 4 --format plain", 0, "07ad1dd943a7022ceb8b01f9c3385d8d05d124fbff9ea1d92db5880d79e7d1d6"),
    ("verify kernel --n-max 4 --format json", 0, "49bfc5d46d29df9fcd9a77ba43e7c8f9379ab1aa3b1a8110d105f3fcb82d3ec6"),
    ("verify all --format plain", 0, "e967651fc60e36a75d4285ebcfb343ba86c4b3932c4f1f7f138f3c163712543d"),
    ("verify all --format json", 0, "f38d2d70fa8e7f2af15e94cd07806da903ce7fde3672cdc870b53aaba80e6ee8"),
]


class WriteSizes:
    """A stdout that keeps only the length of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return len(text)

    def flush(self):
        pass


class TestStreamedOutput:
    @pytest.mark.parametrize("argv, code, digest", OUTPUT_DIGESTS)
    def test_bytes_and_exit_code_pinned(self, capsys, monkeypatch, argv, code, digest):
        monkeypatch.delenv("RUN_SCALE", raising=False)
        got, out, _ = run(capsys, *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    # about 1 MB of json, every character written but never more than 64 KB
    # of it at once
    def test_no_json_report_is_written_whole(self, monkeypatch):
        out = WriteSizes()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["paving", "--n", "40", "--format", "json"]) == 0
        assert sum(out.sizes) == 1_003_115
        assert max(out.sizes) <= 64 * 1024


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["betti", "--n-max", "6", "--format", "json"],
            ["series", "--which", "paving", "--order", "9", "--format", "json"],
            ["kernel", "--n", "5"],
            ["verify", "kernel", "--n-max", "4"],
            ["paving", "--n", "4", "--format", "json"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_byte_identical_across_processes(self, capsys, monkeypatch):
        # fresh interpreters with different hash seeds must agree bytewise,
        # and with main() run in this process on the same argv
        args = ["verify", "kernel", "--n-max", "4"]
        # the children import the package this process imported, installed or not
        package_root = str(Path(nodehilb.__file__).resolve().parent.parent)
        outs = set()
        for seed in ("0", "1", "random"):
            proc = subprocess.run(
                [sys.executable, "-m", "nodehilb.cli", *args],
                capture_output=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PATH": "/usr/bin:/usr/local/bin",
                    "PYTHONPATH": package_root,
                    "PYTHONDONTWRITEBYTECODE": "1",
                },
            )
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            outs.add(proc.stdout)
        assert len(outs) == 1
        # the children see no RUN_SCALE, so neither does the in-process run
        monkeypatch.delenv("RUN_SCALE", raising=False)
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert outs.pop() == out.encode()


def child_env() -> dict:
    """The environment of a fresh interpreter that imports the package this process imported."""
    package_root = str(Path(nodehilb.__file__).resolve().parent.parent)
    return {"PATH": "/usr/bin:/usr/local/bin", "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"}


def run_child(code: str, *argv: str, flags=()) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package this process imported."""
    proc = subprocess.run([sys.executable, *flags, "-c", code, *argv], capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc


LIBRARY = ("exact", "geometry", "nodemodule", "series", "weyl")

# Runs the CLI on its argv, then prints which library modules have executed.
# A module that is registered but not yet loaded is still a LazyLoader module:
# type() does not load it, while isinstance() or m.__class__ would.
EXECUTED = f"""
import sys, types
import nodehilb.cli
code = nodehilb.cli.main(sys.argv[1:])
ran = [m for m in {LIBRARY!r} if type(sys.modules["nodehilb." + m]) is types.ModuleType]
print(code, *ran, "fractions" if "fractions" in sys.modules else "-", file=sys.stderr)
"""


class TestStartup:
    def test_cli_import_registers_the_library_unexecuted(self):
        proc = run_child(
            "import sys, types, nodehilb.cli\n"
            f"for m in {LIBRARY!r}:\n"
            "    mod = sys.modules['nodehilb.' + m]\n"
            "    print(m, type(mod) is not types.ModuleType)\n"
        )
        assert proc.stdout.decode().split("\n")[:-1] == [f"{m} True" for m in LIBRARY]

    @pytest.mark.parametrize(
        "argv, executed",
        [
            ("kernel --n 3", "geometry -"),
            ("paving --n 2", "geometry series -"),
            ("components --n 2 --m 3", "geometry -"),
            ("series --which closed --order 4", "series -"),
            ("verify relations --m 2", "exact weyl -"),
            ("betti --n-max 3", "nodemodule series -"),
            ("verify series --order 4", "exact nodemodule series -"),
            ("verify node --n-max 2", "exact nodemodule series weyl -"),
            ("verify all", "exact geometry nodemodule series weyl -"),
        ],
    )
    def test_a_command_executes_only_the_modules_it_runs(self, argv, executed):
        proc = run_child(EXECUTED, *argv.split())
        assert proc.stderr.decode() == f"0 {executed}\n"

    @pytest.mark.parametrize("argv", ["verify node --n-max 2", "betti --n-max 3"])
    def test_the_node_commands_never_execute_geometry(self, argv):
        code, *ran = run_child(EXECUTED, *argv.split()).stderr.decode().split()
        assert code == "0" and "nodemodule" in ran and "geometry" not in ran


# Runs ``python -m nodehilb.cli ARGS...`` and, at exit, reports whether the
# collector is on and whether any object was frozen.
GC_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("nodehilb.cli", run_name="__main__", alter_sys=True)
"""


@contextmanager
def collector_off():
    """Run the body with cold caches and the collector off, as ``cli.entry`` runs ``main``."""
    clear_node_caches()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def cyclic_garbage(argv) -> int:
    """What ``gc.collect()`` frees after ``main(argv)`` runs with the collector off."""
    with collector_off():
        main(argv)
        return gc.collect()


class TestProcessEntry:
    def test_a_process_runs_with_the_collector_off_and_the_heap_frozen(self):
        proc = run_child(GC_AT_EXIT, "betti", "--n-max", "2")
        assert proc.stdout == b"1\n1 2\n1 3 3\n"
        assert proc.stderr == b"False True\n"

    def test_main_leaves_the_collector_as_it_found_it(self, capsys):
        before = gc.isenabled(), gc.get_freeze_count()
        code, out, _ = run(capsys, "betti", "--n-max", "2")
        assert code == 0 and out == "1\n1 2\n1 3 3\n"
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_the_script_runs_what_the_main_block_runs(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(cli.__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["nodehilb"]
        (block,) = [
            node
            for node in ast.parse(Path(cli.__file__).read_text()).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        (stmt,) = block.body  # raise SystemExit(f())
        assert ast.unparse(stmt.exc.func) == "SystemExit"
        assert target == f"nodehilb.cli:{stmt.exc.args[0].func.id}" == "nodehilb.cli:entry"

    @pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
    def test_a_reader_that_closes_the_pipe_early_gets_status_141(self, unbuffered):
        # about 1 MB of json, far more than a pipe holds, so the child is
        # still writing when the reader closes its end
        argv = ["paving", "--n", "40", "--format", "json"]
        with subprocess.Popen(
            [sys.executable, "-m", "nodehilb.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**child_env(), **unbuffered},
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert (proc.returncode, stderr) == (141, b"")

    def test_main_frees_its_parser_with_the_collector_off(self, capsys):
        with collector_off():
            main(["verify", "kernel", "--n-max", "2"])
            parsers = [
                o for o in gc.get_objects()
                if isinstance(o, argparse.ArgumentParser) and o.prog.startswith("nodehilb")
            ]
        capsys.readouterr()
        assert parsers == []

    # GC-off rests on this: a run leaves the same cyclic garbage whatever its
    # bound (main has freed the parser graph; what is left is the closures of
    # the json encoder), so no piece or cache entry makes cycles
    @pytest.mark.parametrize(
        "suite, flag, small, large",
        [("node", "--n-max", 2, 8), ("series", "--order", 4, 16), ("kernel", "--n-max", 2, 6)],
    )
    def test_cyclic_garbage_does_not_grow_with_the_bound(self, capsys, suite, flag, small, large):
        counts = [cyclic_garbage(["verify", suite, flag, str(bound)]) for bound in (small, large)]
        capsys.readouterr()
        assert counts[0] == counts[1]


class TestPublicSurface:
    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'nodehilb' has no attribute 'no_such_name'$"):
            nodehilb.no_such_name

    def test_the_package_import_graph(self):
        # each module's relative imports, wherever they stand in it: a new
        # edge between two modules has to be made here too
        graph = {m: found for m, found in CallGraph().imports.items() if m != "__init__"}
        assert graph == {
            "exact": set(),
            "weyl": {"exact"},
            "nodemodule": {"exact", "weyl"},
            "series": {"nodemodule"},
            "geometry": {"series"},
            "cli": {"geometry", "nodemodule", "series", "weyl"},
        }


class TestRecords:
    def test_cli_import_loads_no_dataclasses(self):
        # the records are NamedTuples; -S keeps site's own imports out of the
        # count, and vars() executes every lazily loaded module of the package
        proc = run_child(
            "import sys, types, nodehilb.cli\n"
            f"mods = [sys.modules['nodehilb.' + m] for m in {LIBRARY!r}]\n"
            "for mod in mods:\n"
            "    vars(mod)\n"
            "print('dataclasses' in sys.modules, all(type(mod) is types.ModuleType for mod in mods))",
            flags=["-S"],
        )
        assert proc.stdout == b"False True\n"

    @pytest.mark.parametrize(
        "record, field",
        [
            (geometry.CohElem(2, 1, "zeta", 0, 0), "k"),
            (Generator("x", 1), "index"),
            (nodemodule.PieceCheck("[x1,x2]=0", 2, 2, True), "ok"),
        ],
    )
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
