"""Exit-code contract: 0 success, 1 usage error, 2 data/runtime error.

One parametrized matrix touching every subcommand — ``topk``,
``estimate``, ``maxchange``, ``percent-change``, ``experiment``,
``store`` (inspect/merge/diff), ``serve``, ``query``, ``cluster``,
and ``cache`` (simulate/stats).  The
``serve``/``query`` success paths need a live server and are exercised
end-to-end by ``test_service_smoke.py`` / ``test_service_resume.py``;
here they contribute their usage and connection failures.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import FrequencySketch
from repro.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from repro.cluster import write_cluster_spec
from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.store import save
from repro.streams.io import write_stream_text

REPO_ROOT = Path(__file__).parent.parent

ITEMS = ["apple"] * 12 + ["banana"] * 7 + ["cherry"] * 3


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("exitcodes")
    stream = root / "stream.txt"
    write_stream_text(stream, ITEMS)
    not_int = root / "not-int.txt"
    write_stream_text(not_int, [1, 2, "three", 4])
    not_utf8 = root / "not-utf8.txt"
    not_utf8.write_bytes(b"apple\nbanana\n\xff\xfe\napple\n")
    sketch_a = CountSketch(4, 64, seed=3)
    sketch_b = CountSketch(4, 64, seed=3)
    topk = TopKTracker(5, depth=4, width=64, seed=3)
    for item in ITEMS:
        sketch_a.update(item)
        sketch_b.update(item, 2)
        topk.update(item)
    save(sketch_a, root / "a.rcs")
    save(sketch_b, root / "b.rcs")
    save(topk, root / "top.rcs")
    oracle = FrequencySketch(64, seed=3)
    for item in ITEMS:
        oracle.touch(item)
    oracle.save(root / "admission.rcs")
    return {
        "stream": str(stream),
        "not_int": str(not_int),
        "not_utf8": str(not_utf8),
        "snap_a": str(root / "a.rcs"),
        "snap_b": str(root / "b.rcs"),
        "snap_top": str(root / "top.rcs"),
        "snap_cache": str(root / "admission.rcs"),
        "out": str(root / "merged.rcs"),
        "missing": str(root / "nope" / "missing.rcs"),
    }


def exit_code(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as error:
        code = error.code
    capsys.readouterr()
    return code


SUCCESS = [
    pytest.param(["topk", "--input", "{stream}"], id="topk"),
    pytest.param(["estimate", "--input", "{stream}", "apple"],
                 id="estimate-stream"),
    pytest.param(["estimate", "--sketch", "{snap_a}", "apple"],
                 id="estimate-snapshot"),
    pytest.param(["maxchange", "--before", "{stream}",
                  "--after", "{stream}"], id="maxchange"),
    pytest.param(["percent-change", "--before", "{stream}",
                  "--after", "{stream}"], id="percent-change"),
    pytest.param(["store", "inspect", "{snap_a}"], id="store-inspect"),
    pytest.param(["store", "merge", "--out", "{out}", "{snap_a}",
                  "{snap_b}"], id="store-merge"),
    pytest.param(["store", "diff", "{snap_a}", "{snap_b}",
                  "--items", "apple"], id="store-diff"),
    pytest.param(["cache", "simulate", "--requests", "2000",
                  "--keys", "500", "--capacity", "50"],
                 id="cache-simulate"),
    pytest.param(["cache", "simulate", "--policy", "tinylfu",
                  "--trace", "shifting", "--requests", "2000",
                  "--keys", "500", "--capacity", "50"],
                 id="cache-simulate-shifting"),
    pytest.param(["cache", "stats", "--sketch", "{snap_cache}", "apple"],
                 id="cache-stats"),
]

#: Commands whose ITEM arguments ``--int-keys`` reads as integers, each
#: given the item ``abc``.
NON_INTEGER_ITEMS = [
    ("estimate", ["estimate", "--input", "{stream}", "--int-keys", "abc"]),
    ("store-diff", ["store", "diff", "{snap_a}", "{snap_b}", "--int-keys",
                    "--items", "1", "abc"]),
    ("query-estimate", ["query", "estimate", "--port", "1", "--table", "t",
                        "--int-keys", "1", "abc"]),
    ("cache-stats", ["cache", "stats", "--sketch", "{snap_cache}",
                     "--int-keys", "abc"]),
]

#: Flag values argparse accepts but no command can use: one usage line
#: each, found before any file is read or server reached.
BAD_VALUES = [
    ("query-topk-k-zero",
     ["query", "topk", "--port", "1", "--table", "t", "--k", "0"],
     "--k must be at least 1"),
    ("query-topk-cluster-k-zero",
     ["query", "topk", "--cluster", "{missing}", "--table", "t", "--k", "0"],
     "--k must be at least 1"),
    ("traffic-cluster-window-kind",
     ["traffic", "--cluster", "{missing}", "--table-kind", "window"],
     "--table-kind window: window tables cannot be sharded: jumping-window "
     "rotation counts local arrivals, which is not linear across shards; "
     "serve them from a single `repro serve` process"),
    ("serve-port-out-of-range",
     ["serve", "--table", "q", "--port", "65536"],
     "--port must be between 0 and 65535"),
    ("query-port-out-of-range", ["query", "ping", "--port", "-1"],
     "--port must be between 0 and 65535"),
    ("traffic-port-out-of-range", ["traffic", "--port", "70000"],
     "--port must be between 0 and 65535"),
    ("query-timeout-zero", ["query", "ping", "--port", "1", "--timeout", "0"],
     "--timeout must be positive"),
    ("query-timeout-negative",
     ["query", "ping", "--port", "1", "--timeout", "-2.5"],
     "--timeout must be positive"),
    ("maxchange-k-negative",
     ["maxchange", "--before", "{stream}", "--after", "{stream}", "--k", "-1"],
     "--k cannot be negative"),
    ("percent-change-k-negative",
     ["percent-change", "--before", "{stream}", "--after", "{stream}",
      "--k", "-1"],
     "--k cannot be negative"),
    ("store-diff-k-negative",
     ["store", "diff", "{snap_a}", "{snap_b}", "--items", "apple",
      "--k", "-1"],
     "--k cannot be negative"),
    # The query flags below are checked before the connect: port 1 is
    # closed, and reaching it would exit 2 with the refusal instead.
    ("query-ingest-batch-size-zero",
     ["query", "ingest", "--port", "1", "--table", "t", "--input",
      "{stream}", "--batch-size", "0"],
     "--batch-size must be at least 1"),
    ("query-ingest-skip-negative",
     ["query", "ingest", "--port", "1", "--table", "t", "--input",
      "{stream}", "--skip", "-1"],
     "--skip cannot be negative"),
    ("query-create-malformed-table",
     ["query", "create", "--port", "1", "--table", "a:b:c:d"],
     "malformed --table 'a:b:c:d'; use NAME[:KIND[:key=val,...]]"),
    ("query-create-bad-option",
     ["query", "create", "--port", "1", "--table", "q:sketch:depth=zero"],
     "table option 'depth' needs an integer value, got 'zero'"),
    ("query-create-cluster-window",
     ["query", "create", "--cluster", "{missing}", "--table", "w:window"],
     "window tables cannot be sharded: jumping-window rotation counts "
     "local arrivals, which is not linear across shards; serve them from "
     "a single `repro serve` process"),
]

USAGE = [
    pytest.param([], id="no-subcommand"),
    pytest.param(["topk"], id="topk-missing-input"),
    pytest.param(["estimate", "apple"], id="estimate-no-source"),
    pytest.param(["estimate", "--input", "{stream}",
                  "--sketch", "{snap_a}", "apple"],
                 id="estimate-conflicting-sources"),
    # Ingest runs in one process; the cluster is the multi-process path.
    pytest.param(["topk", "--input", "{stream}", "--workers", "2"],
                 id="topk-workers-removed"),
    pytest.param(["topk", "--input", "{stream}", "--chunk-size", "16"],
                 id="topk-chunk-size-removed"),
    pytest.param(["topk", "--input", "{stream}", "--checkpoint-dir", "d"],
                 id="topk-checkpoint-dir-removed"),
    pytest.param(["estimate", "--input", "{stream}", "--workers", "2",
                  "apple"], id="estimate-workers-removed"),
    pytest.param(["estimate", "--input", "{stream}", "--chunk-size", "16",
                  "apple"], id="estimate-chunk-size-removed"),
    pytest.param(["estimate", "--input", "{stream}", "--checkpoint-dir",
                  "d", "apple"], id="estimate-checkpoint-dir-removed"),
    pytest.param(["maxchange", "--before", "{stream}"],
                 id="maxchange-missing-after"),
    pytest.param(["percent-change"], id="percent-change-missing-args"),
    pytest.param(["experiment", "bogus"], id="experiment-bad-name"),
    pytest.param(["store"], id="store-missing-verb"),
    pytest.param(["store", "merge", "--out", "{out}", "{snap_a}"],
                 id="store-merge-needs-two"),
    pytest.param(["store", "diff", "{snap_a}", "{snap_b}"],
                 id="store-diff-needs-items"),
    pytest.param(["serve"], id="serve-no-table"),
    pytest.param(["serve", "--table", "q:bogus"], id="serve-bad-kind"),
    pytest.param(["serve", "--table", "q:sketch:depth=zero"],
                 id="serve-bad-option-value"),
    pytest.param(["serve", "--table", "q", "--checkpoint-every", "5"],
                 id="serve-trigger-without-dir"),
    pytest.param(["query"], id="query-missing-verb"),
    pytest.param(["query", "explode"], id="query-bad-verb"),
    pytest.param(["query", "create"], id="query-create-missing-table"),
    pytest.param(["cluster"], id="cluster-missing-verb"),
    pytest.param(["cluster", "serve"], id="cluster-serve-no-table"),
    pytest.param(["cluster", "serve", "--table", "q", "--shards", "0"],
                 id="cluster-serve-bad-shards"),
    pytest.param(["cluster", "serve",
                  "--table", "w:window:window=32,buckets=4"],
                 id="cluster-serve-window-table"),
    pytest.param(["cluster", "serve", "--table", "q",
                  "--checkpoint-every", "5"],
                 id="cluster-serve-trigger-without-dir"),
    pytest.param(["cluster", "rebalance", "--src", "a", "--out", "b"],
                 id="cluster-rebalance-missing-shards"),
    pytest.param(["cache"], id="cache-missing-verb"),
    pytest.param(["cache", "simulate", "--policy", "bogus"],
                 id="cache-simulate-bad-policy"),
    pytest.param(["cache", "simulate", "--requests", "0"],
                 id="cache-simulate-zero-requests"),
    pytest.param(["cache", "simulate", "--policy", "lru",
                  "--requests", "100", "--keys", "50",
                  "--save-sketch", "{out}"],
                 id="cache-save-sketch-needs-tinylfu"),
    pytest.param(["cache", "simulate", "--policy", "tinylfu",
                  "--requests", "100", "--keys", "50",
                  "--capacity", "10", "--capacity", "20",
                  "--save-sketch", "{out}"],
                 id="cache-save-sketch-one-capacity"),
    pytest.param(["cache", "stats"], id="cache-stats-missing-sketch"),
    pytest.param(["serve", "--table", "q", "--table-weight", "q"],
                 id="serve-malformed-table-weight"),
    pytest.param(["serve", "--table", "q", "--table-weight", "q=zero"],
                 id="serve-non-integer-table-weight"),
    pytest.param(["serve", "--table", "q", "--ingest-burst", "8"],
                 id="serve-burst-without-rate"),
    pytest.param(["serve", "--table", "q", "--estimate-cache", "1"],
                 id="serve-estimate-cache-too-small"),
    pytest.param(["traffic", "--arrival", "poisson"],
                 id="traffic-open-loop-needs-rate"),
    pytest.param(["traffic", "--tenants", "0"],
                 id="traffic-zero-tenants"),
    pytest.param(["traffic", "--query-fraction", "1.5"],
                 id="traffic-query-fraction-out-of-range"),
    pytest.param(["traffic", "--clients", "0"],
                 id="traffic-zero-clients"),
    pytest.param(["traffic", "--arrival", "staircase"],
                 id="traffic-unknown-arrival"),
    # Checked before any input is read, snapshot loaded or server reached.
    pytest.param(["topk", "--input", "{stream}", "--k", "0"], id="topk-k-zero"),
    *[pytest.param(argv, id=f"{name}-non-integer-item")
      for name, argv in NON_INTEGER_ITEMS],
    *[pytest.param(argv, id=name) for name, argv, _ in BAD_VALUES],
]

DATA = [
    pytest.param(["topk", "--input", "{missing}"], id="topk-missing-file"),
    pytest.param(["topk", "--input", "{not_int}", "--int-keys"],
                 id="topk-non-integer-line"),
    pytest.param(["topk", "--input", "{not_utf8}"], id="topk-non-utf8"),
    pytest.param(["estimate", "--input", "{not_int}", "--int-keys", "1"],
                 id="estimate-non-integer-line"),
    pytest.param(["estimate", "--input", "{not_utf8}", "apple"],
                 id="estimate-non-utf8"),
    pytest.param(["maxchange", "--before", "{stream}", "--after",
                  "{not_int}", "--int-keys"],
                 id="maxchange-non-integer-line"),
    pytest.param(["maxchange", "--before", "{not_utf8}",
                  "--after", "{stream}"], id="maxchange-non-utf8"),
    pytest.param(["estimate", "--sketch", "{missing}", "apple"],
                 id="estimate-missing-snapshot"),
    pytest.param(["maxchange", "--before", "{missing}",
                  "--after", "{missing}"], id="maxchange-missing-files"),
    pytest.param(["store", "inspect", "{missing}"],
                 id="store-inspect-missing"),
    pytest.param(["store", "diff", "{snap_a}", "{snap_top}",
                  "--items", "apple"], id="store-diff-wrong-type"),
    pytest.param(["query", "ping", "--port", "1", "--timeout", "5"],
                 id="query-connection-refused"),
    pytest.param(["query", "ping", "--cluster", "{missing}"],
                 id="query-missing-cluster-spec"),
    pytest.param(["cluster", "rebalance", "--src", "{missing}",
                  "--out", "{out}.d", "--shards", "2"],
                 id="cluster-rebalance-no-manifest"),
    pytest.param(["cache", "stats", "--sketch", "{missing}"],
                 id="cache-stats-missing-snapshot"),
    pytest.param(["cache", "stats", "--sketch", "{snap_top}"],
                 id="cache-stats-wrong-type"),
    pytest.param(["cache", "simulate", "--policy", "tinylfu",
                  "--requests", "1000", "--keys", "200",
                  "--capacity", "50", "--load-sketch", "{snap_a}"],
                 id="cache-load-sketch-not-admission"),
    pytest.param(["traffic", "--port", "1", "--duration", "0.1"],
                 id="traffic-connection-refused"),
    pytest.param(["traffic", "--cluster", "{missing}",
                  "--duration", "0.1"],
                 id="traffic-missing-cluster-spec"),
]


def fill(argv, paths):
    return [part.format(**paths) for part in argv]


class TestExitCodes:
    @pytest.mark.parametrize("argv", SUCCESS)
    def test_success_is_zero(self, argv, paths, capsys):
        assert exit_code(fill(argv, paths), capsys) == EXIT_OK

    @pytest.mark.parametrize("argv", USAGE)
    def test_usage_errors_are_one(self, argv, paths, capsys):
        assert exit_code(fill(argv, paths), capsys) == EXIT_USAGE

    @pytest.mark.parametrize("argv", DATA)
    def test_data_errors_are_two(self, argv, paths, capsys):
        assert exit_code(fill(argv, paths), capsys) == EXIT_DATA

    def test_the_three_codes_are_distinct_and_stable(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_DATA) == (0, 1, 2)

    def test_usage_errors_explain_themselves(self, paths, capsys):
        code = main(["serve", "--table", "q", "--checkpoint-every", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "--checkpoint-dir" in captured.err

    @pytest.mark.parametrize("argv, message", [
        *[pytest.param(argv, "error: --int-keys: item 'abc' is not an "
                       "integer\n", id=name)
          for name, argv in NON_INTEGER_ITEMS],
        pytest.param(["topk", "--input", "{stream}", "--k", "0"],
                     "error: --k must be at least 1\n", id="topk-k-zero"),
        *[pytest.param(argv, f"error: {message}\n", id=name)
          for name, argv, message in BAD_VALUES],
    ])
    def test_bad_values_are_one_usage_line(self, paths, capsys, argv,
                                           message):
        code = main(fill(argv, paths))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == message

    @pytest.mark.parametrize("name, flags, line, problem", [
        ("not_int", ["--int-keys"], 3, "not an integer: 'three'"),
        ("not_utf8", [], 3, "not UTF-8 text"),
    ], ids=["non-integer", "non-utf8"])
    def test_malformed_stream_is_one_line_naming_file_and_line(
            self, paths, capsys, name, flags, line, problem):
        code = main(["topk", "--input", paths[name], *flags])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.err == (
            f"error: {paths[name]}, line {line}: {problem}\n")

    def test_connection_refused_is_one_documented_line(self, capsys):
        code = main(["query", "ping", "--port", "1", "--timeout", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert "Traceback" not in captured.err
        assert captured.err.strip().count("\n") == 0
        assert "cannot connect" in captured.err


@pytest.fixture()
def silent_listener():
    """A port whose kernel completes every connect and nobody answers."""
    with socket.create_server(("127.0.0.1", 0), backlog=8) as listener:
        yield listener.getsockname()[1]


@pytest.fixture()
def full_backlog():
    """A port whose accept queue is full, so a connect hangs: Linux drops
    the SYNs a full queue cannot take."""
    if not sys.platform.startswith("linux"):
        pytest.skip("needs Linux's drop of SYNs past a full accept queue")
    with socket.create_server(("127.0.0.1", 0), backlog=0) as listener:
        fillers = [socket.socket() for _ in range(4)]
        try:
            for filler in fillers:
                filler.setblocking(False)
                filler.connect_ex(listener.getsockname())
            yield listener.getsockname()[1]
        finally:
            for filler in fillers:
                filler.close()


class TestTimeouts:
    """``--timeout`` bounds the connect and every request, against one
    server and against a fleet, with one ``error:`` line and exit 2."""

    @staticmethod
    def run_cli(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv], cwd=REPO_ROOT,
            env=env, capture_output=True, text=True, timeout=60)

    def expect_timeout(self, target, tmp_path, cluster):
        if cluster:
            spec = tmp_path / "cluster.json"
            write_cluster_spec(spec, [("127.0.0.1", target)] * 2, [])
            flags, shown = ["--cluster", str(spec)], f"cluster {spec}"
        else:
            flags, shown = ["--port", str(target)], f"127.0.0.1:{target}"
        done = self.run_cli("query", "ping", *flags, "--timeout", "0.5")
        assert done.returncode == EXIT_DATA
        assert done.stdout == ""
        assert done.stderr == (
            f"error: request to {shown} timed out after 0.5s\n")

    @pytest.mark.parametrize("cluster", [False, True],
                             ids=["server", "cluster"])
    def test_request_timeout(self, silent_listener, tmp_path, cluster):
        self.expect_timeout(silent_listener, tmp_path, cluster)

    @pytest.mark.parametrize("cluster", [False, True],
                             ids=["server", "cluster"])
    def test_connect_timeout(self, full_backlog, tmp_path, cluster):
        self.expect_timeout(full_backlog, tmp_path, cluster)


class TestLintExitCodes:
    """``repro lint`` passes the lint module's documented contract
    through unchanged: 0 clean, 1 findings, 2 syntax/argument error."""

    FIXTURES = "tests/fixtures/lint"

    def test_clean_paths_exit_zero(self, capsys):
        argv = ["lint", f"{self.FIXTURES}/rs005_good.py"]
        assert exit_code(argv, capsys) == 0

    def test_list_rules_exits_zero(self, capsys):
        assert exit_code(["lint", "--list-rules"], capsys) == 0

    def test_findings_exit_one(self, capsys):
        argv = ["lint", f"{self.FIXTURES}/rs005_bad.py"]
        assert exit_code(argv, capsys) == 1

    def test_flow_rule_findings_exit_one(self, tmp_path, capsys):
        # Flow rules scope by path: stage the file under a synthetic
        # src/repro/service/ tree (the real fixtures live under tests/,
        # where the flow rules are inactive by design).
        module = tmp_path / "src" / "repro" / "service" / "leaky.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            '"""Leak."""\n'
            "def f(path):\n"
            "    handle = open(path)\n"
            "    data = handle.read()\n"
            "    handle.close()\n"
            "    return data\n"
        )
        code = main(["lint", "--select", "RS009-RS012", str(module)])
        captured = capsys.readouterr()
        assert code == 1
        assert "RS011" in captured.out

    def test_select_can_silence_findings(self, capsys):
        argv = ["lint", "--select", "RS001",
                f"{self.FIXTURES}/rs005_bad.py"]
        assert exit_code(argv, capsys) == 0

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert exit_code(["lint", str(broken)], capsys) == 2

    def test_bad_rule_spec_exits_two(self, capsys):
        assert exit_code(["lint", "--select", "RS099", "src"], capsys) == 2

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        argv = ["lint", "--baseline", missing,
                f"{self.FIXTURES}/rs005_good.py"]
        assert exit_code(argv, capsys) == 2

    def test_baseline_roundtrip_through_cli(self, tmp_path, capsys):
        bad = f"{self.FIXTURES}/rs005_bad.py"
        assert main(["lint", "--format", "json", bad]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        argv = ["lint", "--baseline", str(baseline), bad]
        assert exit_code(argv, capsys) == 0

    def test_bad_format_choice_is_usage_error(self, capsys):
        argv = ["lint", "--format", "yaml"]
        assert exit_code(argv, capsys) == EXIT_USAGE
