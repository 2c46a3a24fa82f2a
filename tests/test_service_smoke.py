"""End-to-end smoke: ``repro serve`` + ``repro query`` round trip.

This is the CI ``service-smoke`` target: one real server process, the
stock client CLI against it — create a table, stream a file in, read
top-k and estimates back (a ``vectorized`` table's batched estimates
checked against an offline sketch), scrape metrics, stop gracefully.
Fast and self-contained; everything else about the service has deeper
tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import EXIT_DATA, main
from repro.core.countsketch import CountSketch
from repro.core.vectorized import VectorizedCountSketch
from repro.experiments.report import format_table
from repro.streams.io import write_stream_text

REPO_ROOT = Path(__file__).parent.parent

STREAM = (["deep learning"] * 12 + ["sketch"] * 8 + ["stream"] * 5
          + ["rare query"])


@pytest.fixture()
def live_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--table", "queries:topk:k=5,depth=4,width=256,seed=5",
            # Narrow on purpose: colliding keys make every estimate
            # depend on the exact hashes.
            "--table", "vecs:vectorized:depth=3,width=4,seed=5",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            break
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited early: {proc.communicate()[1]}")
    else:
        proc.kill()
        raise AssertionError("server did not report its port in time")
    port = line.rsplit(":", 1)[1].strip()
    try:
        yield proc, port
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


def query(port, verb, *argv):
    return main(["query", verb, "--port", port, "--timeout", "15", *argv])


class TestServiceSmoke:
    def test_serve_ingest_query_shutdown(self, live_server, tmp_path,
                                         capsys):
        proc, port = live_server
        stream_file = tmp_path / "stream.txt"
        write_stream_text(stream_file, STREAM)

        assert query(port, "ping") == 0
        assert '"version": 3' in capsys.readouterr().out

        assert query(port, "create",
                     "--table", "flows:sketch:depth=4,width=64") == 0
        capsys.readouterr()

        assert query(port, "ingest", "--table", "queries",
                     "--input", str(stream_file)) == 0
        out = capsys.readouterr().out
        assert f"ingested {len(STREAM)} records" in out

        assert query(port, "topk", "--table", "queries") == 0
        out = capsys.readouterr().out
        assert "deep learning" in out
        assert "12" in out

        assert query(port, "estimate", "--table", "queries",
                     "deep learning", "absent") == 0
        out = capsys.readouterr().out
        assert "deep learning" in out

        assert query(port, "stats") == 0
        out = capsys.readouterr().out
        assert '"records_applied"' in out
        assert '"flows"' in out and '"queries"' in out

        assert query(port, "metrics") == 0
        out = capsys.readouterr().out
        assert "service_requests_total" in out
        assert "service_table_queries_applied_records_total" in out

        assert query(port, "shutdown") == 0
        capsys.readouterr()
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "graceful stop complete" in out

    def test_binary_wire_session(self, live_server, tmp_path, capsys):
        proc, port = live_server
        stream_file = tmp_path / "stream.txt"
        write_stream_text(stream_file, STREAM)

        assert query(port, "ping") == 0
        assert "binary-ingest-v1" in capsys.readouterr().out

        assert query(port, "create",
                     "--table", "flows:sketch:depth=4,width=64") == 0
        capsys.readouterr()

        # topk table → lossless packed keys on the wire.
        assert query(port, "ingest",
                     "--table", "queries", "--input", str(stream_file)) == 0
        assert f"ingested {len(STREAM)} records" in capsys.readouterr().out

        # linear sketch → raw pre-encoded 64-bit keys.
        assert query(port, "ingest",
                     "--table", "flows", "--input", str(stream_file)) == 0
        capsys.readouterr()

        assert query(port, "topk", "--table", "queries") == 0
        out = capsys.readouterr().out
        assert "deep learning" in out
        assert "12" in out

        assert query(port, "estimate", "--table", "flows",
                     "deep learning", "absent") == 0
        assert "deep learning" in capsys.readouterr().out

        assert query(port, "shutdown") == 0
        capsys.readouterr()
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "graceful stop complete" in out

    def test_vectorized_estimates_match_offline(self, live_server, tmp_path,
                                                capsys):
        proc, port = live_server
        stream_file = tmp_path / "stream.txt"
        write_stream_text(stream_file, STREAM)

        assert query(port, "ingest",
                     "--table", "vecs", "--input", str(stream_file)) == 0
        assert f"ingested {len(STREAM)} records" in capsys.readouterr().out

        offline = VectorizedCountSketch(3, 4, seed=5)
        offline.update_batch(STREAM)
        probes = ["deep learning", "sketch", "stream", "rare query",
                  "absent"]
        assert query(port, "estimate", "--table", "vecs", *probes) == 0
        expected = format_table(
            ["item", "estimate"],
            [[item, offline.estimate(item)] for item in probes],
            title="live estimates from table 'vecs'",
        )
        assert expected in capsys.readouterr().out

        assert query(port, "shutdown") == 0
        capsys.readouterr()
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "graceful stop complete" in out

    def test_bad_line_reports_the_acknowledged_prefix(self, live_server,
                                                      tmp_path, capsys):
        proc, port = live_server
        ints = list(range(3000))
        lines = [str(value) for value in ints]
        lines[2499] = "oops"
        stream_file = tmp_path / "ints.txt"
        stream_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert query(port, "create", "--table",
                     "ints:sketch:depth=4,width=64,seed=5") == 0
        capsys.readouterr()
        ingest = ["--table", "ints", "--input", str(stream_file),
                  "--int-keys", "--batch-size", "1000"]
        assert query(port, "ingest", *ingest) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == (f"error: {stream_file}, line 2500: not an integer: "
                       "'oops' (2000 records were acknowledged before it; "
                       "resume with --skip 2000)\n")

        def applied():
            assert query(port, "stats", "--table", "ints") == 0
            stats = json.loads(capsys.readouterr().out)
            return stats["table"]["records_applied"]

        assert applied() == 2000
        lines[2499] = "2499"
        stream_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert query(port, "ingest", *ingest, "--skip", "2000") == 0
        assert "ingested 1000 records" in capsys.readouterr().out
        assert applied() == len(ints)

        offline = CountSketch(4, 64, seed=5)
        offline.update_batch(ints)
        probes = [0, 1999, 2000, 2499, 2999]
        assert query(port, "estimate", "--table", "ints", "--int-keys",
                     *map(str, probes)) == 0
        expected = format_table(
            ["item", "estimate"],
            [[str(item), offline.estimate(item)] for item in probes],
            title="live estimates from table 'ints'",
        )
        assert expected in capsys.readouterr().out

        assert query(port, "shutdown") == 0
        capsys.readouterr()
        proc.communicate(timeout=30)
