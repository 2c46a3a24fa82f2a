"""The format-stability gate: golden snapshots must keep decoding.

``tests/fixtures/store/`` holds one committed ``.rcs`` file per summary
type plus ``golden.json`` with their expected estimates.  These bytes
are the contract with every snapshot already written to disk in the
wild: this module fails if

* a committed fixture stops decoding (a reader regression),
* its estimates drift (a semantic regression),
* re-encoding the decoded summary produces different bytes (a writer
  regression — snapshots must stay a deterministic function of state), or
* building the summary afresh from the generator's stream produces
  different bytes (an update-path regression).

After an *intentional* format change, bump ``FORMAT_VERSION``, keep a
reader for version 1, and regenerate via
``tests/fixtures/store/generate_fixtures.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.core.windowed import JumpingWindowSketch
from repro.store import dumps, load
from repro.store.format import TYPE_CODES, decode_frame
from tests.fixtures.store.generate_fixtures import build_summaries

FIXTURES = Path(__file__).parent / "fixtures" / "store"
GOLDEN = json.loads((FIXTURES / "golden.json").read_text(encoding="utf-8"))

EXPECTED_TYPES = {
    "dense": CountSketch,
    "sparse": SparseCountSketch,
    "vectorized": VectorizedCountSketch,
    "topk": TopKTracker,
    "window": JumpingWindowSketch,
}

PROBES = ["alpha", "beta", "gamma", "missing", 17, ("pair", 1), b"\x00raw"]


def fixture_names():
    return sorted(GOLDEN)


class TestGoldenFixtures:
    def test_one_fixture_per_summary_type(self):
        assert set(GOLDEN) == set(EXPECTED_TYPES) == set(TYPE_CODES)

    @pytest.mark.parametrize("name", fixture_names())
    def test_decodes_to_the_right_type(self, name):
        summary = load(FIXTURES / GOLDEN[name]["file"])
        assert isinstance(summary, EXPECTED_TYPES[name])

    @pytest.mark.parametrize("name", fixture_names())
    def test_estimates_match_recorded_values(self, name):
        summary = load(FIXTURES / GOLDEN[name]["file"])
        recorded = GOLDEN[name]["estimates"]
        for item in PROBES:
            assert summary.estimate(item) == recorded[repr(item)], item

    @pytest.mark.parametrize("name", fixture_names())
    def test_reencoding_is_byte_identical(self, name):
        # decode → re-encode must reproduce the committed bytes exactly;
        # anything else means freshly written snapshots no longer match
        # the format existing files use.
        data = (FIXTURES / GOLDEN[name]["file"]).read_bytes()
        assert dumps(load(FIXTURES / GOLDEN[name]["file"])) == data

    @pytest.mark.parametrize("name", fixture_names())
    def test_rebuilt_fixture_is_byte_identical(self, name):
        # Building the fixture afresh pins the update paths too: any
        # drift in hashing or counters shows up as different bytes.
        data = (FIXTURES / GOLDEN[name]["file"]).read_bytes()
        assert dumps(build_summaries()[name]) == data

    @pytest.mark.parametrize("name", fixture_names())
    def test_declared_type_code_is_stable(self, name):
        data = (FIXTURES / GOLDEN[name]["file"]).read_bytes()
        type_code, __, __ = decode_frame(data)
        assert type_code == TYPE_CODES[name]
