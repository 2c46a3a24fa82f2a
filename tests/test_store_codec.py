"""Round-trip exactness for every summary type through the codec.

The contract under test: ``loads(dumps(s))`` rebuilds a summary that is
bit-for-bit equivalent — same counters, same estimates, same top-k
output, same merge compatibility — and keeps behaving identically when
updates continue after the reload.  Property-based streams (hypothesis)
drive the five types through the same assertions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.core.windowed import JumpingWindowSketch
from repro.store import (
    SnapshotFormatError,
    dumps,
    inspect,
    load,
    load_with_meta,
    loads,
    save,
)
from repro.store.format import TYPE_CODES, decode_frame, encode_frame

ITEMS = st.one_of(
    st.integers(min_value=0, max_value=60),
    st.sampled_from(["alpha", "beta", "gamma", "delta"]),
    st.sampled_from([b"\x00raw", ("pair", 1), (2, (3, "deep"))]),
)
STREAMS = st.lists(ITEMS, max_size=100)

#: Fixed probe set covering every supported item kind.
PROBES = ["alpha", "missing", 0, 17, b"\x00raw", ("pair", 1)]


def build_dense(items):
    sketch = CountSketch(3, 16, seed=5)
    sketch.extend(items)
    return sketch


def build_sparse(items):
    sketch = SparseCountSketch(3, 16, seed=5)
    sketch.extend(items)
    return sketch


def build_vectorized(items):
    sketch = VectorizedCountSketch(3, 16, seed=5)
    sketch.extend(items)
    return sketch


def build_topk(items):
    tracker = TopKTracker(4, depth=3, width=16, seed=5)
    for item in items:
        tracker.update(item)
    return tracker


def build_topk_vectorized(items):
    tracker = TopKTracker(4, sketch=VectorizedCountSketch(3, 16, seed=5))
    for item in items:
        tracker.update(item)
    return tracker


def build_window(items):
    window = JumpingWindowSketch(24, buckets=4, depth=3, width=16, seed=5)
    for item in items:
        window.update(item)
    return window


BUILDERS = [
    pytest.param(build_dense, id="dense"),
    pytest.param(build_sparse, id="sparse"),
    pytest.param(build_vectorized, id="vectorized"),
    pytest.param(build_topk, id="topk"),
    pytest.param(build_topk_vectorized, id="topk-vectorized"),
    pytest.param(build_window, id="window"),
]


def assert_state_equal(a, b):
    """Recursive state_dict equality, numpy-array aware."""
    assert type(a) is type(b)
    state_a, state_b = a.state_dict(), b.state_dict()
    _assert_tree_equal(state_a, state_b)


def _assert_tree_equal(a, b):
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_tree_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for left, right in zip(a, b, strict=True):
            _assert_tree_equal(left, right)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    else:
        assert a == b


class TestRoundTrip:
    @pytest.mark.parametrize("build", BUILDERS)
    @settings(max_examples=20, deadline=None)
    @given(items=STREAMS)
    def test_state_and_estimates_survive(self, build, items):
        original = build(items)
        restored = loads(dumps(original))
        assert_state_equal(original, restored)
        for probe in PROBES:
            assert restored.estimate(probe) == original.estimate(probe)

    @pytest.mark.parametrize("build", BUILDERS)
    @settings(max_examples=15, deadline=None)
    @given(items=STREAMS, tail=STREAMS)
    def test_continued_updates_equivalent(self, build, items, tail):
        # A reloaded summary is not a read-only replica: feeding the same
        # suffix to both copies keeps them bit-for-bit identical.
        original = build(items)
        restored = loads(dumps(original))
        for item in tail:
            original.update(item)
            restored.update(item)
        assert_state_equal(original, restored)

    @settings(max_examples=20, deadline=None)
    @given(items=STREAMS)
    def test_topk_output_identical(self, items):
        original = build_topk(items)
        restored = loads(dumps(original))
        assert restored.top() == original.top()

    @settings(max_examples=15, deadline=None)
    @given(items=STREAMS, other_items=STREAMS)
    def test_merge_compatibility_preserved(self, items, other_items):
        # §3.2: the reloaded sketch still shares the hash family, so it
        # merges with live siblings — and the merge equals the original's.
        sibling = build_dense(other_items)
        via_original = build_dense(items) + sibling
        via_restored = loads(dumps(build_dense(items))) + sibling
        assert via_original == via_restored

    @pytest.mark.parametrize("build", BUILDERS)
    def test_snapshot_bytes_deterministic(self, build):
        items = ["a", "b", "a", 3, 3, 3, ("t", 1)] * 5
        data = dumps(build(items))
        assert dumps(build(items)) == data
        assert dumps(loads(data)) == data


class TestFiles:
    def test_save_load(self, tmp_path):
        path = tmp_path / "sketch.rcs"
        original = build_dense(["x"] * 9 + ["y"] * 4)
        written = save(original, path)
        assert written == path.stat().st_size
        assert load(path) == original

    def test_meta_round_trip(self, tmp_path):
        path = tmp_path / "sketch.rcs"
        meta = {"items_consumed": 13, "labels": ["a", "b"], "nested": {"x": 1}}
        save(build_dense(["x"]), path, meta=meta)
        __, restored_meta = load_with_meta(path)
        assert restored_meta == meta

    def test_missing_meta_is_empty_dict(self, tmp_path):
        path = tmp_path / "sketch.rcs"
        save(build_dense(["x"]), path)
        assert load_with_meta(path)[1] == {}

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "sketch.rcs"
        save(build_dense(["x"] * 5), path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="CRC"):
            load(path)

    def test_non_snapshot_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-snapshot.rcs"
        path.write_bytes(b"just some text, definitely not a frame")
        with pytest.raises(SnapshotFormatError):
            load(path)


class TestInspect:
    def test_dense_header_summary(self, tmp_path):
        path = tmp_path / "sketch.rcs"
        save(build_dense(["x"] * 7), path, meta={"note": "hi"})
        info = inspect(path)
        assert info["type"] == "dense"
        assert info["format_version"] == 1
        assert info["file_bytes"] == path.stat().st_size
        assert info["payload_bytes"] == 3 * 16 * 8
        assert info["header"]["depth"] == 3
        assert info["header"]["width"] == 16
        assert info["meta"] == {"note": "hi"}
        # Bulk fields stay out of the summary view.
        assert "bucket_coefficients" not in info["header"]
        assert "sign_coefficients" not in info["header"]

    def test_topk_reports_heap_size_not_contents(self, tmp_path):
        path = tmp_path / "topk.rcs"
        save(build_topk(["a", "a", "b", "c"]), path)
        info = inspect(path)
        assert info["type"] == "topk"
        assert info["header"]["heap_size"] == 3
        assert "heap" not in info["header"]
        assert "bucket_coefficients" not in info["header"]["sketch"]


class TestValidation:
    def test_unsupported_summary_type(self):
        with pytest.raises(TypeError, match="cannot snapshot"):
            dumps(object())

    def _reencode_with_header(self, summary, mutate):
        type_code, header, payload = decode_frame(dumps(summary))
        mutate(header)
        return encode_frame(type_code, header, payload)

    def test_missing_header_field_rejected(self):
        data = self._reencode_with_header(
            build_dense(["x"]), lambda h: h.pop("seed")
        )
        with pytest.raises(SnapshotFormatError, match="missing field"):
            loads(data)

    def test_dimension_payload_mismatch_rejected(self):
        data = self._reencode_with_header(
            build_dense(["x"]), lambda h: h.update(depth=4)
        )
        with pytest.raises(SnapshotFormatError, match="payload too short"):
            loads(data)

    def test_oversized_payload_rejected(self):
        type_code, header, payload = decode_frame(dumps(build_dense(["x"])))
        data = encode_frame(type_code, header, payload + b"\x00" * 8)
        with pytest.raises(SnapshotFormatError, match="unexpected byte"):
            loads(data)

    def test_non_object_meta_rejected(self, tmp_path):
        data = self._reencode_with_header(
            build_dense(["x"]), lambda h: h.update(meta=[1, 2])
        )
        path = tmp_path / "bad-meta.rcs"
        path.write_bytes(data)
        with pytest.raises(SnapshotFormatError, match="meta"):
            load_with_meta(path)

    def test_invalid_state_rejected_as_format_error(self):
        # Validation from from_state_dict (a ValueError) surfaces as a
        # SnapshotFormatError: the file, not the caller, is at fault.
        data = self._reencode_with_header(
            build_dense(["x"]),
            lambda h: h.update(
                bucket_coefficients=h["bucket_coefficients"][:-1]
            ),
        )
        with pytest.raises(SnapshotFormatError, match="rejected"):
            loads(data)

    def test_sparse_row_lengths_must_match_depth(self):
        data = self._reencode_with_header(
            build_sparse(["x", "y"]),
            lambda h: h.update(row_lengths=h["row_lengths"][:-1]),
        )
        with pytest.raises(SnapshotFormatError, match="row_lengths"):
            loads(data)

    def test_type_codes_cover_all_builders(self):
        built = {
            decode_frame(dumps(build(["x"])))[0]
            for build in (
                build_dense, build_sparse, build_vectorized,
                build_topk, build_window,
            )
        }
        assert built == set(TYPE_CODES.values())
