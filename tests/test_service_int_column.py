"""The packed layout's int64 column: an all-int batch is packed and
unpacked in one array pass, with the bytes and cut points of the per-key
``pack_key`` path; every other batch keeps that path.  And the query
side: a binary readout answer is accepted only as the int64 block of
the request it answers.
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.client as client_module
import repro.service.protocol as protocol_module
from repro.cluster.coordinator import ClusterCoordinator
from repro.service.client import (
    AsyncServiceClient,
    InProcessTransport,
    ServiceError,
    ingest_columns,
    item_column,
)
from repro.service.protocol import (
    BINARY_MAGIC,
    BINARY_OP_ROWS_ANSWER,
    BINARY_VERSION,
    WireProtocolError,
    normalize_key,
    pack_binary_ingest,
    pack_frame,
    pack_key,
    pack_rows_answer,
    unpack_frame,
)
from repro.service.server import SketchServer
from repro.service.tables import TableSpec

TOPK = TableSpec("t", kind="topk", depth=4, width=128, seed=3, k=8)

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

ints = st.one_of(
    st.integers(I64_MIN, I64_MAX),
    st.sampled_from([I64_MIN, I64_MAX, 2**63, I64_MIN - 1, 2**64, 0, -1]),
    st.integers(-(2**80), 2**80),
)
#: Keys other than Python ints; the floats, strs and bytes each pack to
#: 9 bytes, the length of a packed int.
others = st.one_of(
    st.booleans(),
    st.integers(I64_MIN, I64_MAX).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.characters(max_codepoint=127), min_size=4, max_size=4),
    st.binary(min_size=4, max_size=4),
)
batches = st.one_of(
    st.lists(ints, max_size=40),
    st.lists(st.one_of(ints, others), max_size=40),
    st.lists(others, max_size=40),
)


def loop_frames(values, weights, *, wait):
    """The per-key path: every key through ``pack_key``, the frames cut
    greedily on the byte budget, request ids counted from 1."""
    budget = client_module.MAX_FRAME_BYTES - 4096
    blobs = [pack_key(value) for value in values]
    cuts, used = [0], 0
    for index, blob in enumerate(blobs):
        cost = len(blob) + 8
        if index > cuts[-1] and used + cost > budget:
            cuts.append(index)
            used = 0
        used += cost
    cuts.append(len(blobs))
    return [
        (pack_binary_ingest("t", request_id, blobs[start:stop],
                            weights[start:stop], raw=False,
                            wait=wait and stop == len(blobs)),
         slice(start, stop))
        for request_id, (start, stop) in enumerate(zip(cuts, cuts[1:]),
                                                   start=1)
    ]


def column_frames(values, weights=None, *, wait=True):
    """The frames a fresh client builds for ``values`` on a ``topk`` table."""
    client = AsyncServiceClient(InProcessTransport(SketchServer()))
    keys, weights = ingest_columns(values, weights, TOPK)
    return client._build_frames("t", keys, weights, wait=wait, raw=False)


def exact(items):
    """Items with their types, floats by repr (nan, -0.0)."""
    return [(type(item), repr(item)) for item in items]


def decoded(frames):
    return [item for frame, _ in frames for item in unpack_frame(frame).items]


@settings(max_examples=300, deadline=None)
@given(batches)
def test_frames_equal_the_per_key_path(values):
    weights = np.ones(len(values), dtype=np.int64)
    frames = column_frames(values)
    assert frames == loop_frames(values, weights, wait=True)
    assert exact(decoded(frames)) == exact([normalize_key(v) for v in values])


class TestLayouts:
    def test_int_batches_become_int64_columns(self):
        assert item_column([1, -2, I64_MAX, I64_MIN]).dtype == np.int64
        array = np.arange(5, dtype=np.int32)
        assert item_column(array).dtype == np.int64
        assert item_column(np.array([2**63 - 1], dtype=np.uint64)).dtype == np.int64

    @pytest.mark.parametrize("values", [
        [1, 2.5, 3], [1, True], [1, 2**63], [np.int64(1), 2],
        np.array([2**63, 1], dtype=np.uint64), np.array([True, False]),
    ], ids=["float", "bool", "past-int64", "numpy-scalar", "uint64-past-int64",
            "bool-array"])
    def test_other_batches_stay_lists(self, values):
        column = item_column(values)
        assert isinstance(column, list)
        weights = np.ones(len(column), dtype=np.int64)
        assert column_frames(values) == loop_frames(column, weights, wait=True)
        assert exact(decoded(column_frames(values))) == exact(
            [normalize_key(value) for value in list(values)])

    @pytest.mark.parametrize("values", [
        [float(i) + 0.5 for i in range(7)], ["abcd"] * 7, [b"wxyz"] * 7,
        [1, 2.5, 3],
    ], ids=["floats", "strs", "bytes", "int-float-int"])
    def test_nine_byte_blocks_of_other_keys_decode_key_by_key(
            self, values, monkeypatch):
        blobs = [pack_key(value) for value in values]
        assert len(b"".join(blobs)) == 9 * len(values)
        frame = pack_binary_ingest("t", 1, blobs, np.ones(len(values),
                                                          dtype=np.int64),
                                   raw=False)
        calls = []
        unpack_key = protocol_module.unpack_key

        def counted(buffer, offset=0):
            calls.append(offset)
            return unpack_key(buffer, offset)

        monkeypatch.setattr(protocol_module, "unpack_key", counted)
        assert exact(unpack_frame(frame).items) == exact(values)
        assert len(calls) == len(values)

    def test_int_block_decodes_in_one_pass(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "unpack_key", None)
        values = [I64_MIN, -1, 0, 7, I64_MAX]
        (frame, _), = column_frames(values)
        assert exact(unpack_frame(frame).items) == exact(values)

    def test_a_large_batch_is_cut_where_the_greedy_loop_cuts(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 16384)
        monkeypatch.setattr(client_module, "MAX_FRAME_BYTES", 16384)
        values = list(range(-1500, 1500))
        weights = np.arange(1, 3001, dtype=np.int64)
        frames = column_frames(values, weights, wait=False)
        assert len(frames) == 5
        assert frames == loop_frames(values, weights, wait=False)
        assert decoded(frames) == values

    def test_column_layout_refuses_other_arrays(self):
        weights = np.ones(2, dtype=np.int64)
        with pytest.raises(protocol_module.WireProtocolError, match="int64"):
            pack_binary_ingest("t", 1, np.zeros(2, dtype=np.uint64), weights,
                               raw=False)
        with pytest.raises(protocol_module.WireProtocolError, match="length"):
            pack_binary_ingest("t", 1, np.zeros(3, dtype=np.int64), weights,
                               raw=False)


def run(coro):
    return asyncio.run(coro)


class TestClusterTopkColumns:
    @pytest.mark.parametrize("items", [
        np.arange(-20, 60, dtype=np.int64) % 7 - 3,
        np.array([2**63 + 5, 3, 2**64 - 1, 3, 2**63 + 5, 3], dtype=np.uint64),
    ], ids=["int64", "uint64-past-int64"])
    def test_arrays_reach_the_heaps_as_python_ints(self, items):
        async def go():
            servers = [SketchServer([TOPK]) for _ in range(2)]
            cluster = ClusterCoordinator.in_process(servers)
            await cluster.ingest_items("t", items, np.full(items.size, 2),
                                       wait=True)
            offline = TOPK.build().sketch
            offline.update_batch(items.tolist(), [2] * items.size)
            top = await cluster.topk("t", 8)
            assert {item for item, _ in top} == set(items.tolist())
            assert all(type(item) is int for item, _ in top)
            assert [score for _, score in top] == offline.estimate_batch(
                [item for item, _ in top]).tolist()
            for server in servers:
                await server.stop()

        run(go())


class _Answers:
    """A transport answering each readout request with the frame
    ``answer(request)`` builds, parsed as a client transport parses it."""

    def __init__(self, answer):
        self.answer = answer

    async def request_bytes(self, frame):
        return unpack_frame(self.answer(unpack_frame(frame)))


def _readouts(depth, n):
    return np.arange(depth * n, dtype=np.int64).reshape(depth, n)


def _raw_answer(request_id, n, depth, block):
    """An answer frame with any header and block, as a faulty shard
    could write it."""
    body = struct.pack("<BBBBQII", BINARY_MAGIC, BINARY_VERSION,
                       BINARY_OP_ROWS_ANSWER, 0, request_id, n,
                       depth) + block
    return struct.pack(">I", len(body)) + body


MALFORMED_ANSWERS = [
    pytest.param(lambda r: pack_rows_answer(r.request_id + 1,
                                            _readouts(2, r.keys.size)),
                 id="another-request-id"),
    pytest.param(lambda r: pack_rows_answer(r.request_id,
                                            _readouts(2, r.keys.size - 1)),
                 id="one-key-short"),
    pytest.param(lambda r: _raw_answer(r.request_id, r.keys.size, 0, b""),
                 id="depth-0"),
    pytest.param(lambda r: _raw_answer(r.request_id, r.keys.size, 2,
                                       bytes(8 * (2 * r.keys.size - 1))),
                 id="short-block"),
    pytest.param(lambda r: _raw_answer(r.request_id, r.keys.size, 2,
                                       bytes(8 * (2 * r.keys.size + 1))),
                 id="padded-block"),
    pytest.param(lambda r: pack_frame({"ok": True, "id": r.request_id}),
                 id="json-ok-without-a-block"),
]


class TestMalformedRows:
    @pytest.mark.parametrize("answer", MALFORMED_ANSWERS)
    def test_client_refuses(self, answer):
        client = AsyncServiceClient(_Answers(answer))
        with pytest.raises((ServiceError, WireProtocolError)) as excinfo:
            run(client.estimate_rows("t", ["a", "b"]))
        if isinstance(excinfo.value, ServiceError):
            assert excinfo.value.code == "internal"

    @pytest.mark.parametrize("answer", MALFORMED_ANSWERS)
    def test_coordinator_refuses(self, answer):
        good = _Answers(lambda r: pack_rows_answer(
            r.request_id, _readouts(2, r.keys.size)))
        cluster = ClusterCoordinator([AsyncServiceClient(good),
                                      AsyncServiceClient(_Answers(answer))])
        with pytest.raises((ServiceError, WireProtocolError)):
            run(cluster.estimate("t", ["a", "b"]))

    def test_shards_of_different_depths_are_refused(self):
        cluster = ClusterCoordinator([
            AsyncServiceClient(_Answers(lambda r: pack_rows_answer(
                r.request_id, _readouts(1, r.keys.size)))),
            AsyncServiceClient(_Answers(lambda r: pack_rows_answer(
                r.request_id, _readouts(2, r.keys.size))))])
        with pytest.raises(ServiceError, match="different shapes") as excinfo:
            run(cluster.estimate_rows("t", ["a", "b"]))
        assert excinfo.value.code == "internal"

    def test_well_formed_rows_pass_as_ints(self):
        extremes = np.array([[1, 2**63 - 1], [-2, -(2**63)]], dtype=np.int64)
        client = AsyncServiceClient(_Answers(
            lambda r: pack_rows_answer(r.request_id, extremes)))
        rows = run(client.estimate_rows("t", ["a", "b"]))
        assert rows == [[1, -2], [2**63 - 1, -(2**63)]]
        assert all(type(value) is int for row in rows for value in row)
