"""Wire-protocol tests: frame codec, key round-trips, error shapes.

The service speaks length-prefixed ASCII JSON; stream keys reuse the
snapshot item codec after NumPy-scalar normalization.  The properties
here pin the two contracts that make mid-stream answers exact: any key
the sketches accept survives a wire round-trip unchanged (same
``encode_key`` hash), and malformed frames are refused loudly rather
than resynchronized silently.
"""

from __future__ import annotations

import asyncio
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.encode import encode_key
from repro.service.protocol import (
    BINARY_MAGIC,
    BINARY_VERSION,
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    BinaryIngest,
    FrameTooLargeError,
    WireProtocolError,
    binary_ingest_capacity,
    decode_wire_key,
    encode_wire_key,
    error_response,
    normalize_key,
    ok_response,
    pack_binary_ingest,
    pack_frame,
    pack_key,
    read_frame,
    unpack_frame,
    unpack_key,
)

#: Lone low surrogates, exactly what ``errors="surrogateescape"``
#: produces when decoding byte-garbled query logs.
_SURROGATES = st.integers(min_value=0xDC80, max_value=0xDCFF).map(chr)

SURROGATE_TEXT = st.lists(
    st.one_of(st.text(max_size=12), _SURROGATES), max_size=6
).map("".join)

#: Every key shape the sketches accept.
KEYS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    SURROGATE_TEXT,
    st.binary(max_size=32),
    st.tuples(st.integers(), SURROGATE_TEXT),
)

#: The packed binary key codec additionally carries floats bit-exactly
#: (NaN and infinities included) and deeper tuple nesting.
PACKED_KEYS = st.one_of(
    KEYS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.tuples(KEYS, st.floats(allow_nan=True), st.booleans()),
)


def keys_bit_equal(a, b):
    """Key equality with bit-exact float semantics (NaN == NaN)."""
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(keys_bit_equal, a, b))
    return type(a) is type(b) and a == b


def frame_roundtrip(message):
    return unpack_frame(pack_frame(message))


def read_from_bytes(data: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestKeyRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(KEYS)
    def test_wire_key_roundtrips_through_a_frame(self, key):
        message = {"op": "estimate", "keys": [encode_wire_key(key)]}
        decoded = decode_wire_key(frame_roundtrip(message)["keys"][0])
        assert decoded == normalize_key(key)
        assert encode_key(decoded) == encode_key(key)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=64))
    def test_surrogateescaped_strings_survive(self, raw):
        # Reading a garbled log line never raises and never changes the
        # key: the frame is ASCII (\uDCxx escapes) on the wire.
        text = raw.decode("utf-8", errors="surrogateescape")
        frame = pack_frame({"key": encode_wire_key(text)})
        frame[4:].decode("ascii")  # the JSON payload is plain ASCII
        assert decode_wire_key(unpack_frame(frame)["key"]) == text

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_np_int64_collapses_to_python_int(self, value):
        decoded = decode_wire_key(
            frame_roundtrip({"k": encode_wire_key(np.int64(value))})["k"]
        )
        assert decoded == value
        assert type(decoded) is int
        assert encode_key(decoded) == encode_key(np.int64(value))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_np_uint64_collapses_to_python_int(self, value):
        decoded = decode_wire_key(
            frame_roundtrip({"k": encode_wire_key(np.uint64(value))})["k"]
        )
        assert decoded == value
        assert encode_key(decoded) == encode_key(np.uint64(value))

    def test_np_bool_and_bytearray_normalize(self):
        assert normalize_key(np.bool_(True)) is True
        assert normalize_key(bytearray(b"ab")) == b"ab"
        assert normalize_key((np.int64(3), np.bool_(False))) == (3, False)

    def test_decode_rejects_unknown_encodings(self):
        with pytest.raises(WireProtocolError):
            decode_wire_key({"__weird__": 1})
        with pytest.raises(WireProtocolError):
            decode_wire_key([1, 2])


class TestFrameCodec:
    def test_bytes_are_canonical(self):
        # sort_keys + compact separators: one message, one byte string.
        assert pack_frame({"b": 1, "a": 2}) == pack_frame({"a": 2, "b": 1})

    def test_header_is_big_endian_length(self):
        frame = pack_frame({"op": "ping"})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_truncated_header_rejected(self):
        with pytest.raises(WireProtocolError, match="truncated"):
            unpack_frame(b"\x00\x00")

    def test_length_mismatch_rejected(self):
        with pytest.raises(WireProtocolError, match="declares"):
            unpack_frame(pack_frame({"op": "ping"})[:-1])

    def test_oversize_declared_length_rejected(self):
        with pytest.raises(WireProtocolError, match="exceeds"):
            unpack_frame(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_non_json_payload_rejected(self):
        body = b"not json"
        with pytest.raises(WireProtocolError, match="not JSON"):
            unpack_frame(struct.pack(">I", len(body)) + body)

    def test_non_object_payload_rejected(self):
        body = b"[1,2]"
        with pytest.raises(WireProtocolError, match="JSON object"):
            unpack_frame(struct.pack(">I", len(body)) + body)

    def test_oversize_message_refused_on_send(self):
        with pytest.raises(WireProtocolError, match="exceeds"):
            pack_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(
                st.integers(), SURROGATE_TEXT, st.booleans(), st.none()
            ),
            max_size=6,
        )
    )
    def test_arbitrary_objects_roundtrip(self, message):
        assert frame_roundtrip(message) == message


class TestReadFrame:
    def test_clean_eof_returns_none(self):
        assert read_from_bytes(b"") is None

    def test_reads_consecutive_frames(self):
        data = pack_frame({"a": 1}) + pack_frame({"b": 2})

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return [
                await read_frame(reader),
                await read_frame(reader),
                await read_frame(reader),
            ]

        assert asyncio.run(go()) == [{"a": 1}, {"b": 2}, None]

    def test_eof_mid_header_raises(self):
        with pytest.raises(WireProtocolError, match="mid-header"):
            read_from_bytes(b"\x00\x00\x01")

    def test_eof_mid_frame_raises(self):
        with pytest.raises(WireProtocolError, match="mid-frame"):
            read_from_bytes(pack_frame({"a": 1})[:-2])

    def test_oversize_length_raises_before_reading_body(self):
        data = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"
        with pytest.raises(WireProtocolError, match="exceeds"):
            read_from_bytes(data)


class TestPackedKeyCodec:
    @settings(max_examples=200, deadline=None)
    @given(PACKED_KEYS)
    def test_pack_key_roundtrips_exactly(self, key):
        blob = pack_key(key)
        decoded, end = unpack_key(blob)
        assert end == len(blob)
        assert keys_bit_equal(decoded, normalize_key(key))
        assert encode_key(decoded) == encode_key(key)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(PACKED_KEYS, min_size=1, max_size=8))
    def test_concatenated_blobs_are_self_delimiting(self, keys):
        block = b"".join(pack_key(key) for key in keys)
        position = 0
        decoded = []
        while position < len(block):
            item, position = unpack_key(block, position)
            decoded.append(item)
        assert len(decoded) == len(keys)
        for got, want in zip(decoded, keys, strict=True):
            assert keys_bit_equal(got, normalize_key(want))

    def test_numpy_scalars_pack_like_python_twins(self):
        assert pack_key(np.int64(7)) == pack_key(7)
        assert pack_key(np.uint64(2**63)) == pack_key(2**63)
        assert pack_key(np.bool_(True)) == pack_key(True)
        assert pack_key(np.float64(2.5)) == pack_key(2.5)

    @settings(max_examples=100, deadline=None)
    @given(PACKED_KEYS, st.integers(min_value=1, max_value=4))
    def test_truncated_blob_rejected(self, key, cut):
        blob = pack_key(key)
        if cut >= len(blob):
            cut = len(blob)
        with pytest.raises(WireProtocolError, match="truncated"):
            unpack_key(blob[:-cut])

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireProtocolError, match="unknown packed key"):
            unpack_key(b"\xee\x00")

    def test_invalid_bool_byte_rejected(self):
        with pytest.raises(WireProtocolError, match="bool"):
            unpack_key(b"\x06\x02")

    def test_pathological_nesting_rejected_not_crash(self):
        # A tuple-of-tuple chain far deeper than any real key: the codec
        # must refuse it as a protocol error, not die on RecursionError.
        depth = 100_000
        blob = b"\x07\x01\x00\x00\x00" * depth + pack_key(1)
        with pytest.raises(WireProtocolError):
            unpack_key(blob)

    def test_unsupported_types_rejected_at_pack(self):
        for bad in (None, [1, 2], {"a": 1}, complex(1, 2), np.datetime64(7, "s")):
            with pytest.raises(WireProtocolError, match="unsupported key type"):
                pack_key(bad)


class TestBinaryIngestFrame:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**64 - 1),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
            ),
            min_size=1,
            max_size=32,
        ),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.booleans(),
    )
    def test_raw_frame_roundtrips(self, records, request_id, wait):
        keys = np.array([k for k, _ in records], dtype=np.uint64)
        weights = np.array([w for _, w in records], dtype=np.int64)
        frame = pack_binary_ingest(
            "queries", request_id, keys, weights, raw=True, wait=wait
        )
        parsed = unpack_frame(frame)
        assert isinstance(parsed, BinaryIngest)
        assert parsed.table == "queries"
        assert parsed.request_id == request_id
        assert parsed.wait is wait
        assert parsed.raw is True
        assert parsed.items is None
        np.testing.assert_array_equal(parsed.keys, keys)
        np.testing.assert_array_equal(parsed.weights, weights)
        assert len(parsed) == len(records)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(PACKED_KEYS, min_size=1, max_size=16),
        st.booleans(),
    )
    def test_packed_frame_roundtrips(self, keys, wait):
        blobs = [pack_key(key) for key in keys]
        weights = np.arange(1, len(keys) + 1, dtype=np.int64)
        frame = pack_binary_ingest(
            "tbl", 9, blobs, weights, raw=False, wait=wait
        )
        parsed = unpack_frame(frame)
        assert isinstance(parsed, BinaryIngest)
        assert parsed.raw is False
        assert parsed.keys is None
        np.testing.assert_array_equal(parsed.weights, weights)
        assert len(parsed.items) == len(keys)
        for got, want in zip(parsed.items, keys, strict=True):
            assert keys_bit_equal(got, normalize_key(want))
            assert encode_key(got) == encode_key(want)

    def test_payload_starts_with_magic_not_json(self):
        frame = pack_binary_ingest(
            "t", 1,
            np.array([3], dtype=np.uint64),
            np.array([1], dtype=np.int64),
            raw=True,
        )
        assert frame[4] == BINARY_MAGIC
        assert frame[4] != ord("{")  # JSON payloads start with '{'

    def test_utf8_table_names_roundtrip(self):
        frame = pack_binary_ingest(
            "requêtes-été", 1,
            np.array([3], dtype=np.uint64),
            np.array([1], dtype=np.int64),
            raw=True,
        )
        assert unpack_frame(frame).table == "requêtes-été"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(WireProtocolError, match="match in length"):
            pack_binary_ingest(
                "t", 1,
                np.array([1, 2], dtype=np.uint64),
                np.array([1], dtype=np.int64),
                raw=True,
            )

    def test_raw_mode_requires_uint64(self):
        with pytest.raises(WireProtocolError, match="uint64"):
            pack_binary_ingest(
                "t", 1,
                np.array([1], dtype=np.int64),
                np.array([1], dtype=np.int64),
                raw=True,
            )

    def test_unsupported_version_rejected(self):
        frame = bytearray(pack_binary_ingest(
            "t", 1,
            np.array([3], dtype=np.uint64),
            np.array([1], dtype=np.int64),
            raw=True,
        ))
        frame[5] = BINARY_VERSION + 1
        with pytest.raises(WireProtocolError, match="version"):
            unpack_frame(bytes(frame))

    def test_unknown_opcode_rejected(self):
        frame = bytearray(pack_binary_ingest(
            "t", 1,
            np.array([3], dtype=np.uint64),
            np.array([1], dtype=np.int64),
            raw=True,
        ))
        frame[6] = 0x7F
        with pytest.raises(WireProtocolError, match="opcode"):
            unpack_frame(bytes(frame))

    def test_truncated_and_padded_bodies_rejected(self):
        frame = pack_binary_ingest(
            "t", 1,
            np.array([3, 4], dtype=np.uint64),
            np.array([1, 1], dtype=np.int64),
            raw=True,
        )
        body = frame[4:]
        short = struct.pack(">I", len(body) - 8) + body[:-8]
        with pytest.raises(WireProtocolError, match="truncated"):
            unpack_frame(short)
        padded = struct.pack(">I", len(body) + 2) + body + b"\x00\x00"
        with pytest.raises(WireProtocolError, match="trailing"):
            unpack_frame(padded)

    def test_capacity_fills_but_never_exceeds_the_frame_limit(self):
        capacity = binary_ingest_capacity("queries")
        assert capacity * 16 <= MAX_FRAME_BYTES
        keys = np.zeros(capacity, dtype=np.uint64)
        weights = np.ones(capacity, dtype=np.int64)
        frame = pack_binary_ingest("queries", 1, keys, weights, raw=True)
        assert len(frame) - 4 <= MAX_FRAME_BYTES
        with pytest.raises(FrameTooLargeError):
            pack_binary_ingest(
                "queries", 1,
                np.zeros(capacity + 1, dtype=np.uint64),
                np.ones(capacity + 1, dtype=np.int64),
                raw=True,
            )


class TestNonFiniteJsonRegression:
    """pack_frame silently emitted NaN/Infinity tokens before the sweep."""

    def test_nan_payload_refused_on_send(self):
        with pytest.raises(WireProtocolError, match="NaN"):
            pack_frame({"estimate": float("nan")})

    def test_infinity_payload_refused_on_send(self):
        with pytest.raises(WireProtocolError, match="NaN"):
            pack_frame({"estimate": float("inf")})

    def test_nonfinite_tokens_refused_on_receive(self):
        body = b'{"estimate": NaN}'
        with pytest.raises(WireProtocolError, match="not JSON"):
            unpack_frame(struct.pack(">I", len(body)) + body)

    def test_finite_floats_still_roundtrip(self):
        assert frame_roundtrip({"estimate": 2.5}) == {"estimate": 2.5}


class TestStrictNormalizeKey:
    """normalize_key silently passed unhashable junk through before."""

    @pytest.mark.parametrize(
        "bad",
        [None, [1, 2], {"a": 1}, {3, 4}, complex(1, 2),
         np.datetime64(7, "s"), object()],
        ids=lambda value: type(value).__name__,
    )
    def test_unsupported_types_rejected(self, bad):
        with pytest.raises(WireProtocolError, match="unsupported key type"):
            normalize_key(bad)

    def test_nested_junk_inside_tuple_rejected(self):
        with pytest.raises(WireProtocolError, match="unsupported key type"):
            normalize_key((1, (2, None)))

    def test_supported_types_pass_through(self):
        for good in (7, -7, 2**70, "q", b"q", 2.5, True, (1, "a", b"b")):
            assert normalize_key(good) == good


class TestResponseHelpers:
    def test_ok_response_echoes_id(self):
        assert ok_response(7, tables=2) == {"ok": True, "tables": 2, "id": 7}

    def test_ok_response_without_id(self):
        assert "id" not in ok_response(None, created=True)

    def test_error_response_shape(self):
        response = error_response(
            3, "overloaded", "queue full", queue_depth=9
        )
        assert response["ok"] is False
        assert response["id"] == 3
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["queue_depth"] == 9

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError, match="unknown error code"):
            error_response(None, "nope", "msg")


class TestDocumentedVocabulary:
    """docs/service.md lists exactly the ops and error codes served."""

    DOC = Path(__file__).parent.parent / "docs" / "service.md"

    def test_op_table_matches_ops(self):
        lines = self.DOC.read_text(encoding="utf-8").splitlines()
        start = lines.index("| op | fields | answer |")
        documented = set()
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            documented.add(re.match(r"\| `(\w+)` \|", line).group(1))
        assert documented == OPS

    def test_error_list_matches_error_codes(self):
        text = " ".join(self.DOC.read_text(encoding="utf-8").split())
        sentence = re.search(
            r"Error codes are a closed vocabulary: ([^.]*)\.", text)
        assert sentence is not None
        assert set(re.findall(r"`(\w+)`", sentence.group(1))) == ERROR_CODES
