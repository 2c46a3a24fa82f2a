"""Length-prefixed wire protocol for the sketch service: JSON + binary.

Frame layout (both directions)::

    +----------------+----------------------------+
    | length: u32 BE | payload                    |
    +----------------+----------------------------+

Two payload kinds share the framing, distinguished by the first payload
byte:

* **Canonical-ASCII-JSON** — every control and query request and every
  response.  The payload is a single JSON object serialized with
  ``sort_keys`` / ``ensure_ascii`` / ``allow_nan=False`` (so equal
  messages are equal bytes and every frame is strict RFC 8259 ASCII;
  lone surrogates from ``surrogateescape``-decoded text survive as
  ``\\uDCxx`` escapes).  A canonical JSON object always begins with
  ``{`` (0x7B).
* **Binary ingest** — the only way records enter a server.  The payload
  begins with :data:`BINARY_MAGIC` (0xB1, never a valid JSON start
  byte) and carries one bulk ingest request: a fixed header, the table
  name, a key block, and a raw little-endian ``int64`` weight array.
  See :func:`pack_binary_ingest` for the exact layout.  Responses are
  always JSON — acks are tiny and uniform, so only the request hot path
  earns a binary encoding.

Frames larger than :data:`MAX_FRAME_BYTES` are refused on both ends.
Servers still advertise :data:`FEATURE_BINARY_INGEST` in the ``ping``
response, so clients that negotiate on it keep choosing binary frames.

Requests carry ``{"op": ..., ...}``; responses carry ``{"ok": true,
...}`` or ``{"ok": false, "error": {"code": ..., "message": ...}}``.
The full op and error vocabulary is documented in ``docs/service.md``.

Stream keys in JSON requests and responses (``estimate`` keys, ``topk``
listings) travel through :func:`encode_wire_key` /
:func:`decode_wire_key`, which reuse the snapshot item codec
(``repro.store.format.encode_item``) after :func:`normalize_key`
collapses NumPy scalars to their Python equivalents — ``np.int64(7)``
and ``7`` hash identically (``encode_key``), so they must serialize
identically too.  ``normalize_key`` also *rejects* anything the sketch
key encoding cannot hash (datetime64, complex, lists, ...) with a
:class:`WireProtocolError` up front, so type errors surface at the
protocol boundary instead of leaking store internals from deep inside
``encode_item``.

Binary keys travel in one of two layouts; each table kind accepts one
and the server refuses the other:

* **raw** (``sketch``, ``vectorized`` and ``window`` tables) — each key
  is its 64-bit ``encode_key`` image, shipped as a raw little-endian
  ``uint64`` array and fed straight into the vectorized sketch paths
  with no per-record decode.  Lossy by design (the original object
  never crosses the wire), which is exactly right for summaries that
  store no stream objects.
* **packed** (``topk`` tables) — each key is a self-delimiting tagged
  binary encoding (:func:`pack_key` / :func:`unpack_key`) that
  round-trips the original object exactly, including surrogate-escaped
  strings, nested tuples, bytes, and the full Python ``int`` range.

This module is the only place binary payloads are encoded or decoded
(lint rule RS008 enforces that); everything else handles frames as
opaque bytes or parsed objects.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.store.format import SnapshotFormatError, decode_item, encode_item

if TYPE_CHECKING:
    from collections.abc import Hashable, Sequence

__all__ = [
    "BINARY_MAGIC",
    "BINARY_OP_INGEST",
    "BINARY_VERSION",
    "ERROR_CODES",
    "FEATURE_BINARY_INGEST",
    "FEATURES",
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "BinaryIngest",
    "FrameTooLargeError",
    "WireProtocolError",
    "binary_ingest_capacity",
    "decode_wire_key",
    "encode_wire_key",
    "error_response",
    "normalize_key",
    "ok_response",
    "pack_binary_ingest",
    "pack_frame",
    "pack_key",
    "read_frame",
    "unpack_frame",
    "unpack_key",
    "write_frame",
]

PROTOCOL_VERSION = 2

#: Upper bound on one frame's payload, in bytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: First payload byte of a binary frame.  Canonical JSON payloads always
#: start with ``{`` (0x7B), so one byte tags the frame kind.
BINARY_MAGIC = 0xB1

#: Version of the binary frame layout (bumped only on layout breaks).
BINARY_VERSION = 1

#: Binary opcode: bulk ingest (the only binary request so far).
BINARY_OP_INGEST = 1

#: Feature tag servers advertise in the ``ping`` response: they accept
#: binary ingest frames (the only ingest encoding).
FEATURE_BINARY_INGEST = "binary-ingest-v1"

#: Every feature the current server build advertises.
FEATURES = frozenset({FEATURE_BINARY_INGEST})

_LENGTH = struct.Struct(">I")

#: Request operations the server understands.
OPS = frozenset({
    "checkpoint",
    "create_table",
    "drop_table",
    "estimate",
    "estimate_rows",
    "metrics",
    "ping",
    "shutdown",
    "stats",
    "topk",
})

#: Error codes a response may carry.
ERROR_CODES = frozenset({
    "bad_frame",
    "bad_request",
    "internal",
    "no_such_table",
    "overloaded",
    "quota_exceeded",
    "shutting_down",
    "table_exists",
})


class WireProtocolError(Exception):
    """A frame violated the protocol (framing, size, shape, or types)."""


class FrameTooLargeError(WireProtocolError):
    """The serialized payload exceeds :data:`MAX_FRAME_BYTES`.

    A distinct subclass so clients can split a batch and retry instead
    of treating the size bound like a malformed frame.
    """


def normalize_key(item: Hashable) -> Hashable:
    """Collapse a stream key to its canonical Python representation.

    NumPy scalars hash identically to their Python twins in
    ``encode_key``, so the wire must not distinguish them either:
    ``np.int64(7)`` becomes ``7``, ``np.bool_(True)`` becomes ``True``,
    ``bytearray`` becomes ``bytes``, and tuples normalize recursively.

    Raises:
        WireProtocolError: for types ``encode_key`` cannot hash
            (``np.datetime64``, ``complex``, lists, ``None``, ...), so
            unusable keys fail loudly at the protocol boundary instead
            of deep inside the snapshot item codec.
    """
    if isinstance(item, (bool, np.bool_)):
        return bool(item)
    if isinstance(item, np.integer):
        return int(item)
    if isinstance(item, np.floating):
        return float(item)
    if isinstance(item, bytearray):
        return bytes(item)
    if isinstance(item, tuple):
        return tuple(normalize_key(part) for part in item)
    if not isinstance(item, (int, str, bytes, float)):
        raise WireProtocolError(
            f"unsupported key type {type(item).__name__!r}: stream keys "
            "must be int, str, bytes, float, bool, or tuples thereof"
        )
    return item


def encode_wire_key(item: Hashable) -> object:
    """Encode one stream key as a JSON-representable wire value."""
    return encode_item(normalize_key(item))


def decode_wire_key(value: object) -> Hashable:
    """Invert :func:`encode_wire_key`.

    Raises:
        WireProtocolError: for values no key encoding produces.
    """
    try:
        return decode_item(value)
    except SnapshotFormatError as error:
        raise WireProtocolError(f"undecodable key: {error}") from error


def pack_frame(message: dict[str, Any]) -> bytes:
    """Serialize one message to its on-wire bytes (length + JSON).

    Raises:
        FrameTooLargeError: when the payload exceeds
            :data:`MAX_FRAME_BYTES` — callers with splittable payloads
            (ingest batches) catch this and send several frames.
        WireProtocolError: for payloads canonical JSON cannot carry —
            notably non-finite floats, which ``json.dumps`` would
            otherwise emit as the non-RFC ``NaN``/``Infinity`` tokens.
    """
    try:
        body = json.dumps(
            message, sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        ).encode("ascii")
    except ValueError as error:
        raise WireProtocolError(
            "message is not representable in canonical JSON "
            f"(NaN/Infinity are not RFC 8259 values): {error}"
        ) from error
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def unpack_frame(data: bytes) -> dict[str, Any] | BinaryIngest:
    """Parse exactly one frame from ``data`` (header + full payload)."""
    if len(data) < _LENGTH.size:
        raise WireProtocolError("truncated frame header")
    (length,) = _LENGTH.unpack(data[: _LENGTH.size])
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    body = data[_LENGTH.size:]
    if len(body) != length:
        raise WireProtocolError(
            f"frame declares {length} payload bytes but carries {len(body)}"
        )
    return _parse_body(bytes(body))


def _reject_nonfinite(token: str) -> float:
    """``parse_constant`` hook: canonical JSON has no NaN/Infinity."""
    raise ValueError(f"non-RFC JSON token {token!r} is not canonical")


def _parse_body(body: bytes) -> dict[str, Any] | BinaryIngest:
    if body[:1] == bytes((BINARY_MAGIC,)):
        return _unpack_binary_ingest(body)
    try:
        message = json.loads(
            body.decode("utf-8"), parse_constant=_reject_nonfinite
        )
    except (UnicodeDecodeError, ValueError) as error:
        raise WireProtocolError(f"frame payload is not JSON: {error}") from error
    if not isinstance(message, dict):
        raise WireProtocolError("frame payload must be a JSON object")
    return message


async def read_frame(
    reader: asyncio.StreamReader,
) -> dict[str, Any] | BinaryIngest | None:
    """Read one frame; ``None`` on a clean EOF between frames.

    Raises:
        WireProtocolError: on truncation mid-frame, an oversized
            declared length, or an unparseable payload.
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise WireProtocolError("connection closed mid-header") from error
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise WireProtocolError("connection closed mid-frame") from error
    return _parse_body(body)


async def write_frame(
    writer: asyncio.StreamWriter, message: dict[str, Any]
) -> None:
    """Write one frame and drain the transport."""
    writer.write(pack_frame(message))
    await writer.drain()


def ok_response(request_id: object = None, **fields: Any) -> dict[str, Any]:
    """Build a success response, echoing the request id when present."""
    response: dict[str, Any] = {"ok": True, **fields}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response(
    request_id: object,
    code: str,
    message: str,
    **fields: Any,
) -> dict[str, Any]:
    """Build an error response with a stable machine-readable code."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    response: dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message, **fields},
    }
    if request_id is not None:
        response["id"] = request_id
    return response


# -- binary key codec ---------------------------------------------------------

_KEY_I64 = 0x01     # 8-byte little-endian signed int (the common case)
_KEY_BIG = 0x02     # u32 length + little-endian signed two's complement
_KEY_STR = 0x03     # u32 length + UTF-8 (surrogatepass)
_KEY_BYTES = 0x04   # u32 length + raw bytes
_KEY_F64 = 0x05     # 8-byte IEEE-754 double, little-endian (bit-exact)
_KEY_BOOL = 0x06    # 1 byte, 0 or 1
_KEY_TUPLE = 0x07   # u32 element count + packed elements

_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _pack_key_into(out: bytearray, item: Hashable) -> None:
    """Append one *normalized* key's packed encoding to ``out``."""
    if isinstance(item, bool):
        out.append(_KEY_BOOL)
        out.append(1 if item else 0)
    elif isinstance(item, int):
        if _I64_MIN <= item <= _I64_MAX:
            out.append(_KEY_I64)
            out += _I64.pack(item)
        else:
            blob = item.to_bytes(
                (item.bit_length() + 8) // 8, "little", signed=True
            )
            out.append(_KEY_BIG)
            out += _U32.pack(len(blob))
            out += blob
    elif isinstance(item, str):
        data = item.encode("utf-8", "surrogatepass")
        out.append(_KEY_STR)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(item, bytes):
        out.append(_KEY_BYTES)
        out += _U32.pack(len(item))
        out += item
    elif isinstance(item, float):
        out.append(_KEY_F64)
        out += _F64.pack(item)
    elif isinstance(item, tuple):
        out.append(_KEY_TUPLE)
        out += _U32.pack(len(item))
        for part in item:
            _pack_key_into(out, part)
    else:  # normalize_key() already rejected everything else
        raise WireProtocolError(
            f"unsupported key type {type(item).__name__!r}"
        )


def pack_key(item: Hashable) -> bytes:
    """Encode one stream key as a self-delimiting binary blob.

    The encoding round-trips the original object exactly through
    :func:`unpack_key` — including surrogate-escaped strings, nested
    tuples, bytes, non-finite floats, and ints beyond 64 bits — and
    normalizes NumPy scalars first, so ``np.int64(7)`` and ``7`` pack
    identically (mirroring :func:`encode_wire_key`).

    Raises:
        WireProtocolError: for key types ``encode_key`` cannot hash.
    """
    out = bytearray()
    _pack_key_into(out, normalize_key(item))
    return bytes(out)


def _need(buffer: bytes, offset: int, count: int) -> None:
    if offset + count > len(buffer):
        raise WireProtocolError(
            f"truncated packed key: need {count} bytes at offset {offset}, "
            f"have {len(buffer) - offset}"
        )


def unpack_key(buffer: bytes, offset: int = 0) -> tuple[Hashable, int]:
    """Decode one packed key at ``offset``; returns ``(key, next_offset)``.

    Raises:
        WireProtocolError: on truncation, unknown tags, or pathological
            nesting.
    """
    try:
        return _unpack_key_at(buffer, offset)
    except RecursionError:
        raise WireProtocolError("packed key nesting too deep") from None


def _unpack_key_at(buffer: bytes, offset: int) -> tuple[Hashable, int]:
    _need(buffer, offset, 1)
    tag = buffer[offset]
    offset += 1
    if tag == _KEY_I64:
        _need(buffer, offset, 8)
        return _I64.unpack_from(buffer, offset)[0], offset + 8
    if tag == _KEY_BIG:
        _need(buffer, offset, 4)
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        _need(buffer, offset, length)
        value = int.from_bytes(
            buffer[offset:offset + length], "little", signed=True
        )
        return value, offset + length
    if tag == _KEY_STR:
        _need(buffer, offset, 4)
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        _need(buffer, offset, length)
        try:
            text = buffer[offset:offset + length].decode(
                "utf-8", "surrogatepass"
            )
        except UnicodeDecodeError as error:
            raise WireProtocolError(
                f"packed string key is not UTF-8: {error}"
            ) from error
        return text, offset + length
    if tag == _KEY_BYTES:
        _need(buffer, offset, 4)
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        _need(buffer, offset, length)
        return bytes(buffer[offset:offset + length]), offset + length
    if tag == _KEY_F64:
        _need(buffer, offset, 8)
        return _F64.unpack_from(buffer, offset)[0], offset + 8
    if tag == _KEY_BOOL:
        _need(buffer, offset, 1)
        flag = buffer[offset]
        if flag not in (0, 1):
            raise WireProtocolError(f"packed bool key byte {flag} invalid")
        return bool(flag), offset + 1
    if tag == _KEY_TUPLE:
        _need(buffer, offset, 4)
        (count,) = _U32.unpack_from(buffer, offset)
        offset += 4
        parts = []
        for _ in range(count):
            part, offset = _unpack_key_at(buffer, offset)
            parts.append(part)
        return tuple(parts), offset
    raise WireProtocolError(f"unknown packed key tag 0x{tag:02x}")


# -- binary ingest frame ------------------------------------------------------

#: Fixed binary header: magic, version, opcode, flags, request id (u64),
#: table-name length (u16).
_BIN_HEAD = struct.Struct("<BBBBQH")

_FLAG_WAIT = 0x01
_FLAG_RAW_KEYS = 0x02


@dataclass(frozen=True)
class BinaryIngest:
    """One parsed binary ingest request.

    Exactly one of ``keys`` / ``items`` is set: ``keys`` carries raw
    pre-encoded ``uint64`` hashes (zero-copy view into the frame
    buffer), ``items`` the losslessly decoded stream objects.
    """

    table: str
    request_id: int
    wait: bool
    raw: bool
    keys: np.ndarray | None
    items: list[Hashable] | None
    weights: np.ndarray

    def __len__(self) -> int:
        return int(self.weights.size)


def binary_ingest_capacity(table: str) -> int:
    """Most records one raw-mode binary frame can carry for ``table``.

    Packed-mode frames have variable per-key size; callers split those
    greedily on the byte budget instead.
    """
    table_bytes = len(table.encode("utf-8"))
    overhead = _BIN_HEAD.size + table_bytes + _U32.size
    per_record = 16  # u64 key + i64 weight
    return max(1, (MAX_FRAME_BYTES - overhead) // per_record)


def pack_binary_ingest(
    table: str,
    request_id: int,
    keys: np.ndarray | Sequence[bytes],
    weights: np.ndarray,
    *,
    raw: bool,
    wait: bool = False,
) -> bytes:
    """Serialize one binary ingest request to its on-wire bytes.

    Args:
        table: destination table name.
        request_id: echoed in the (JSON) ack; must fit in u64.
        keys: raw mode — a ``uint64`` array of ``encode_key`` images;
            packed mode — one :func:`pack_key` blob per record.
        weights: per-record ``int64`` weights (same length as ``keys``).
        raw: selects the key block layout (see the module docstring).
        wait: ask the server to apply the batch before acking.

    Raises:
        FrameTooLargeError: when the frame exceeds
            :data:`MAX_FRAME_BYTES`; split the batch and retry.
        WireProtocolError: on inconsistent array shapes or dtypes.
    """
    table_bytes = table.encode("utf-8")
    if len(table_bytes) > 0xFFFF:
        raise WireProtocolError("table name too long for a binary frame")
    weights_arr = np.ascontiguousarray(weights, dtype="<i8")
    flags = (_FLAG_WAIT if wait else 0) | (_FLAG_RAW_KEYS if raw else 0)
    if raw:
        if not isinstance(keys, np.ndarray) or keys.dtype != np.uint64:
            raise WireProtocolError(
                "raw-mode binary keys must be a uint64 ndarray"
            )
        if keys.shape != weights_arr.shape:
            raise WireProtocolError("keys and weights must match in length")
        n = int(keys.size)
        key_block = np.ascontiguousarray(keys, dtype="<u8").tobytes()
        key_prefix = b""
    else:
        blobs = list(keys)
        if len(blobs) != int(weights_arr.size):
            raise WireProtocolError("keys and weights must match in length")
        n = len(blobs)
        key_block = b"".join(blobs)
        key_prefix = _U32.pack(len(key_block))
    if n > 0xFFFFFFFF:
        raise FrameTooLargeError("too many records for one binary frame")
    body = b"".join((
        _BIN_HEAD.pack(
            BINARY_MAGIC, BINARY_VERSION, BINARY_OP_INGEST, flags,
            request_id & ((1 << 64) - 1), len(table_bytes),
        ),
        table_bytes,
        _U32.pack(n),
        key_prefix,
        key_block,
        weights_arr.tobytes(),
    ))
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"binary frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def _unpack_binary_ingest(body: bytes) -> BinaryIngest:
    """Parse one binary ingest payload (first byte already matched)."""
    if len(body) < _BIN_HEAD.size:
        raise WireProtocolError("truncated binary frame header")
    magic, version, opcode, flags, request_id, table_len = (
        _BIN_HEAD.unpack_from(body, 0)
    )
    if version != BINARY_VERSION:
        raise WireProtocolError(
            f"unsupported binary frame version {version} "
            f"(this build speaks {BINARY_VERSION})"
        )
    if opcode != BINARY_OP_INGEST:
        raise WireProtocolError(f"unknown binary opcode {opcode}")
    offset = _BIN_HEAD.size
    _need(body, offset, table_len)
    try:
        table = body[offset:offset + table_len].decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireProtocolError(
            f"binary frame table name is not UTF-8: {error}"
        ) from error
    offset += table_len
    _need(body, offset, _U32.size)
    (n,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    raw = bool(flags & _FLAG_RAW_KEYS)
    keys: np.ndarray | None = None
    items: list[Hashable] | None = None
    if raw:
        _need(body, offset, 8 * n)
        keys = np.frombuffer(body, dtype="<u8", count=n, offset=offset)
        offset += 8 * n
    else:
        _need(body, offset, _U32.size)
        (key_bytes,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        _need(body, offset, key_bytes)
        block = body[offset:offset + key_bytes]
        offset += key_bytes
        items = []
        position = 0
        for index in range(n):
            try:
                item, position = unpack_key(block, position)
            except WireProtocolError as error:
                raise WireProtocolError(
                    f"binary frame key {index} is malformed: {error}"
                ) from error
            items.append(item)
        if position != len(block):
            raise WireProtocolError(
                f"binary frame key block carries {len(block) - position} "
                "trailing bytes"
            )
    _need(body, offset, 8 * n)
    weights = np.frombuffer(body, dtype="<i8", count=n, offset=offset)
    offset += 8 * n
    if offset != len(body):
        raise WireProtocolError(
            f"binary frame carries {len(body) - offset} trailing bytes"
        )
    return BinaryIngest(
        table=table,
        request_id=int(request_id),
        wait=bool(flags & _FLAG_WAIT),
        raw=raw,
        keys=keys,
        items=items,
        weights=weights,
    )
