"""Typed client library for the sketch service.

Three layers:

* Transports — :class:`TcpTransport` (real sockets) and
  :class:`InProcessTransport` (direct dispatch against a
  :class:`~repro.service.server.SketchServer`, round-tripping every
  message through the frame codec so tests exercise byte-level parity
  without a socket).  Both speak pre-packed frames
  (:meth:`~TcpTransport.request_bytes`) and windowed pipelining
  (:meth:`~TcpTransport.request_stream`) in addition to one-shot JSON
  requests.
* :class:`AsyncServiceClient` — the async API: one method per protocol
  op, with stream keys encoded/decoded transparently and error
  responses raised as :class:`ServiceError` (or the sharper
  :class:`OverloadedError` for backpressure).
* :class:`ServiceClient` — a synchronous facade for scripts: it runs a
  private event loop on a daemon thread and proxies each call with a
  timeout.  The CLI runs :class:`AsyncServiceClient` under
  ``asyncio.run`` instead.

Ingest always travels as ``binary-ingest-v1`` frames — raw pre-encoded
64-bit keys for tables that never store original items, lossless packed
keys for ``topk`` tables (an all-int64 batch as one int64 column, packed
in one array pass).  ``estimate_rows`` travels as ``binary-rows-v1``
frames: raw key images out, one int64 readout block back.  Everything
else travels as JSON.

Batches that would exceed ``MAX_FRAME_BYTES`` are split into several
frames automatically.  Ack semantics per frame are unchanged — but a
split batch is no longer all-or-nothing: an ``overloaded`` mid-split
surfaces after earlier sub-batches were acknowledged.

Backpressure contract: ``ingest`` never silently drops.  Either the
batch is acknowledged (and ``wait=True`` additionally awaits its
application), or :class:`OverloadedError` reports the full queue and
the caller decides — retry, slow down, or fail.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.countsketch import integral_weights
from repro.hashing.vectorized import encode_keys
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    RowsAnswer,
    WireProtocolError,
    binary_ingest_capacity,
    decode_wire_key,
    encode_wire_key,
    error_response,
    normalize_key,
    pack_binary_ingest,
    pack_frame,
    pack_key,
    pack_rows_request,
    read_frame,
    unpack_frame,
)
from repro.service.tables import TableSpec

if TYPE_CHECKING:
    from collections.abc import Hashable, Iterable, Sequence

    from repro.service.server import SketchServer

__all__ = [
    "AsyncServiceClient",
    "InProcessTransport",
    "OverloadedError",
    "QuotaExceededError",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "TcpTransport",
]

#: Default number of in-flight frames during pipelined ingest.
_DEFAULT_WINDOW = 32


class ServiceError(Exception):
    """The server answered with an error response."""

    def __init__(self, code: str, message: str,
                 details: dict[str, Any] | None = None) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details = details or {}


class OverloadedError(ServiceError):
    """The table's ingest queue was full; the batch was not enqueued."""


class QuotaExceededError(ServiceError):
    """A per-table quota refused the request (nothing was enqueued).

    Unlike :class:`OverloadedError` — transient backpressure that
    pipelined ingest retries after a barrier — a quota refusal is
    deliberate policy, so it always propagates.  ``details`` carries
    the table, the op kind, and ``retry_after`` seconds when the
    bucket could eventually grant the request.
    """


class ServiceConnectionError(ServiceError):
    """The connection failed to open, or was lost mid-session.

    Raised instead of raw ``ConnectionRefusedError`` / ``BrokenPipeError``
    tracebacks (and instead of the wire codec's truncation errors) so
    callers can catch one typed exception for every transport failure.
    Subclasses :class:`ServiceError`, so existing ``except ServiceError``
    handlers already cover it.
    """

    def __init__(self, message: str) -> None:
        super().__init__("connection", message)


#: What a transport hands back: a JSON response or a readout answer.
_Response = dict[str, Any] | RowsAnswer


def _raise_for_error(response: _Response) -> dict[str, Any]:
    """A JSON ``ok`` response as it is; an error response raised as its
    :class:`ServiceError`."""
    if isinstance(response, RowsAnswer):
        raise ServiceError("internal",
                           "a readout answer frame answered a JSON request")
    if response.get("ok"):
        return response
    error = response.get("error")
    if not isinstance(error, dict):
        raise ServiceError("internal", f"malformed error response: "
                                       f"{response!r}")
    code = str(error.get("code", "internal"))
    message = str(error.get("message", ""))
    details = {k: v for k, v in error.items()
               if k not in ("code", "message")}
    if code == "overloaded":
        raise OverloadedError(code, message, details)
    if code == "quota_exceeded":
        raise QuotaExceededError(code, message, details)
    raise ServiceError(code, message, details)


def _checked_response(response: object) -> _Response:
    """Validate that the transport handed back one response: a JSON
    message or a readout answer, never a request frame."""
    if response is None:
        raise ServiceConnectionError(
            "server closed the connection before responding",
        )
    if not isinstance(response, (dict, RowsAnswer)):
        raise ServiceError(
            "internal",
            f"unexpected request frame from server: {type(response).__name__}",
        )
    return response


class TcpTransport:
    """One TCP connection; requests are serialized with a lock."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> TcpTransport:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as error:
            raise ServiceConnectionError(
                f"cannot connect to {host}:{port}: {error}"
            ) from error
        return cls(reader, writer)

    async def _send(self, frame: bytes) -> None:
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except OSError as error:
            raise ServiceConnectionError(
                f"connection lost while sending: {error}"
            ) from error

    async def _receive(self) -> _Response:
        try:
            response = await read_frame(self._reader)
        except WireProtocolError as error:
            if isinstance(error.__cause__, asyncio.IncompleteReadError):
                raise ServiceConnectionError(
                    f"connection lost mid-response: {error}"
                ) from error
            raise
        except OSError as error:
            raise ServiceConnectionError(
                f"connection lost while reading: {error}"
            ) from error
        return _checked_response(response)

    async def request(self, message: dict[str, Any]) -> _Response:
        """Send one framed request and await its framed response."""
        return await self.request_bytes(pack_frame(message))

    async def request_bytes(self, frame: bytes) -> _Response:
        """Send one pre-packed frame and await its response."""
        async with self._lock:
            await self._send(frame)
            return await self._receive()

    async def request_stream(
        self, frames: Sequence[bytes], *, window: int = _DEFAULT_WINDOW
    ) -> list[_Response]:
        """Send ``frames`` pipelined; responses in request order.

        Up to ``window`` frames are in flight at once: a sender task
        writes ahead while this coroutine reads acks, so a slow ack
        round-trip never idles the server's applier.  The server
        dispatches one connection's frames in order, so the i-th
        response answers the i-th frame.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        if len(frames) == 1:
            return [await self.request_bytes(frames[0])]
        responses: list[_Response] = []
        async with self._lock:
            in_flight = asyncio.Semaphore(window)

            async def send_all() -> None:
                for frame in frames:
                    await in_flight.acquire()
                    await self._send(frame)

            sender = asyncio.get_running_loop().create_task(send_all())
            try:
                for _ in range(len(frames)):
                    responses.append(await self._receive())
                    in_flight.release()
            finally:
                if not sender.done():
                    sender.cancel()
                try:
                    await sender
                except (asyncio.CancelledError, ServiceConnectionError,
                        OSError):
                    pass
        return responses

    async def close(self) -> None:
        """Close the connection, tolerating an already-gone peer."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class InProcessTransport:
    """Dispatch directly against a server, through the frame codec.

    Every request and response is packed and unpacked exactly as it
    would be on a socket, so in-process tests cover the same byte path
    as TCP minus the kernel.
    """

    def __init__(self, server: SketchServer) -> None:
        self._server = server

    async def request(self, message: dict[str, Any]) -> _Response:
        """Dispatch against the server after a codec round-trip."""
        return await self.request_bytes(pack_frame(message))

    async def request_bytes(self, frame: bytes) -> _Response:
        """Unpack, dispatch (JSON or binary), round-trip the response
        (a readout answer comes back packed already)."""
        wire_message = unpack_frame(frame)
        if isinstance(wire_message, dict):
            response: dict[str, Any] | bytes = await self._server.dispatch(
                wire_message)
        else:
            response = await self._server.dispatch_binary(wire_message)
        if isinstance(response, bytes):
            packed = response
        else:
            try:
                packed = pack_frame(response)
            except WireProtocolError as error:
                # Mirror the TCP writer task: an unserializable response
                # is substituted with a bad_request error carrying the
                # same id.
                packed = pack_frame(error_response(
                    response.get("id"), "bad_request",
                    "response is not representable in canonical JSON: "
                    f"{error}",
                ))
        return _checked_response(unpack_frame(packed))

    async def request_stream(
        self, frames: Sequence[bytes], *, window: int = _DEFAULT_WINDOW
    ) -> list[_Response]:
        """Sequential in-process equivalent of pipelined send."""
        return [await self.request_bytes(frame) for frame in frames]

    async def close(self) -> None:
        """Nothing to release; the server is owned by the caller."""
        return None


def unzip_records(
    records: Iterable[tuple[Hashable, int]],
) -> tuple[list[Hashable], list[int]]:
    """Split ``(item, count)`` records into an item and a count column."""
    pairs = list(records)
    return [item for item, _ in pairs], [count for _, count in pairs]


def item_column(items: list[Hashable] | np.ndarray) -> np.ndarray | list[Hashable]:
    """The items of one batch as the packed layout carries them: an int64
    array when every item is an int in int64 range (a list of Python
    ints, or an integer array whose values fit), else a list of the
    items."""
    if isinstance(items, np.ndarray):
        if items.dtype.kind in "iu" and (
                items.dtype != np.uint64 or not items.size
                or items.max() <= np.iinfo(np.int64).max):
            return items.astype(np.int64, copy=False)
        return items.tolist()
    if set(map(type, items)) == {int}:  # bool is its own type, not int
        try:
            return np.asarray(items, dtype=np.int64)
        except OverflowError:
            pass
    return items


def key_images(items: Iterable[Hashable] | np.ndarray) -> np.ndarray:
    """The ``encode_key`` images of ``items`` as one uint64 array (a
    uint64 array passes as it is), encoded as the sketches hash them.

    NumPy scalars ``encode_key`` does not take are collapsed first by
    :func:`~repro.service.protocol.normalize_key`, which hashes them as
    their Python twins.

    Raises:
        WireProtocolError: for a key type no sketch can hash, named.
    """
    if not isinstance(items, np.ndarray):
        items = list(items)
    try:
        return encode_keys(items)
    except TypeError:
        return encode_keys([normalize_key(item) for item in items])


def ingest_columns(
    items: Iterable[Hashable] | np.ndarray,
    counts: Iterable[int] | np.ndarray | None,
    spec: TableSpec,
    *,
    raw: bool | None = None,
) -> tuple[np.ndarray | list[Hashable], np.ndarray]:
    """One ingest batch for the table ``spec`` as a key column and a
    checked int64 count column (1 per item by default).  The keys are the
    items' uint64 ``encode_key`` images (a uint64 array passes as it is)
    when ``raw``, otherwise the items' :func:`item_column`; ``raw``
    defaults to the table's own layout (see :attr:`TableSpec.packed_keys`).

    A count the core's :func:`~repro.core.countsketch.integral_weights`
    or the table's :meth:`~repro.service.tables.TableSpec.check_counts`
    refuses raises :class:`ServiceError` ``bad_request``, so nothing of
    the batch is sent; a key the wire cannot carry,
    :class:`~repro.service.protocol.WireProtocolError`.
    """
    if not isinstance(items, np.ndarray):
        items = list(items)
    if counts is None:
        weights = np.ones(len(items), dtype=np.int64)
    else:
        try:
            weights = integral_weights(counts, len(items))
            spec.check_counts(weights)
        except (TypeError, ValueError, OverflowError) as error:
            raise ServiceError("bad_request",
                               f"ingest counts refused: {error}") from None
    if raw is None:
        raw = not spec.packed_keys
    if not raw:
        return item_column(items), weights
    return key_images(items), weights


class AsyncServiceClient:
    """Async API over a transport; one method per protocol op.

    Args:
        transport: an open transport.
    """

    def __init__(self, transport: TcpTransport | InProcessTransport) -> None:
        self._transport = transport
        self._ids = itertools.count(1)
        self._table_specs: dict[str, TableSpec] = {}

    @classmethod
    async def connect(cls, host: str, port: int) -> AsyncServiceClient:
        """Open a TCP connection to a running server."""
        return cls(await TcpTransport.connect(host, port))

    @classmethod
    def in_process(cls, server: SketchServer) -> AsyncServiceClient:
        """Attach to a server in the same event loop (tests, benches)."""
        return cls(InProcessTransport(server))

    async def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        message: dict[str, Any] = {"op": op, "id": next(self._ids)}
        for key, value in fields.items():
            if value is not None:
                message[key] = value
        return _raise_for_error(await self._transport.request(message))

    async def ping(self) -> dict[str, Any]:
        """Server liveness, protocol version, and feature set."""
        return await self._call("ping")

    async def create_table(self, spec: TableSpec) -> bool:
        """Create a table; ``False`` when it already existed (same
        spec — a differing spec raises ``table_exists``)."""
        response = await self._call("create_table", spec=spec.to_dict())
        self._table_specs[spec.name] = spec
        return bool(response["created"])

    async def drop_table(self, table: str) -> int:
        """Drop a table; returns the records it had applied."""
        response = await self._call("drop_table", table=table)
        self._table_specs.pop(table, None)
        return int(response["records_applied"])

    # -- ingest ---------------------------------------------------------------

    async def _table_spec(self, table: str) -> TableSpec:
        """The table's spec (cached; one ``stats`` on a miss)."""
        spec = self._table_specs.get(table)
        if spec is None:
            response = await self._call("stats", table=table)
            spec = TableSpec.from_dict(response["table"]["spec"])
            self._table_specs[table] = spec
        return spec

    def _build_frames(
        self,
        table: str,
        keys: np.ndarray | list[Hashable],
        weights: np.ndarray,
        *,
        wait: bool,
        raw: bool | None = None,
    ) -> list[tuple[bytes, slice]]:
        """Cut one batch's columns (see :func:`ingest_columns`) into
        binary ingest frames within the byte budget, each with its index
        range; ``topk`` items are packed here.  ``raw`` is the table's
        layout (``not spec.packed_keys``); left out, a key array is taken
        as raw key images and a list as items.  Only the final frame
        carries ``wait``: the applier is FIFO per table."""
        if raw is None:
            raw = isinstance(keys, np.ndarray)
        # Packed keys fill each frame greedily, leaving generous headroom
        # for the fixed header and length fields.
        budget = MAX_FRAME_BYTES - 4096
        blocks: np.ndarray | list[bytes]
        if isinstance(keys, np.ndarray):
            # Raw key images, or an int64 item column whose every key
            # packs to one 9-byte record: the cuts fall every `step`.
            step = (binary_ingest_capacity(table) if raw
                    else max(1, budget // (len(pack_key(0)) + 8)))
            cuts = [0, *range(step, len(keys), step), len(keys)]
            blocks = keys
        else:
            blocks = [pack_key(item) for item in keys]
            cuts = [0]
            used = 0
            for index, blob in enumerate(blocks):
                cost = len(blob) + 8
                if index > cuts[-1] and used + cost > budget:
                    cuts.append(index)
                    used = 0
                used += cost
            cuts.append(len(blocks))
        return [
            (pack_binary_ingest(table, next(self._ids), blocks[start:stop],
                                weights[start:stop], raw=raw,
                                wait=wait and stop == len(weights)),
             slice(start, stop))
            for start, stop in zip(cuts, cuts[1:])
        ]

    async def ingest(
        self,
        table: str,
        records: Iterable[tuple[Hashable, int]],
        *,
        wait: bool = False,
    ) -> int:
        """Send ``(item, count)`` records: :meth:`ingest_items` of their columns."""
        return await self.ingest_items(table, *unzip_records(records),
                                       wait=wait)

    async def ingest_many(
        self,
        table: str,
        batches: Iterable[Iterable[tuple[Hashable, int]]],
        *,
        wait: bool = True,
        window: int = _DEFAULT_WINDOW,
        retry_overloaded: bool = True,
    ) -> int:
        """Pipelined bulk ingest; returns records acknowledged.

        Keeps up to ``window`` frames in flight so the server's applier
        never idles waiting on an ack round-trip.  ``wait=True`` places
        a read barrier behind the final frame, so a following query
        reflects every acknowledged record.  Every batch is checked
        before the first frame is sent.

        With ``retry_overloaded``, batches refused by a full queue are
        re-sent afterwards with a per-batch read barrier (natural
        backpressure).  Retried batches apply *after* later-acknowledged
        ones — harmless for linear sketches (§3.2: counter addition
        commutes) but order-visible for ``topk``/``window`` tables;
        disable it there and handle :class:`OverloadedError` yourself.
        """
        spec = await self._table_spec(table)
        columns = [ingest_columns(*unzip_records(batch), spec)
                   for batch in batches]
        columns = [(keys, weights) for keys, weights in columns if len(weights)]
        frames = [
            (frame, keys[part], weights[part])
            for index, (keys, weights) in enumerate(columns)
            for frame, part in self._build_frames(
                table, keys, weights,
                wait=wait and index == len(columns) - 1,
                raw=not spec.packed_keys)
        ]
        if not frames:
            return 0
        responses = await self._transport.request_stream(
            [frame for frame, _, _ in frames], window=window)
        acknowledged = 0
        retry: list[tuple[np.ndarray | list[Hashable], np.ndarray]] = []
        for (_, keys, weights), response in zip(frames, responses,
                                                strict=True):
            try:
                _raise_for_error(response)
            except OverloadedError:
                if not retry_overloaded:
                    raise
                retry.append((keys, weights))
                continue
            acknowledged += len(weights)
        for keys, weights in retry:
            await self.ingest_items(table, keys, weights, wait=True)
            acknowledged += len(weights)
        return acknowledged

    async def ingest_items(
        self,
        table: str,
        items: Iterable[Hashable] | np.ndarray,
        counts: Iterable[int] | np.ndarray | None = None,
        *,
        wait: bool = False,
    ) -> int:
        """Send one batch of records ``(items[j], counts[j])``, each count
        1 by default; returns its sequence number.  ``wait=True`` returns
        only after the batch is applied (read-your-writes without a
        separate query).  A bool, non-integral or out-of-range count
        (outside ``±(2**63 - 1)``), a zero count, or a negative one on an
        insert-only table raises :class:`ServiceError` ``bad_request``
        before anything is sent.  Batches too large for
        one frame are split transparently (the returned sequence number
        is the final sub-batch's).
        """
        spec = await self._table_spec(table)
        keys, weights = ingest_columns(items, counts, spec)
        frames = self._build_frames(table, keys, weights, wait=wait,
                                    raw=not spec.packed_keys)
        last: dict[str, Any] = {}
        for response in await self._transport.request_stream(
                [frame for frame, _ in frames]):
            last = _raise_for_error(response)
        return int(last["seq"])

    async def estimate(
        self, table: str, items: Sequence[Hashable]
    ) -> list[float]:
        """Frequency estimates for ``items`` over the acknowledged
        prefix (the server awaits its read barrier first)."""
        response = await self._call(
            "estimate", table=table,
            keys=[encode_wire_key(item) for item in items],
        )
        return [float(value) for value in response["estimates"]]

    async def estimate_rows(
        self, table: str, items: Sequence[Hashable]
    ) -> list[list[int]]:
        """Per-row signed counter readouts for ``items``, one
        depth-length list of ints per item.

        The raw integers whose per-row median is :meth:`estimate` —
        exposed for distributed scatter-gather: by §3.2 linearity the
        readouts of sharded sketches sum to the readouts of their merge,
        so a coordinator can add them across shards and take one median,
        bit-equal to a single merged sketch.  Linear-sketch tables only
        (``sketch``, ``vectorized``, ``topk``).

        Raises:
            WireProtocolError: for a key type no sketch can hash, before
                anything is sent.
        """
        rows = await self.estimate_rows_array(table, key_images(items))
        values: list[list[int]] = rows.T.tolist()
        return values

    async def estimate_rows_array(
        self, table: str, keys: np.ndarray
    ) -> np.ndarray:
        """The readouts of ``keys``, a uint64 array of ``encode_key``
        images (see :func:`key_images`), as the ``(depth, len(keys))``
        int64 array ``CountSketch.row_values_batch`` returns: a
        coordinator encodes a scatter's keys once, sends every shard the
        same block, and sums the shards' answers in int64.

        Raises:
            ServiceError: ``internal`` for an answer that is not a
                readout block of this request: another request id,
                another key count, or a JSON ``ok`` answer without one.
            WireProtocolError: for a malformed readout answer frame.
        """
        request_id = next(self._ids)
        answer = await self._transport.request_bytes(
            pack_rows_request(table, request_id, keys))
        if isinstance(answer, dict):
            _raise_for_error(answer)
            raise ServiceError(
                "internal", "estimate_rows was answered with a JSON ok "
                            "response instead of a readout block")
        if answer.request_id != request_id or answer.rows.shape[1] != keys.size:
            raise ServiceError(
                "internal",
                f"readout answer for request {answer.request_id} with "
                f"{answer.rows.shape[1]} keys does not answer request "
                f"{request_id} with {keys.size} keys")
        return answer.rows

    async def topk(
        self, table: str, k: int | None = None
    ) -> list[tuple[Hashable, float]]:
        """The table's current top-k ``(item, count)`` pairs."""
        response = await self._call("topk", table=table, k=k)
        return [(decode_wire_key(key), float(count))
                for key, count in response["topk"]]

    async def stats(self, table: str | None = None) -> dict[str, Any]:
        """Per-table (or server-wide) counters and queue state."""
        return await self._call("stats", table=table)

    async def metrics(self, fmt: str = "prometheus") -> str:
        """The server's metrics export (``prometheus`` or ``json``)."""
        response = await self._call("metrics", format=fmt)
        return str(response["body"])

    async def checkpoint(self, table: str | None = None) -> int:
        """Force a snapshot now; returns bytes written."""
        response = await self._call("checkpoint", table=table)
        return int(response["bytes_written"])

    async def shutdown(self) -> None:
        """Ask the server to stop gracefully."""
        await self._call("shutdown")

    async def close(self) -> None:
        """Close the transport (the server keeps running)."""
        await self._transport.close()


class ServiceClient:
    """Synchronous facade: a private event loop on a daemon thread.

    Every method mirrors :class:`AsyncServiceClient` and blocks up to
    ``timeout`` seconds.  Usable as a context manager::

        with ServiceClient("127.0.0.1", 9431) as client:
            client.ingest("queries", [("deep learning", 3)], wait=True)
            print(client.estimate("queries", ["deep learning"]))
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 30.0) -> None:
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service-client",
            daemon=True,
        )
        self._thread.start()
        try:
            self._client = self._run(
                AsyncServiceClient.connect(host, port))
        except BaseException:
            self._stop_loop()
            raise

    def _run(self, coro: Any) -> Any:
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(self._timeout)

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._loop.is_running():
            self._loop.close()

    def ping(self) -> dict[str, Any]:
        """Server liveness, protocol version, and feature set."""
        return self._run(self._client.ping())

    def create_table(self, spec: TableSpec) -> bool:
        """Create a table; ``False`` when it already existed."""
        return bool(self._run(self._client.create_table(spec)))

    def drop_table(self, table: str) -> int:
        """Drop a table; returns the records it had applied."""
        return int(self._run(self._client.drop_table(table)))

    def ingest(
        self,
        table: str,
        records: Iterable[tuple[Hashable, int]],
        *,
        wait: bool = False,
    ) -> int:
        """Send one batch of ``(item, count)`` records; returns its seq."""
        return int(self._run(self._client.ingest(table, list(records),
                                                 wait=wait)))

    def ingest_many(
        self,
        table: str,
        batches: Iterable[Iterable[tuple[Hashable, int]]],
        *,
        wait: bool = True,
        window: int = _DEFAULT_WINDOW,
        retry_overloaded: bool = True,
    ) -> int:
        """Pipelined bulk ingest; returns records acknowledged."""
        return int(self._run(self._client.ingest_many(
            table, [list(batch) for batch in batches],
            wait=wait, window=window, retry_overloaded=retry_overloaded,
        )))

    def ingest_items(
        self, table: str, items: Iterable[Hashable], *, wait: bool = False
    ) -> int:
        """Sugar: ingest plain items, each with count 1."""
        return int(self._run(self._client.ingest_items(table, list(items),
                                                       wait=wait)))

    def estimate(self, table: str, items: Sequence[Hashable]) -> list[float]:
        """Frequency estimates over the acknowledged prefix."""
        return list(self._run(self._client.estimate(table, list(items))))

    def estimate_rows(
        self, table: str, items: Sequence[Hashable]
    ) -> list[list[int]]:
        """Per-row signed counter readouts (see the async docstring)."""
        return list(self._run(self._client.estimate_rows(table,
                                                         list(items))))

    def topk(self, table: str,
             k: int | None = None) -> list[tuple[Hashable, float]]:
        """The table's current top-k ``(item, count)`` pairs."""
        return list(self._run(self._client.topk(table, k)))

    def stats(self, table: str | None = None) -> dict[str, Any]:
        """Per-table (or server-wide) counters and queue state."""
        return dict(self._run(self._client.stats(table)))

    def metrics(self, fmt: str = "prometheus") -> str:
        """The server's metrics export (``prometheus`` or ``json``)."""
        return str(self._run(self._client.metrics(fmt)))

    def checkpoint(self, table: str | None = None) -> int:
        """Force a snapshot now; returns bytes written."""
        return int(self._run(self._client.checkpoint(table)))

    def shutdown(self) -> None:
        """Ask the server to stop gracefully."""
        self._run(self._client.shutdown())

    def close(self) -> None:
        """Close the transport and stop the private event loop."""
        try:
            self._run(self._client.close())
        finally:
            self._stop_loop()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
