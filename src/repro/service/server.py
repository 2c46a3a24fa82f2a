"""The asyncio sketch server: live tables, wire dispatch, durability.

:class:`SketchServer` owns a set of :class:`~repro.service.tables.ServiceTable`
instances and answers protocol requests either over TCP
(:meth:`~SketchServer.start` / :func:`asyncio.start_server`) or directly
through :meth:`~SketchServer.dispatch` (the in-process transport used by
tests and benchmarks — byte-level parity is exercised by round-tripping
every message through the frame codec on the client side).

Exactness contract: an ``estimate`` / ``topk`` / ``stats`` response
reflects *exactly* the records acknowledged before the query arrived —
queries await the table's read barrier, so a mid-stream answer equals
the offline summary fed the same prefix.  Ingestion never blocks on
queries; it only ever fails fast with an explicit ``overloaded`` error
when a bounded queue is full.

Durability: with a ``checkpoint_dir``, every table is wrapped in a
:class:`~repro.store.CheckpointManager`; a ``service.json`` manifest
pins the table specs so a resumed server refuses silently-different
parameters (same posture as ``ShardCheckpointStore``).  Graceful stop
drains acknowledged batches, then snapshots every table — a SIGTERM'd
server resumed from its directory is bit-for-bit the state of an
uninterrupted run over the same acknowledged records.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.observability.export import to_json, to_prometheus
from repro.observability.registry import MetricsRegistry, use_registry
from repro.service.protocol import (
    FEATURES,
    OPS,
    PROTOCOL_VERSION,
    BinaryIngest,
    RowsAnswer,
    RowsRequest,
    WireProtocolError,
    decode_wire_key,
    encode_wire_key,
    error_response,
    ok_response,
    pack_rows_answer,
    read_frame,
    write_frame,
)
from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.service.limits import (
    ServiceLimits,
    TableQuotaExceededError,
    WeightedFairScheduler,
)
from repro.service.tables import ServiceTable, TableOverloadedError, TableSpec
from repro.store.checkpoint import CheckpointManager, CheckpointMismatchError
from repro.store.format import SNAPSHOT_SUFFIX, StoreError, atomic_write_bytes

if TYPE_CHECKING:
    from collections.abc import Awaitable, Callable, Iterable

__all__ = ["MANIFEST_NAME", "SketchServer"]

#: Manifest filename inside a service checkpoint directory.
MANIFEST_NAME = "service.json"

_MANIFEST_VERSION = 1

#: Per-connection bound on responses awaiting the writer task.  Sized to
#: comfortably cover a client's pipelining window; a slow reader
#: backpressures the connection loop instead of growing without bound.
_RESPONSE_QUEUE_SIZE = 128


class _BadRequest(Exception):
    """Internal: a request failed validation (maps to ``bad_request``)."""


class _ServerMetrics:
    """Server-wide metric handles, captured once at construction."""

    __slots__ = (
        "connections_open",
        "connections_total",
        "errors",
        "request_seconds",
        "requests",
        "shed_connections",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests = registry.counter("service_requests_total")
        self.errors = registry.counter("service_request_errors_total")
        self.request_seconds = registry.histogram("service_request_seconds")
        self.connections_open = registry.gauge("service_open_connections")
        self.connections_total = registry.counter(
            "service_connections_total")
        self.shed_connections = registry.counter(
            "service_shed_connections_total")


class SketchServer:
    """A live sketch set behind the length-prefixed wire protocol.

    Args:
        specs: tables to create (or resume) at construction.  More can
            be added at runtime via the ``create_table`` op.
        queue_capacity: per-table bound on pending ingest batches.
        max_coalesce: per-table cap on batches merged per apply call.
        checkpoint_dir: durability directory; when set, every table
            checkpoints through a :class:`CheckpointManager` and the
            spec manifest is pinned in ``service.json``.
        checkpoint_every_items: checkpoint a table after this many
            applied records (with ``checkpoint_dir``).
        checkpoint_every_seconds: checkpoint a table when this much
            wall-clock time has passed (default 30 s when a directory
            is given but neither trigger is).
        registry: metrics registry; defaults to a private
            :class:`MetricsRegistry` (the ``metrics`` op exports it).
        drain_timeout: upper bound, per table, on waiting for
            acknowledged batches to apply during :meth:`stop`.
        limits: multi-tenant hardening knobs (quotas, fairness,
            connection cap); all off by default.  With a
            ``checkpoint_dir``, limits are pinned in ``service.json``
            and a resumed server adopts the pinned set unless new
            limits are passed explicitly (explicit limits win and
            re-pin the manifest — operational tuning is overridable,
            unlike sketch parameters).
    """

    def __init__(
        self,
        specs: Iterable[TableSpec] = (),
        *,
        queue_capacity: int = 256,
        max_coalesce: int = 64,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every_items: int | None = None,
        checkpoint_every_seconds: float | None = None,
        registry: MetricsRegistry | None = None,
        drain_timeout: float = 30.0,
        limits: ServiceLimits | None = None,
    ) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._metrics = _ServerMetrics(self._registry)
        self._queue_capacity = queue_capacity
        self._max_coalesce = max_coalesce
        self._drain_timeout = drain_timeout
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._every_items = checkpoint_every_items
        self._every_seconds = checkpoint_every_seconds
        if (
            self._checkpoint_dir is not None
            and checkpoint_every_items is None
            and checkpoint_every_seconds is None
        ):
            self._every_seconds = 30.0
        self._tables: dict[str, ServiceTable] = {}
        self._appliers: dict[str, asyncio.Task[None]] = {}
        self._writers: set[asyncio.StreamWriter] = set()
        self._server: asyncio.Server | None = None
        self._accepting = True
        self._stop_task: asyncio.Task[None] | None = None
        self._stopped = asyncio.Event()
        self._manifest_lock = asyncio.Lock()

        manifest_specs, pinned_limits = self._read_manifest()
        if limits is None and pinned_limits is not None:
            limits = pinned_limits  # resumed servers keep their limits
        self._limits = limits if limits is not None else ServiceLimits()
        self._scheduler = (
            WeightedFairScheduler(self._limits.fair_quantum)
            if self._limits.fair_quantum is not None else None
        )
        requested: dict[str, TableSpec] = {}
        for spec in specs:
            if spec.name in requested:
                raise ValueError(f"duplicate table name {spec.name!r}")
            requested[spec.name] = spec
        for name, spec in requested.items():
            pinned = manifest_specs.get(name)
            if pinned is not None and pinned != spec:
                raise CheckpointMismatchError(
                    f"table {name!r} was checkpointed with different "
                    f"parameters ({pinned.to_dict()}); resume with the "
                    "original spec or use a fresh directory"
                )
        merged = {**manifest_specs, **requested}
        for spec in merged.values():
            self._add_table(spec)
        if self._checkpoint_dir is not None:
            self._write_manifest()

    # -- table management -----------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The server's metrics registry."""
        return self._registry

    @property
    def tables(self) -> dict[str, ServiceTable]:
        """Live tables by name (read-only view by convention)."""
        return self._tables

    @property
    def accepting(self) -> bool:
        """Whether ingest / create ops are still accepted."""
        return self._accepting

    @property
    def limits(self) -> ServiceLimits:
        """The active hardening limits (inert when none were set)."""
        return self._limits

    def _table_path(self, name: str) -> Path:
        assert self._checkpoint_dir is not None
        return self._checkpoint_dir / f"{name}{SNAPSHOT_SUFFIX}"

    def _read_manifest(
        self,
    ) -> tuple[dict[str, TableSpec], ServiceLimits | None]:
        if self._checkpoint_dir is None:
            return {}, None
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        path = self._checkpoint_dir / MANIFEST_NAME
        if not path.exists():
            return {}, None
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise StoreError(
                f"{path} is not a valid service manifest: {error}"
            ) from error
        if (
            not isinstance(manifest, dict)
            or manifest.get("version") != _MANIFEST_VERSION
            or not isinstance(manifest.get("tables"), dict)
        ):
            raise StoreError(f"{path} is not a version-1 service manifest")
        specs: dict[str, TableSpec] = {}
        for name, payload in manifest["tables"].items():
            try:
                spec = TableSpec.from_dict(payload)
            except ValueError as error:
                raise StoreError(
                    f"{path} pins an invalid spec for table "
                    f"{name!r}: {error}"
                ) from error
            if spec.name != name:
                raise StoreError(
                    f"{path} maps key {name!r} to spec named "
                    f"{spec.name!r}; the manifest is inconsistent"
                )
            specs[name] = spec
        pinned_limits: ServiceLimits | None = None
        if manifest.get("limits") is not None:
            try:
                pinned_limits = ServiceLimits.from_dict(manifest["limits"])
            except ValueError as error:
                raise StoreError(
                    f"{path} pins invalid service limits: {error}"
                ) from error
        return specs, pinned_limits

    def _write_manifest(self) -> None:
        if self._checkpoint_dir is None:
            return
        manifest: dict[str, Any] = {
            "version": _MANIFEST_VERSION,
            "tables": {
                name: table.spec.to_dict()
                for name, table in sorted(self._tables.items())
            },
        }
        if self._limits.enabled:
            manifest["limits"] = self._limits.to_dict()
        atomic_write_bytes(
            self._checkpoint_dir / MANIFEST_NAME,
            json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8"),
        )

    def _add_table(self, spec: TableSpec) -> ServiceTable:
        """Build (or resume) one table; summaries capture the server
        registry for their own instrumentation."""
        manager: CheckpointManager | None = None
        with use_registry(self._registry):
            if self._checkpoint_dir is not None:
                path = self._table_path(spec.name)
                if path.exists():
                    manager = CheckpointManager.resume(
                        path,
                        every_items=self._every_items,
                        every_seconds=self._every_seconds,
                    )
                    if not spec.matches_summary(manager.summary):
                        raise CheckpointMismatchError(
                            f"checkpoint {path} holds a "
                            f"{type(manager.summary).__name__}, but table "
                            f"{spec.name!r} is declared {spec.kind!r}"
                        )
                else:
                    manager = CheckpointManager(
                        spec.build(),
                        path,
                        every_items=self._every_items,
                        every_seconds=self._every_seconds,
                    )
            table = ServiceTable(
                spec,
                self._registry,
                queue_capacity=self._queue_capacity,
                max_coalesce=self._max_coalesce,
                manager=manager,
                ingest_quota=self._limits.ingest_bucket(),
                query_quota=self._limits.query_bucket(),
                scheduler=self._scheduler,
            )
        if self._scheduler is not None:
            self._scheduler.register(
                spec.name, self._limits.weight_for(spec.name))
        self._tables[spec.name] = table
        self._spawn_applier(spec.name)
        return table

    def _spawn_applier(self, name: str) -> None:
        """Start the table's applier task if a loop is running."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # started lazily on first dispatch / start()
        if name not in self._appliers:
            self._appliers[name] = loop.create_task(
                self._tables[name].run_applier(),
                name=f"repro-applier-{name}",
            )

    def _ensure_appliers(self) -> None:
        for name in self._tables:
            self._spawn_applier(name)

    # -- lifecycle ------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the TCP listener; returns the bound (host, port)."""
        self._ensure_appliers()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sockname = self._server.sockets[0].getsockname()
        return str(sockname[0]), int(sockname[1])

    def request_stop(self) -> None:
        """Schedule a graceful stop (signal-handler safe)."""
        if self._stop_task is None:
            loop = asyncio.get_running_loop()
            self._stop_task = loop.create_task(self.stop())

    async def wait_stopped(self) -> None:
        """Block until a requested stop has completed."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain, snapshot, close.

        Idempotent; concurrent callers await the same completion.
        """
        if self._stopped.is_set():
            return
        if self._stop_task is not None and not self._stop_task.done():
            current = asyncio.current_task()
            if current is not self._stop_task:
                await self._stopped.wait()
                return
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for table in self._tables.values():
            try:
                await asyncio.wait_for(
                    table.wait_applied(), timeout=self._drain_timeout
                )
            except (TimeoutError, asyncio.TimeoutError):  # 3.10 alias split
                pass  # snapshot whatever has been applied
        for task in self._appliers.values():
            task.cancel()
        if self._appliers:
            await asyncio.gather(
                *self._appliers.values(), return_exceptions=True
            )
        self._appliers.clear()
        if self._checkpoint_dir is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._flush_all_tables)
        for writer in list(self._writers):
            writer.close()
        self._stopped.set()

    def _flush_all_tables(self) -> None:
        """Final snapshots (appliers are stopped; state is quiescent)."""
        for table in self._tables.values():
            if table.manager is not None:
                table.manager.flush()

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read loop feeding a dedicated writer task.

        Responses flow through a bounded queue drained by
        :meth:`_write_responses`, so reading the next frame never waits
        on the previous ack's ``drain()`` — that pipelining is what lets
        a client keep the applier busy with in-flight binary batches.
        Requests on one connection are still dispatched in order, and
        responses leave in dispatch order, so per-connection FIFO
        semantics are unchanged.
        """
        limit = self._limits.max_connections
        if limit is not None and len(self._writers) >= limit:
            await self._shed_connection(writer, limit)
            return
        self._writers.add(writer)
        self._metrics.connections_total.inc()
        self._metrics.connections_open.inc()
        responses: asyncio.Queue[dict[str, Any] | bytes | None] = (
            asyncio.Queue(maxsize=_RESPONSE_QUEUE_SIZE))
        writer_task = asyncio.get_running_loop().create_task(
            self._write_responses(responses, writer))
        try:
            while not writer_task.done():
                try:
                    message = await read_frame(reader)
                except WireProtocolError as error:
                    await responses.put(
                        error_response(None, "bad_frame", str(error)))
                    break
                if message is None:
                    break
                if not isinstance(message, dict):
                    await responses.put(await self.dispatch_binary(message))
                    continue
                await responses.put(await self.dispatch(message))
                if message.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # Teardown must be unconditional: a peer vanishing
            # mid-pipeline (or a cancelled handler) leaves the writer
            # task holding queued acks for a dead socket.  Reap the
            # task on *every* path — including it having died on an
            # unexpected exception — and never skip the metric/socket
            # cleanup, so one connection's failure cannot taint the
            # writer set or the open-connections gauge other
            # connections (and the shed check above) depend on.
            try:
                try:
                    responses.put_nowait(None)  # sentinel: flush and exit
                except asyncio.QueueFull:
                    # A full queue means acks for a peer that stopped
                    # reading; drop them with the task.
                    writer_task.cancel()
                try:
                    await writer_task
                except asyncio.CancelledError:
                    # Either the task was cancelled just above, or this
                    # handler is itself being cancelled; make sure the
                    # task is cancelled too, then continue cleanup.
                    writer_task.cancel()
                except Exception:
                    # The writer task died unexpectedly; its queued
                    # acks are gone (the peer is too), but cleanup —
                    # and every other connection — must proceed.
                    pass
            finally:
                self._writers.discard(writer)
                self._metrics.connections_open.dec()
                writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass

    async def _shed_connection(
        self, writer: asyncio.StreamWriter, limit: int
    ) -> None:
        """Refuse a connection beyond ``max_connections``.

        The documented contract: the server writes exactly one
        ``overloaded`` error frame (no request id — no request was
        read) and closes.  A client's first request on the shed
        connection therefore fails with an explicit
        ``OverloadedError``, never a bare reset.
        """
        self._metrics.shed_connections.inc()
        try:
            await write_frame(writer, error_response(
                None, "overloaded",
                f"connection limit reached ({limit} open); retry later "
                "or against another replica",
                open_connections=limit,
            ))
        except (ConnectionResetError, BrokenPipeError, OSError,
                WireProtocolError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _write_responses(
        self,
        responses: asyncio.Queue[dict[str, Any] | bytes | None],
        writer: asyncio.StreamWriter,
    ) -> None:
        """Drain the response queue to the socket until the sentinel.

        A response is a JSON message or a readout answer frame packed
        already.  Keeps consuming after a write failure (discarding
        responses) so the read loop's bounded ``put`` can never deadlock
        against a dead peer.  A JSON response the canonical codec cannot
        serialize — e.g. a ``topk`` listing a non-finite float key that
        arrived via the lossless binary path — is replaced by a
        ``bad_request`` error carrying the same request id, never by a
        protocol violation on the wire.
        """
        alive = True
        while True:
            response = await responses.get()
            if response is None:
                return
            if not alive:
                continue
            try:
                await write_frame(writer, response)
            except WireProtocolError as error:
                assert isinstance(response, dict)  # a packed frame is sent as is
                self._metrics.errors.inc()
                fallback = error_response(
                    response.get("id"), "bad_request",
                    f"response is not representable in canonical JSON: "
                    f"{error}",
                )
                try:
                    await write_frame(writer, fallback)
                except (ConnectionResetError, BrokenPipeError, OSError):
                    alive = False
            except (ConnectionResetError, BrokenPipeError, OSError):
                alive = False

    # -- dispatch -------------------------------------------------------------

    async def dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        """Answer one request message (shared by TCP and in-process)."""
        request_id = message.get("id")
        op = message.get("op")
        if not isinstance(op, str) or op not in OPS:
            self._metrics.requests.inc()
            self._metrics.errors.inc()
            return error_response(
                request_id, "bad_request",
                f"unknown op {op!r}; expected one of "
                f"{', '.join(sorted(OPS))}",
            )
        return await self._answer(
            request_id, lambda: self._dispatch_op(op, message))

    async def dispatch_binary(
        self, frame: BinaryIngest | RowsRequest | RowsAnswer
    ) -> dict[str, Any] | bytes:
        """Answer one binary frame: an ingest frame with a JSON ack, a
        readout request with a packed readout answer frame.  A readout
        answer is no request: it gets ``bad_frame``, and the connection
        keeps being served (its framing is intact)."""
        if isinstance(frame, BinaryIngest):
            return await self._answer(
                frame.request_id, lambda: self._binary_ingest(frame))
        if isinstance(frame, RowsRequest):
            return await self._answer(
                frame.request_id, lambda: self._binary_rows(frame))
        self._metrics.requests.inc()
        self._metrics.errors.inc()
        return error_response(
            frame.request_id, "bad_frame",
            "a readout answer frame is not a request")

    async def _answer(
        self,
        request_id: object,
        runner: Callable[[], Awaitable[dict[str, Any] | bytes]],
    ) -> dict[str, Any] | bytes:
        """Run one op under the shared fault barrier and error mapping."""
        self._ensure_appliers()
        self._metrics.requests.inc()
        start = time.perf_counter()
        try:
            try:
                response = await runner()
            except _NoSuchTable as error:
                response = error_response(
                    request_id, "no_such_table", str(error))
            except (_BadRequest, WireProtocolError) as error:
                response = error_response(
                    request_id, "bad_request", str(error))
            except TableOverloadedError as error:
                response = error_response(
                    request_id, "overloaded", str(error),
                    queue_depth=error.depth, capacity=error.capacity,
                )
            except TableQuotaExceededError as error:
                fields: dict[str, Any] = {
                    "table": error.name, "op_kind": error.op_kind,
                }
                if error.retry_after is not None:
                    fields["retry_after"] = round(error.retry_after, 6)
                response = error_response(
                    request_id, "quota_exceeded", str(error), **fields)
            except Exception as error:  # fault barrier per request
                response = error_response(
                    request_id, "internal",
                    f"{type(error).__name__}: {error}",
                )
        finally:
            self._metrics.request_seconds.observe(
                time.perf_counter() - start)
        if isinstance(response, dict) and not response.get("ok"):
            self._metrics.errors.inc()
        return response

    async def _dispatch_op(
        self, op: str, message: dict[str, Any]
    ) -> dict[str, Any]:
        request_id = message.get("id")
        if op == "ping":
            return ok_response(
                request_id,
                version=PROTOCOL_VERSION,
                features=sorted(FEATURES),
                tables=len(self._tables),
                accepting=self._accepting,
            )
        if op == "create_table":
            return await self._op_create_table(message)
        if op == "drop_table":
            return await self._op_drop_table(message)
        if op == "estimate":
            return await self._op_estimate(message)
        if op == "topk":
            return await self._op_topk(message)
        if op == "stats":
            return await self._op_stats(message)
        if op == "metrics":
            return self._op_metrics(message)
        if op == "checkpoint":
            return await self._op_checkpoint(message)
        # op == "shutdown": ack first; the connection loop closes after.
        self.request_stop()
        return ok_response(request_id, stopping=True)

    def _require_table(self, message: dict[str, Any]) -> ServiceTable:
        name = message.get("table")
        if not isinstance(name, str):
            raise _BadRequest("request requires a 'table' name")
        table = self._tables.get(name)
        if table is None:
            raise _NoSuchTable(name)
        return table

    async def _op_create_table(
        self, message: dict[str, Any]
    ) -> dict[str, Any]:
        request_id = message.get("id")
        if not self._accepting:
            return error_response(
                request_id, "shutting_down", "server is shutting down")
        try:
            spec = TableSpec.from_dict(message.get("spec") or {})
        except (ValueError, TypeError) as error:
            raise _BadRequest(f"invalid table spec: {error}") from error
        existing = self._tables.get(spec.name)
        if existing is not None:
            if existing.spec == spec:
                return ok_response(request_id, created=False,
                                   table=spec.name)
            return error_response(
                request_id, "table_exists",
                f"table {spec.name!r} already exists with a different "
                "spec; drop it first or pick another name",
            )
        async with self._manifest_lock:
            try:
                self._add_table(spec)
            except (CheckpointMismatchError, StoreError) as error:
                return error_response(request_id, "internal", str(error))
            if self._checkpoint_dir is not None:
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, self._write_manifest)
        return ok_response(request_id, created=True, table=spec.name)

    async def _op_drop_table(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        table = self._require_table(message)
        name = table.spec.name
        async with self._manifest_lock:
            await table.wait_applied()
            applier = self._appliers.pop(name, None)
            if applier is not None:
                applier.cancel()
                await asyncio.gather(applier, return_exceptions=True)
            del self._tables[name]
            if self._scheduler is not None:
                self._scheduler.forget(name)
            if self._checkpoint_dir is not None:
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, self._discard_table_files,
                                           name)
        return ok_response(request_id, dropped=True, table=name,
                           records_applied=table.records_applied)

    def _discard_table_files(self, name: str) -> None:
        path = self._table_path(name)
        if path.exists():
            path.unlink()
        self._write_manifest()

    async def _binary_ingest(self, frame: BinaryIngest) -> dict[str, Any]:
        """Enqueue one binary ingest frame, the only way records enter.

        Each table kind accepts exactly one key layout.  Raw 64-bit
        ``encode_key`` images are hash-identical to the original objects
        for every summary that only hashes its input (``encode_key(int)
        == int mod 2**64``), so ``sketch``/``vectorized``/``window``
        tables take raw keys alone; a ``topk`` table must store the
        original items, so it takes packed keys alone.  The other
        layout is a ``bad_request``, never a silently wrong summary, and
        every queued batch of a table keeps one representation.
        """
        request_id = frame.request_id
        table = self._tables.get(frame.table)
        if table is None:
            raise _NoSuchTable(frame.table)
        if not self._accepting:
            return error_response(
                request_id, "shutting_down",
                "server is shutting down; ingest refused",
            )
        try:
            table.spec.check_counts(frame.weights)
        except ValueError as error:
            raise _BadRequest(f"binary batch refused: {error}") from None
        if frame.raw == table.spec.packed_keys:
            wanted = "packed keys" if frame.raw else "raw 64-bit key images"
            raise _BadRequest(
                f"table {frame.table!r} is {table.spec.kind!r} and takes "
                f"{wanted} only: topk tables store original items, the "
                "other kinds only hash them"
            )
        items = frame.keys if frame.raw else frame.items
        assert items is not None
        seq = table.try_enqueue(items, frame.weights)
        if frame.wait:
            await table.wait_applied(seq)
        return ok_response(request_id, queued=len(frame), seq=seq,
                           applied=frame.wait)

    async def _op_estimate(self, message: dict[str, Any]) -> dict[str, Any]:
        table = self._require_table(message)
        keys = message.get("keys")
        if not isinstance(keys, list):
            raise _BadRequest("'keys' must be a list of wire-encoded keys")
        items = [decode_wire_key(key) for key in keys]
        table.charge_query()
        await table.wait_applied()
        summary = table.summary
        estimates: list[float]
        if isinstance(summary, CountSketch):
            # One batched read; per-key ``estimate`` is this on one key.
            estimates = summary.estimate_batch(items).tolist()
        else:
            estimates = [float(summary.estimate(item)) for item in items]
        return ok_response(message.get("id"), estimates=estimates)

    async def _binary_rows(self, frame: RowsRequest) -> bytes:
        """Answer one ``estimate_rows`` request with a readout answer
        frame: the ``(depth, n)`` int64 block of ``row_values_batch``
        over its raw key images.

        A readout only hashes its key, so raw ``encode_key`` images are
        exact on every linear table kind, ``topk`` included.  The query
        pays its quota and waits at the read barrier, as ``estimate``
        does.
        """
        table = self._tables.get(frame.table)
        if table is None:
            raise _NoSuchTable(frame.table)
        table.charge_query()
        await table.wait_applied()
        summary = table.summary
        sketch = summary.sketch if isinstance(summary, TopKTracker) else summary
        if not isinstance(sketch, CountSketch):
            raise _BadRequest(
                f"table {table.spec.name!r} is {table.spec.kind!r}; "
                "'estimate_rows' requires a linear sketch table "
                "(sketch, vectorized, or topk)"
            )
        return pack_rows_answer(frame.request_id,
                                sketch.row_values_batch(frame.keys))

    async def _op_topk(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        table = self._require_table(message)
        if table.spec.kind != "topk":
            raise _BadRequest(
                f"table {table.spec.name!r} is {table.spec.kind!r}; "
                "'topk' requires a topk table"
            )
        k = message.get("k")
        if k is not None and (not isinstance(k, int) or isinstance(k, bool)
                              or k < 1):
            raise _BadRequest("'k' must be a positive integer")
        table.charge_query()
        await table.wait_applied()
        top = table.summary.top(k)
        return ok_response(
            request_id,
            topk=[[encode_wire_key(item), float(count)]
                  for item, count in top],
        )

    async def _op_stats(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        if message.get("table") is not None:
            table = self._require_table(message)
            await table.wait_applied()
            return ok_response(request_id, table=table.stats())
        tables: dict[str, Any] = {}
        for name in sorted(self._tables):
            table = self._tables[name]
            await table.wait_applied()
            tables[name] = table.stats()
        server: dict[str, Any] = {
            "protocol_version": PROTOCOL_VERSION,
            "accepting": self._accepting,
            "tables": len(self._tables),
            "checkpoint_dir": (
                str(self._checkpoint_dir)
                if self._checkpoint_dir is not None else None
            ),
        }
        if self._limits.enabled:
            server["limits"] = self._limits.to_dict()
        return ok_response(request_id, server=server, tables=tables)

    def _op_metrics(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        fmt = message.get("format", "prometheus")
        if fmt == "prometheus":
            body = to_prometheus(self._registry)
        elif fmt == "json":
            body = to_json(self._registry)
        else:
            raise _BadRequest(
                f"unknown metrics format {fmt!r}; "
                "use 'prometheus' or 'json'"
            )
        return ok_response(request_id, format=fmt, body=body)

    async def _op_checkpoint(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        if self._checkpoint_dir is None:
            raise _BadRequest(
                "server has no checkpoint directory; start it with "
                "--checkpoint-dir to enable durability"
            )
        if message.get("table") is not None:
            targets = [self._require_table(message)]
        else:
            targets = [self._tables[name] for name in sorted(self._tables)]
        written = 0
        for table in targets:
            await table.wait_applied()
            # Flush runs on the loop thread on purpose: appliers mutate
            # summaries only between awaits, so serialization sees a
            # consistent record-boundary state.
            written += table.checkpoint_now()
        return ok_response(request_id, tables=len(targets),
                           bytes_written=written)


class _NoSuchTable(_BadRequest):
    """Internal: unknown table name (maps to ``no_such_table``)."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"no such table {name!r}; create it first with create_table")
        self.name = name
