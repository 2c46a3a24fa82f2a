"""Load generation against a live service or cluster target.

The runner drives many concurrent :class:`WorkloadModel` clients over
one asyncio event loop against anything exposing the async service
surface — :class:`~repro.service.client.AsyncServiceClient` and
:class:`~repro.cluster.coordinator.ClusterCoordinator` both qualify —
and freezes what happened into a :class:`TrafficReport`:

* saturation throughput and nearest-rank p50/p99/p999 latency per op
  kind;
* error counts by wire code (``overloaded``, ``quota_exceeded``, …) —
  refusals are *recorded*, never retried, so the report shows exactly
  what the server shed;
* per-tenant throughput and the min/max fairness ratio across tenants;
* an optional mid-load **probe**: a dedicated table ingested with
  ``wait=True`` and queried while the workload hammers the other
  tables, asserting estimates stay bit-equal to an offline summary fed
  the same records (§3.2 linearity end-to-end);
* an optional **verification** pass: after the run drains, per-table
  ``records_applied`` deltas must equal the records the runner saw
  acknowledged — an acknowledged write is never silently dropped.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.service.client import (
    OverloadedError,
    QuotaExceededError,
    ServiceError,
)
from repro.service.tables import TableSpec
from repro.store.checkpoint import apply_update_batch
from repro.traffic.workload import TrafficOp, WorkloadModel, WorkloadSpec

__all__ = [
    "TrafficReport",
    "TrafficRunner",
    "percentile",
    "run_traffic",
]

#: Records the probe feeds its dedicated table before querying.
_PROBE_RECORDS = 256

#: Distinct keys the probe compares against the offline mirror.
_PROBE_KEYS = 64

#: Probe ingest retries when per-table quotas refuse the batch.
_PROBE_RETRIES = 8

#: Records per probe ingest batch (kept under typical quota bursts).
_PROBE_CHUNK = 32


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in ``[0, 1]``).

    Returns ``0.0`` for an empty sample set — absent data reads as
    zero latency rather than crashing a report mid-run.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _summarize(samples: list[float]) -> dict[str, float]:
    """Latency summary (milliseconds) for one op kind."""
    if not samples:
        return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                "p99_ms": 0.0, "p999_ms": 0.0, "max_ms": 0.0}
    return {
        "count": len(samples),
        "mean_ms": sum(samples) / len(samples),
        "p50_ms": percentile(samples, 0.50),
        "p99_ms": percentile(samples, 0.99),
        "p999_ms": percentile(samples, 0.999),
        "max_ms": max(samples),
    }


@dataclass(frozen=True)
class TrafficReport:
    """Frozen outcome of one traffic run.

    ``fairness_ratio`` is min/max successful-op throughput across
    tenants that received any traffic (``1.0`` for a single tenant):
    a value near 1 means the fair scheduler kept the cold tenants
    served while a hot tenant spiked.
    """

    spec: WorkloadSpec
    clients: int
    duration: float
    ops: dict[str, int]
    errors: dict[str, int]
    records_sent: int
    records_acknowledged: int
    latency: dict[str, dict[str, float]]
    per_tenant_ops: dict[str, int]
    per_tenant_records: dict[str, int]
    per_tenant_sent: dict[str, int]
    fairness_ratio: float
    throughput: float
    skipped: int
    probe: dict[str, Any] | None
    verification: dict[str, Any] | None

    @property
    def total_ops(self) -> int:
        """Successful operations across all kinds."""
        return sum(self.ops.values())

    @property
    def total_errors(self) -> int:
        """Refused or failed operations across all codes."""
        return sum(self.errors.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (workload spec inlined)."""
        return {
            "spec": self.spec.to_dict(),
            "clients": self.clients,
            "duration_seconds": self.duration,
            "ops": dict(self.ops),
            "errors": dict(self.errors),
            "records_sent": self.records_sent,
            "records_acknowledged": self.records_acknowledged,
            "latency": {kind: dict(stats)
                        for kind, stats in self.latency.items()},
            "per_tenant_ops": dict(self.per_tenant_ops),
            "per_tenant_records": dict(self.per_tenant_records),
            "per_tenant_sent": dict(self.per_tenant_sent),
            "fairness_ratio": self.fairness_ratio,
            "throughput_ops_per_s": self.throughput,
            "skipped": self.skipped,
            "probe": self.probe,
            "verification": self.verification,
        }


@dataclass
class _RunStats:
    """Mutable tallies shared by every worker (single event loop —
    workers only touch these between awaits, so no locking)."""

    ops: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    latency: dict[str, list[float]] = field(default_factory=dict)
    tenant_ops: dict[str, int] = field(default_factory=dict)
    tenant_records: dict[str, int] = field(default_factory=dict)
    tenant_sent: dict[str, int] = field(default_factory=dict)
    records_sent: int = 0
    records_acknowledged: int = 0
    skipped: int = 0


def _records_applied(payload: dict[str, Any]) -> int:
    """``records_applied`` from a service or cluster stats payload."""
    if "table" in payload:
        return int(payload["table"]["records_applied"])
    if "shards" in payload:
        return sum(
            int(shard["table"]["records_applied"])
            for shard in payload["shards"]
        )
    raise ValueError("unrecognized stats payload shape")


class TrafficRunner:
    """Drive one :class:`WorkloadSpec` with ``clients`` concurrent
    connections for ``duration`` seconds.

    ``connect`` is called once per client (plus once for admin work)
    and must return — directly or as an awaitable — an object with the
    async service surface (``create_table`` / ``ingest`` / ``estimate``
    / ``stats`` / ``close``).  ``max_inflight`` bounds per-client
    outstanding ops in the open-loop modes; arrivals past the cap are
    counted in ``report.skipped``, never silently dropped.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        *,
        clients: int = 4,
        duration: float = 2.0,
        max_inflight: int = 64,
    ) -> None:
        if clients < 1:
            raise ValueError("clients must be at least 1")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self._spec = spec
        self._clients = clients
        self._duration = duration
        self._max_inflight = max_inflight

    async def _connect(
        self, connect: Callable[[], Any]
    ) -> Any:
        client = connect()
        if inspect.isawaitable(client):
            client = await client
        return client

    async def _setup(self, admin: Any) -> dict[str, int]:
        """Create the tenant tables; returns the pre-run applied
        baseline per table (tables may outlive earlier runs)."""
        baseline: dict[str, int] = {}
        for name in self._spec.table_names():
            try:
                await admin.create_table(self._spec.table_spec(name))
            except ServiceError as error:
                if error.code != "table_exists":
                    raise
            payload = await admin.stats(name)
            baseline[name] = _records_applied(payload)
        return baseline

    async def _do_op(self, client: Any, op: TrafficOp,
                     stats: _RunStats) -> None:
        start = time.monotonic()
        if op.kind == "ingest":
            stats.records_sent += len(op.records)
            stats.tenant_sent[op.table] = (
                stats.tenant_sent.get(op.table, 0) + len(op.records))
        try:
            if op.kind == "ingest":
                await client.ingest(op.table, op.records)
            else:
                await client.estimate(op.table, list(op.items))
        except QuotaExceededError:
            stats.errors["quota_exceeded"] = (
                stats.errors.get("quota_exceeded", 0) + 1)
            return
        except OverloadedError:
            stats.errors["overloaded"] = (
                stats.errors.get("overloaded", 0) + 1)
            return
        except ServiceError as error:
            stats.errors[error.code] = stats.errors.get(error.code, 0) + 1
            return
        except (ConnectionError, OSError):
            stats.errors["connection"] = stats.errors.get("connection", 0) + 1
            return
        elapsed_ms = (time.monotonic() - start) * 1e3
        stats.ops[op.kind] = stats.ops.get(op.kind, 0) + 1
        stats.latency.setdefault(op.kind, []).append(elapsed_ms)
        stats.tenant_ops[op.table] = stats.tenant_ops.get(op.table, 0) + 1
        if op.kind == "ingest":
            stats.records_acknowledged += len(op.records)
            stats.tenant_records[op.table] = (
                stats.tenant_records.get(op.table, 0) + len(op.records))

    async def _worker(self, client: Any, model: WorkloadModel,
                      deadline: float, stats: _RunStats) -> None:
        closed_loop = self._spec.arrival == "closed"
        inflight: set[asyncio.Task[None]] = set()
        try:
            while True:
                gap = model.next_gap()
                now = time.monotonic()
                if now >= deadline:
                    break
                if gap > 0:
                    await asyncio.sleep(min(gap, deadline - now))
                    if time.monotonic() >= deadline:
                        break
                op = model.next_op()
                if closed_loop:
                    await self._do_op(client, op, stats)
                elif len(inflight) >= self._max_inflight:
                    stats.skipped += 1
                else:
                    task = asyncio.ensure_future(
                        self._do_op(client, op, stats))
                    inflight.add(task)
                    task.add_done_callback(inflight.discard)
        finally:
            if inflight:
                await asyncio.gather(*inflight)

    async def _run_probe(self, client: Any) -> dict[str, Any]:
        """Mid-load exactness probe on a dedicated table.

        Feeds seeded records with ``wait=True`` (the read barrier),
        queries, and compares bit-for-bit against an offline summary
        fed the same records — while the workload saturates the other
        tables.  Quota refusals back off ``retry_after`` and retry:
        the probe measures exactness, not quota policy.
        """
        spec = self._spec
        name = f"{spec.table_prefix}_probe"
        table_spec = TableSpec(name=name, kind=spec.table_kind,
                               depth=spec.depth, width=spec.width,
                               seed=spec.seed)
        try:
            await client.drop_table(name)
        except ServiceError as error:
            if error.code != "no_such_table":
                raise
        await client.create_table(table_spec)
        rng = random.Random(f"{spec.seed}:probe")
        universe = spec.tenants * spec.keys_per_tenant
        items = [rng.randrange(universe) for _ in range(_PROBE_RECORDS)]
        # Chunked so each batch fits under modest quota bursts; every
        # chunk carries the read barrier (a probe measures exactness,
        # not ingest speed).
        for start in range(0, len(items), _PROBE_CHUNK):
            chunk = items[start:start + _PROBE_CHUNK]
            for attempt in range(_PROBE_RETRIES + 1):
                try:
                    await client.ingest_items(name, chunk, wait=True)
                    break
                except QuotaExceededError as error:
                    if attempt == _PROBE_RETRIES:
                        raise
                    retry_after = error.details.get("retry_after")
                    await asyncio.sleep(
                        float(retry_after)
                        if retry_after is not None else 0.05)
        mirror = table_spec.build()
        apply_update_batch(mirror, items, [1] * len(items))
        present = list(dict.fromkeys(items))
        absent = [universe + index for index in range(8)]
        keys = present[:_PROBE_KEYS] + absent
        expected = [float(mirror.estimate(key)) for key in keys]
        observed: list[float] = []
        for attempt in range(_PROBE_RETRIES + 1):
            try:
                observed = await client.estimate(name, keys)
                break
            except QuotaExceededError as error:
                if attempt == _PROBE_RETRIES:
                    raise
                retry_after = error.details.get("retry_after")
                await asyncio.sleep(
                    float(retry_after) if retry_after is not None else 0.05)
        exact = sum(1 for got, want in zip(observed, expected, strict=True)
                    if got == want)
        await client.drop_table(name)
        return {
            "table": name,
            "records": len(items),
            "keys_checked": len(keys),
            "keys_exact": exact,
            "bit_equal": exact == len(keys),
        }

    async def _verify(self, admin: Any, baseline: dict[str, int],
                      stats: _RunStats) -> dict[str, Any]:
        """Acknowledged records must all have been applied (``stats``
        runs behind the read barrier, so applied is final)."""
        per_table: dict[str, dict[str, int]] = {}
        clean = True
        for name in self._spec.table_names():
            payload = await admin.stats(name)
            applied = _records_applied(payload) - baseline.get(name, 0)
            acknowledged = stats.tenant_records.get(name, 0)
            per_table[name] = {
                "acknowledged": acknowledged,
                "applied": applied,
            }
            if applied != acknowledged:
                clean = False
        return {"tables": per_table, "no_silent_drops": clean}

    async def run(
        self,
        connect: Callable[[], Any],
        *,
        setup: bool = True,
        probe: bool = True,
        verify: bool = True,
    ) -> TrafficReport:
        """Execute the workload; returns the frozen report.

        ``setup=False`` assumes the tenant tables already exist (the
        applied baseline is still captured so verification works).
        """
        admin = await self._connect(connect)
        try:
            if setup:
                baseline = await self._setup(admin)
            else:
                baseline = {
                    name: _records_applied(await admin.stats(name))
                    for name in self._spec.table_names()
                }
            workers = [
                await self._connect(connect) for _ in range(self._clients)
            ]
            stats = _RunStats()
            started = time.monotonic()
            deadline = started + self._duration
            try:
                tasks = [
                    asyncio.ensure_future(self._worker(
                        workers[index], WorkloadModel(self._spec, index),
                        deadline, stats))
                    for index in range(self._clients)
                ]
                probe_task = (
                    asyncio.ensure_future(self._run_probe(admin))
                    if probe else None
                )
                await asyncio.gather(*tasks)
                probe_result = (
                    await probe_task if probe_task is not None else None
                )
            finally:
                for worker in workers:
                    await worker.close()
            duration = time.monotonic() - started
            verification = (
                await self._verify(admin, baseline, stats)
                if verify else None
            )
        finally:
            await admin.close()
        tenant_counts = [
            count for count in stats.tenant_ops.values() if count > 0
        ]
        if len(tenant_counts) > 1:
            fairness = min(tenant_counts) / max(tenant_counts)
        else:
            fairness = 1.0
        return TrafficReport(
            spec=self._spec,
            clients=self._clients,
            duration=duration,
            ops=dict(stats.ops),
            errors=dict(stats.errors),
            records_sent=stats.records_sent,
            records_acknowledged=stats.records_acknowledged,
            latency={kind: _summarize(samples)
                     for kind, samples in stats.latency.items()},
            per_tenant_ops=dict(stats.tenant_ops),
            per_tenant_records=dict(stats.tenant_records),
            per_tenant_sent=dict(stats.tenant_sent),
            fairness_ratio=fairness,
            throughput=(sum(stats.ops.values()) / duration
                        if duration > 0 else 0.0),
            skipped=stats.skipped,
            probe=probe_result,
            verification=verification,
        )


async def run_traffic(
    connect: Callable[[], Any],
    spec: WorkloadSpec,
    *,
    clients: int = 4,
    duration: float = 2.0,
    max_inflight: int = 64,
    setup: bool = True,
    probe: bool = True,
    verify: bool = True,
) -> TrafficReport:
    """One-call convenience wrapper around :class:`TrafficRunner`."""
    runner = TrafficRunner(spec, clients=clients, duration=duration,
                           max_inflight=max_inflight)
    return await runner.run(connect, setup=setup, probe=probe,
                            verify=verify)
