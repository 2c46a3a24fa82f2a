"""Table specs and live tables for the sketch service.

A *table* is one named summary owned by a running
:class:`~repro.service.server.SketchServer`:

* :class:`TableSpec` — the immutable, JSON-serializable description of
  a table (kind + sketch parameters).  Specs are pinned in the service
  manifest so a resumed server refuses to reinterpret old snapshots
  under different parameters.
* :class:`ServiceTable` — the runtime object: the summary itself, a
  bounded ingest queue, the applier coroutine that drains it in
  micro-batches, a read barrier so queries see exactly the prefix
  acknowledged so far, and per-table metric handles.

Concurrency model: everything runs on one event loop.  Ingest requests
validate, enqueue, and return; the applier task applies batches between
awaits.  Queries await the read barrier (``applied_seq >= seq at query
arrival``), then read the summary directly — safe because applies and
reads interleave only at await points, never mid-update.
"""

from __future__ import annotations

import asyncio
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.core.windowed import JumpingWindowSketch
from repro.service.limits import (
    TableQuotaExceededError,
    TokenBucket,
    WeightedFairScheduler,
)
from repro.store.checkpoint import CheckpointManager, apply_update_batch

if TYPE_CHECKING:
    from collections.abc import Hashable, Sequence

    from repro.observability.registry import MetricsRegistry
    from repro.store.codec import Snapshotable

__all__ = [
    "TABLE_KINDS",
    "ServiceTable",
    "TableOverloadedError",
    "TableSpec",
]

#: Summary kinds a table may select.
TABLE_KINDS = ("sketch", "vectorized", "topk", "window")

_KIND_TYPES: dict[str, type] = {
    "sketch": CountSketch,
    "vectorized": VectorizedCountSketch,
    "topk": TopKTracker,
    "window": JumpingWindowSketch,
}

#: Table names double as snapshot filenames and metric-name segments.
_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_-]{0,63}$")


class TableOverloadedError(Exception):
    """The table's ingest queue is full; the batch was NOT enqueued."""

    def __init__(self, name: str, depth: int, capacity: int) -> None:
        super().__init__(
            f"table {name!r} ingest queue is full "
            f"({depth}/{capacity} batches); retry after a query "
            "barrier or slow the producer"
        )
        self.name = name
        self.depth = depth
        self.capacity = capacity


@dataclass(frozen=True)
class TableSpec:
    """Immutable description of one service table.

    ``k`` applies to ``topk`` tables only; ``window`` / ``buckets`` to
    ``window`` tables only.  Irrelevant fields keep their defaults so
    specs compare and serialize canonically.
    """

    name: str
    kind: str = "sketch"
    depth: int = 5
    width: int = 512
    seed: int = 0
    k: int = 10
    window: int = 4096
    buckets: int = 8

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"invalid table name {self.name!r}: use 1-64 characters "
                "from [A-Za-z0-9_-], not starting with '-'"
            )
        if self.kind not in TABLE_KINDS:
            raise ValueError(
                f"unknown table kind {self.kind!r}; "
                f"choose one of {', '.join(TABLE_KINDS)}"
            )
        for label in ("depth", "width", "k", "window", "buckets"):
            value = getattr(self, label)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{label} must be an integer")
            if value < 1:
                raise ValueError(f"{label} must be at least 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")

    def build(self) -> Snapshotable:
        """Construct a fresh, empty summary for this spec."""
        if self.kind == "sketch":
            return CountSketch(self.depth, self.width, seed=self.seed)
        if self.kind == "vectorized":
            return VectorizedCountSketch(self.depth, self.width,
                                         seed=self.seed)
        if self.kind == "topk":
            return TopKTracker(self.k, depth=self.depth, width=self.width,
                               seed=self.seed)
        return JumpingWindowSketch(self.window, buckets=self.buckets,
                                   depth=self.depth, width=self.width,
                                   seed=self.seed)

    def matches_summary(self, summary: Snapshotable) -> bool:
        """Whether a restored summary is of this spec's kind."""
        return type(summary) is _KIND_TYPES[self.kind]

    @property
    def allows_negative_counts(self) -> bool:
        """Turnstile deletions are linear-sketch-only (§3.2); top-k
        admission and window rotation are insert-ordered."""
        return self.kind in ("sketch", "vectorized")

    def check_counts(self, counts: np.ndarray) -> None:
        """Refuse an int64 count column this table must not apply: a
        zero count, a negative one on an insert-only table (see
        :attr:`allows_negative_counts`), or ``-2**63``, which a sketch
        cannot negate.  The server checks every frame with it, and the
        client and the coordinator check every batch before sending,
        so a bad batch is refused whole rather than after part of it
        was applied.

        Raises:
            ValueError: naming the rule the column breaks.
        """
        if not counts.size:
            return
        if bool((counts == 0).any()):
            raise ValueError("a record has a zero count")
        lowest = int(counts.min())
        if lowest < 0 and not self.allows_negative_counts:
            raise ValueError(f"a record has a negative count; {self.kind!r} "
                             "tables are insert-only")
        if lowest == -(1 << 63):
            # The sketch refuses it, and a refusal inside the applier
            # would stop the applier and hang every read barrier.
            raise ValueError("a count of -2**63 is outside the int64 range a "
                             "sketch applies (int64 cannot negate it)")

    @property
    def packed_keys(self) -> bool:
        """Whether ingest ships lossless packed keys rather than raw u64
        key images: a ``topk`` table stores original items, the other
        kinds only hash them."""
        return self.kind == "topk"

    def to_dict(self) -> dict[str, Any]:
        """JSON-representable form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "depth": self.depth,
            "width": self.width,
            "seed": self.seed,
            "k": self.k,
            "window": self.window,
            "buckets": self.buckets,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> TableSpec:
        """Validate and build a spec from its wire/manifest form."""
        if not isinstance(payload, dict):
            raise ValueError("table spec must be an object")
        unknown = set(payload) - {
            "name", "kind", "depth", "width", "seed", "k", "window",
            "buckets",
        }
        if unknown:
            raise ValueError(
                f"unknown table spec field(s): {', '.join(sorted(unknown))}"
            )
        if "name" not in payload:
            raise ValueError("table spec requires a name")
        name = payload["name"]
        if not isinstance(name, str):
            raise ValueError("table name must be a string")
        kwargs: dict[str, Any] = {"name": name}
        for label in ("kind",):
            if label in payload:
                value = payload[label]
                if not isinstance(value, str):
                    raise ValueError(f"{label} must be a string")
                kwargs[label] = value
        for label in ("depth", "width", "seed", "k", "window", "buckets"):
            if label in payload:
                kwargs[label] = payload[label]
        return cls(**kwargs)


class _TableMetrics:
    """Per-table metric handles, captured once at table construction."""

    __slots__ = (
        "applied_batches",
        "applied_records",
        "apply_seconds",
        "fair_turns",
        "ingested_batches",
        "ingested_records",
        "overloads",
        "queue_depth",
        "quota_ingest_refusals",
        "quota_query_refusals",
    )

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        prefix = f"service_table_{name}"
        self.ingested_records = registry.counter(
            f"{prefix}_ingested_records_total")
        self.ingested_batches = registry.counter(
            f"{prefix}_ingested_batches_total")
        self.applied_records = registry.counter(
            f"{prefix}_applied_records_total")
        self.applied_batches = registry.counter(
            f"{prefix}_applied_batches_total")
        self.overloads = registry.counter(f"{prefix}_overloads_total")
        self.queue_depth = registry.gauge(f"{prefix}_queue_depth")
        self.apply_seconds = registry.histogram(f"{prefix}_apply_seconds")
        self.quota_ingest_refusals = registry.counter(
            f"service_quota_{name}_ingest_refusals_total")
        self.quota_query_refusals = registry.counter(
            f"service_quota_{name}_query_refusals_total")
        self.fair_turns = registry.counter(
            f"service_quota_{name}_fair_turns_total")


@dataclass
class _Batch:
    """One acknowledged ingest batch, awaiting application.

    ``items`` is a ``uint64`` ndarray of pre-encoded keys (raw layout:
    ``sketch``/``vectorized``/``window`` tables) or a list of decoded
    stream objects (packed layout: ``topk`` tables); a table accepts one
    layout only, so all its batches agree.  ``counts`` is ``int64``.
    """

    seq: int
    items: list[Hashable] | np.ndarray
    counts: np.ndarray


class ServiceTable:
    """One live summary plus its ingest queue and read barrier.

    Args:
        spec: the table's pinned description.
        registry: metrics registry (handles captured here, per RS003).
        queue_capacity: maximum pending ingest batches before
            :meth:`try_enqueue` raises :class:`TableOverloadedError`.
        max_coalesce: upper bound on batches merged into one apply call.
        manager: optional checkpoint manager wrapping the summary; when
            present it owns durability and the records-applied count.
        summary: pre-built summary (used on resume); defaults to
            ``spec.build()``.
        records_applied: stream records already reflected in ``summary``
            (resume); ignored when ``manager`` is given (the manager's
            ``items_consumed`` is authoritative).
        ingest_quota: optional per-table ingest token bucket; an empty
            bucket turns :meth:`try_enqueue` into an explicit
            :class:`TableQuotaExceededError` refusal.
        query_quota: optional per-table query token bucket charged by
            :meth:`charge_query` before every data-plane query.
        scheduler: optional weighted-fair turn scheduler shared across
            the server's appliers; ``None`` drains exactly as before.
    """

    def __init__(
        self,
        spec: TableSpec,
        registry: MetricsRegistry,
        *,
        queue_capacity: int = 256,
        max_coalesce: int = 64,
        manager: CheckpointManager | None = None,
        summary: Snapshotable | None = None,
        records_applied: int = 0,
        ingest_quota: TokenBucket | None = None,
        query_quota: TokenBucket | None = None,
        scheduler: WeightedFairScheduler | None = None,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if max_coalesce < 1:
            raise ValueError("max_coalesce must be at least 1")
        self.spec = spec
        if manager is not None:
            self.summary = manager.summary
        elif summary is not None:
            self.summary = summary
        else:
            self.summary = spec.build()
        if not spec.matches_summary(self.summary):
            raise ValueError(
                f"table {spec.name!r} expects a {spec.kind!r} summary, "
                f"got {type(self.summary).__name__}"
            )
        self._manager = manager
        self._queue: asyncio.Queue[_Batch] = asyncio.Queue(
            maxsize=queue_capacity)
        self._capacity = queue_capacity
        self._max_coalesce = max_coalesce
        self._enqueued_seq = 0
        self._applied_seq = 0
        self._records_applied = (
            manager.items_consumed if manager is not None else records_applied
        )
        self._applied = asyncio.Condition()
        self._paused = asyncio.Event()
        self._paused.set()  # set == running; clear == paused
        self._ingest_quota = ingest_quota
        self._query_quota = query_quota
        self._scheduler = scheduler
        self._metrics = _TableMetrics(registry, spec.name)

    # -- ingest side ----------------------------------------------------------

    @property
    def enqueued_seq(self) -> int:
        """Sequence number of the newest acknowledged batch."""
        return self._enqueued_seq

    @property
    def applied_seq(self) -> int:
        """Sequence number of the newest applied batch."""
        return self._applied_seq

    @property
    def records_applied(self) -> int:
        """Stream records reflected in the summary (incl. resumed)."""
        return self._records_applied

    @property
    def queue_depth(self) -> int:
        """Pending (acknowledged, unapplied) batches."""
        return self._queue.qsize()

    @property
    def manager(self) -> CheckpointManager | None:
        """The checkpoint manager, when durability is configured."""
        return self._manager

    def try_enqueue(
        self,
        items: Sequence[Hashable] | np.ndarray,
        counts: Sequence[int] | np.ndarray,
    ) -> int:
        """Enqueue one validated batch; returns its sequence number.

        All-or-nothing: on overload the batch is rejected whole and
        :class:`TableOverloadedError` carries the queue state — callers
        surface it as an explicit ``overloaded`` response, never a
        silent drop.  The queue is checked before the ingest quota, so
        a refused batch spends no tokens.

        NumPy key arrays are enqueued as-is (the raw-binary zero-copy
        path); other item sequences are copied defensively.
        """
        if len(items) != len(counts):
            raise ValueError("items and counts must have the same length")
        if self._queue.full():
            self._metrics.overloads.inc()
            raise TableOverloadedError(
                self.spec.name, self._queue.qsize(), self._capacity)
        if self._ingest_quota is not None and not (
            self._ingest_quota.try_take(len(items))
        ):
            self._metrics.quota_ingest_refusals.inc()
            raise TableQuotaExceededError(
                self.spec.name, "ingest", len(items),
                self._ingest_quota.retry_after(len(items)),
            )
        batch = _Batch(
            self._enqueued_seq + 1,
            items if isinstance(items, np.ndarray) else list(items),
            np.ascontiguousarray(counts, dtype=np.int64),
        )
        self._queue.put_nowait(batch)  # fits: nothing awaited since full()
        self._enqueued_seq = batch.seq
        self._metrics.ingested_batches.inc()
        self._metrics.ingested_records.inc(len(batch.items))
        self._metrics.queue_depth.set(self._queue.qsize())
        return batch.seq

    def charge_query(self) -> None:
        """Charge one query against the table's query quota, if any.

        Called by the server *before* the read barrier, so a refused
        query costs no applier work and the refusal pattern depends
        only on the arrival schedule.
        """
        if self._query_quota is not None and not self._query_quota.try_take(1):
            self._metrics.quota_query_refusals.inc()
            raise TableQuotaExceededError(
                self.spec.name, "query", 1,
                self._query_quota.retry_after(1),
            )

    # -- applier side ---------------------------------------------------------

    async def run_applier(self) -> None:
        """Drain the queue forever, applying micro-batches in order.

        Runs as one task per table; cancelled at shutdown after a drain
        barrier, so cancellation never loses acknowledged records.

        With a fair scheduler, every apply cycle first acquires a
        weighted turn; its record budget caps coalescing so one hot
        table cannot glue its whole deep queue into a single
        loop-blocking apply while other tables' ready batches wait.
        The first batch always applies whole even when it alone
        exceeds the budget (batches are the atomic ack unit).
        """
        while True:
            batch = await self._queue.get()
            await self._paused.wait()
            budget: int | None = None
            if self._scheduler is not None:
                budget = await self._scheduler.acquire(self.spec.name)
                self._metrics.fair_turns.inc()
            try:
                batches = [batch]
                records = len(batch.items)
                while (
                    len(batches) < self._max_coalesce
                    and not self._queue.empty()
                    and (budget is None or records < budget)
                ):
                    extra = self._queue.get_nowait()
                    records += len(extra.items)
                    batches.append(extra)
                self._apply(batches)
            finally:
                if self._scheduler is not None:
                    self._scheduler.release(self.spec.name)
            for _ in batches:
                self._queue.task_done()
            async with self._applied:
                self._applied_seq = batches[-1].seq
                self._applied.notify_all()

    def _apply(self, batches: list[_Batch]) -> None:
        """Apply coalesced batches synchronously (between awaits).

        The batches concatenate, in arrival order, into one apply call
        (all of a table's batches share a representation), so
        order-sensitive summaries see the exact acknowledged sequence
        and key arrays take one vectorized call.
        """
        start = time.perf_counter()
        items: list[Hashable] | np.ndarray
        if isinstance(batches[0].items, np.ndarray):
            items = np.concatenate([batch.items for batch in batches])
        else:
            items = [item for batch in batches for item in batch.items]
        counts = np.concatenate([batch.counts for batch in batches])
        if self._manager is not None:
            self._manager.update_batch(items, counts)
        else:
            apply_update_batch(self.summary, items, counts)
        applied = len(items)
        self._records_applied += applied
        self._metrics.apply_seconds.observe(time.perf_counter() - start)
        self._metrics.applied_batches.inc(len(batches))
        self._metrics.applied_records.inc(applied)
        self._metrics.queue_depth.set(self._queue.qsize())

    async def wait_applied(self, seq: int | None = None) -> None:
        """Block until batch ``seq`` (default: newest acknowledged) has
        been applied — the read barrier behind every query."""
        target = self._enqueued_seq if seq is None else seq
        async with self._applied:
            await self._applied.wait_for(lambda: self._applied_seq >= target)

    def pause(self) -> None:
        """Suspend the applier after its current batch (operational
        control; queued batches stay acknowledged)."""
        self._paused.clear()

    def resume(self) -> None:
        """Resume a paused applier."""
        self._paused.set()

    @property
    def paused(self) -> bool:
        """Whether the applier is suspended."""
        return not self._paused.is_set()

    def checkpoint_now(self) -> int:
        """Force a snapshot of the current state; returns bytes written.

        Runs synchronously on the loop thread: appliers only mutate the
        summary between awaits, so the serialized bytes are a consistent
        record-boundary state.
        """
        if self._manager is None:
            raise ValueError(
                f"table {self.spec.name!r} has no checkpoint directory"
            )
        return self._manager.flush()

    def stats(self) -> dict[str, Any]:
        """Queryable per-table state for the ``stats`` op."""
        payload: dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "records_applied": self._records_applied,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._capacity,
            "applied_seq": self._applied_seq,
            "enqueued_seq": self._enqueued_seq,
            "paused": self.paused,
        }
        if self._ingest_quota is not None:
            payload["ingest_quota"] = {
                "rate": self._ingest_quota.rate,
                "burst": self._ingest_quota.burst,
            }
        if self._query_quota is not None:
            payload["query_quota"] = {
                "rate": self._query_quota.rate,
                "burst": self._query_quota.burst,
            }
        total_weight = getattr(self.summary, "total_weight", None)
        if total_weight is not None:
            payload["total_weight"] = int(total_weight)
        items_seen = getattr(self.summary, "items_seen", None)
        if items_seen is not None:
            payload["items_seen"] = int(items_seen)
        if self._manager is not None:
            payload["checkpoints_written"] = (
                self._manager.checkpoints_written)
            payload["checkpoint_path"] = str(self._manager.path)
        return payload
