"""The cluster coordinator: scatter-gather over sharded sketch servers.

:class:`ClusterCoordinator` owns one :class:`~repro.service.client.
AsyncServiceClient` per shard.  Ingest is routed by
:func:`~repro.cluster.routing.jump_hash_array` over the same
``encode_key`` u64 images the sketches hash (one encoding pass covers
routing *and* sketching); queries scatter to every shard and gather
exact answers:

* ``estimate`` — each shard returns its per-row signed counter readouts
  (a binary ``estimate_rows`` frame pair) for the ``encode_key`` images
  the coordinator encodes once per scatter: every shard gets the same
  key block and answers with one ``(depth, n)`` int64 block.  By §3.2
  linearity those integers sum, row by row, to the readouts of the
  merged sketch, so the coordinator adds them in int64 and takes the
  float64 median :meth:`CountSketch.estimate_batch` takes —
  **bit-equal** to querying one offline sketch fed every record.  The
  int64 sums wrap mod 2**64 exactly as the merged sketch's counters do,
  and addition mod 2**64 commutes, so neither the partition nor the
  gather order can perturb the answer, past int64 included.
* ``topk`` — shard-local candidate lists are unioned and every candidate
  is re-scored globally through the same summed readouts (the
  union-then-rescore step of :meth:`ClusterCoordinator.topk`, §4.1
  CANDIDATETOP's re-score), ranked by ``(-estimate, repr(item))``.
* ``maxchange`` — the §3.2 *difference* of two tables, evaluated as
  row-readout differences and ranked by ``(-|change|, repr(item))``,
  mirroring :meth:`repro.store.archive.SketchArchive.diff`.

``window`` tables are not routable: jumping-window rotation depends on
each shard's local arrival count, which is not linear across shards.
:func:`unshardable_reason` says so; the coordinator refuses them at
``create_table`` time, and ``repro cluster serve`` and ``repro traffic
--cluster`` before any shard is reached.

A script drives a fleet with ``asyncio.run`` over a coroutine that
awaits :meth:`ClusterCoordinator.connect`, as ``repro query --cluster``
does.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.routing import partition_keys
from repro.observability.registry import MetricsRegistry, get_registry
from repro.service.client import (
    AsyncServiceClient,
    ServiceError,
    ingest_columns,
    item_column,
    key_images,
    unzip_records,
)
from repro.service.tables import TableSpec
from repro.store.archive import ArchiveDiffEntry

if TYPE_CHECKING:
    from collections.abc import Hashable, Iterable, Sequence

    from repro.service.server import SketchServer

__all__ = ["ClusterCoordinator", "unshardable_reason"]


class _ClusterMetrics:
    """Coordinator metric handles, captured once at construction."""

    __slots__ = (
        "ingest_batches",
        "ingest_records",
        "queries",
        "scatter_seconds",
        "shards",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.ingest_records = registry.counter(
            "cluster_ingest_records_total")
        self.ingest_batches = registry.counter(
            "cluster_ingest_batches_total")
        self.queries = registry.counter("cluster_queries_total")
        self.scatter_seconds = registry.histogram("cluster_scatter_seconds")
        self.shards = registry.gauge("cluster_shards")


def unshardable_reason(kind: str) -> str | None:
    """Why a fleet cannot shard tables of ``kind``, or None when it can."""
    if kind != "window":
        return None
    return ("window tables cannot be sharded: jumping-window rotation "
            "counts local arrivals, which is not linear across shards; "
            "serve them from a single `repro serve` process")


def _medians(rows: np.ndarray) -> list[float]:
    """Finalize summed ``(depth, n)`` row readouts with the paper's
    median: the float64 ``np.median`` over each key's rows that
    :meth:`CountSketch.estimate_batch` takes, so every estimate is
    bit-equal to the merged sketch's."""
    medians: list[float] = np.median(rows.astype(np.float64),
                                     axis=0).tolist()
    return medians


def _summed(per_shard: Sequence[np.ndarray]) -> np.ndarray:
    """The shards' ``(depth, n)`` readouts summed in int64: each cell
    wraps mod 2**64 as the merged sketch's counter does."""
    try:
        return np.stack(per_shard).sum(axis=0, dtype=np.int64)
    except ValueError:
        raise ServiceError(
            "internal",
            "shards answered estimate_rows with different shapes: "
            f"{[rows.shape for rows in per_shard]}",
        ) from None


class ClusterCoordinator:
    """Scatter-gather front end over N shard servers.

    Args:
        clients: one connected :class:`AsyncServiceClient` per shard,
            in shard-index order (the order IS the routing table — a
            record with key image ``key`` goes to
            ``clients[jump_hash(key, len(clients))]``).
    """

    def __init__(self, clients: Sequence[AsyncServiceClient]) -> None:
        if not clients:
            raise ValueError("a cluster needs at least one shard client")
        self._clients = list(clients)
        self._table_specs: dict[str, TableSpec] = {}
        registry = get_registry()
        self._metrics = (
            _ClusterMetrics(registry) if registry.enabled else None
        )
        if self._metrics is not None:
            self._metrics.shards.set(len(self._clients))

    @classmethod
    async def connect(
        cls, endpoints: Sequence[tuple[str, int]]
    ) -> ClusterCoordinator:
        """Open one TCP connection per shard endpoint, in order."""
        clients = await asyncio.gather(*[
            AsyncServiceClient.connect(host, port)
            for host, port in endpoints
        ])
        return cls(list(clients))

    @classmethod
    def in_process(
        cls, servers: Sequence[SketchServer]
    ) -> ClusterCoordinator:
        """Attach to in-process servers (tests, benchmarks)."""
        return cls([
            AsyncServiceClient.in_process(server) for server in servers
        ])

    @property
    def n_shards(self) -> int:
        """The fleet size (fixed for the coordinator's lifetime)."""
        return len(self._clients)

    @property
    def clients(self) -> list[AsyncServiceClient]:
        """The per-shard clients, in routing order."""
        return self._clients

    # -- fan-out plumbing ---------------------------------------------------

    async def _gather(self, coros: Iterable[Any]) -> list[Any]:
        start = time.perf_counter()
        try:
            return list(await asyncio.gather(*coros))
        finally:
            if self._metrics is not None:
                self._metrics.scatter_seconds.observe(
                    time.perf_counter() - start)
                self._metrics.queries.inc()

    async def _table_spec(self, table: str) -> TableSpec:
        """The table's pinned spec (cached; one ``stats`` on a miss)."""
        spec = self._table_specs.get(table)
        if spec is None:
            response = await self._clients[0].stats(table)
            spec = TableSpec.from_dict(response["table"]["spec"])
            self._table_specs[table] = spec
        return spec

    # -- administration -----------------------------------------------------

    async def ping(self) -> list[dict[str, Any]]:
        """Liveness of every shard, in routing order."""
        return await self._gather(
            client.ping() for client in self._clients)

    async def create_table(self, spec: TableSpec) -> bool:
        """Create ``spec`` on every shard; ``True`` if any shard created
        it anew.  ``window`` tables are refused: their rotation depends
        on shard-local arrival counts and is not linear across shards.
        """
        problem = unshardable_reason(spec.kind)
        if problem is not None:
            raise ValueError(problem)
        created = await self._gather(
            client.create_table(spec) for client in self._clients)
        self._table_specs[spec.name] = spec
        return any(bool(flag) for flag in created)

    async def drop_table(self, table: str) -> int:
        """Drop ``table`` everywhere; returns total records it held."""
        dropped = await self._gather(
            client.drop_table(table) for client in self._clients)
        self._table_specs.pop(table, None)
        return sum(int(count) for count in dropped)

    # -- ingest -------------------------------------------------------------

    async def ingest(
        self,
        table: str,
        records: Iterable[tuple[Hashable, int]],
        *,
        wait: bool = False,
    ) -> int:
        """Route ``(item, count)`` records: :meth:`ingest_items` of their columns."""
        return await self.ingest_items(table, *unzip_records(records),
                                       wait=wait)

    async def ingest_items(
        self,
        table: str,
        items: Iterable[Hashable] | np.ndarray,
        counts: Iterable[int] | np.ndarray | None = None,
        *,
        wait: bool = False,
    ) -> int:
        """Route one batch of records ``(items[j], counts[j])`` (each
        count 1 by default) to its shards; returns the records routed.

        Counts are checked once, here, against the core's weight range
        and the table's count rule (the one the shards apply:
        :meth:`~repro.service.tables.TableSpec.check_counts`), and keys
        encoded once, before any shard is sent anything, so a refused
        batch leaves every shard untouched.  The u64 images drive
        jump-hash routing; a shard gets ``keys[positions]`` with
        ``counts[positions]``.  On ``topk`` tables, whose heaps store
        items, it gets the items picked instead: ``items[positions]`` of
        their int64 column when every item is an int in int64 range
        (see :func:`~repro.service.client.item_column`), else a list.

        ``wait=True`` acknowledges only after every routed sub-batch is
        *applied* on its shard — the cluster-wide read barrier.

        Shard-side refusals pass through untranslated: a shard whose
        table quota or ingest queue refuses its sub-batch raises the
        same :class:`~repro.service.client.QuotaExceededError` /
        :class:`~repro.service.client.OverloadedError` here.  Refused
        sub-batches were never enqueued on their shard (all-or-nothing
        per shard), but sub-batches routed to *other* shards in the
        same call may already be acknowledged — retry the whole batch
        only on linear-sketch tables, where re-adding commutes (§3.2).
        """
        if not isinstance(items, np.ndarray):
            items = list(items)
        spec = await self._table_spec(table)
        packed = spec.packed_keys
        if packed:
            items = item_column(items)
        keys, weights = ingest_columns(items, counts, spec, raw=True)
        assert isinstance(keys, np.ndarray)  # raw columns are key images
        if not keys.size:
            return 0
        calls = []
        for shard, positions in enumerate(partition_keys(keys,
                                                         self.n_shards)):
            if positions.size:
                routed: list[Hashable] | np.ndarray
                if not packed:
                    routed = keys[positions]
                elif isinstance(items, np.ndarray):
                    routed = items[positions]
                else:
                    routed = [items[index] for index in positions.tolist()]
                calls.append(self._clients[shard].ingest_items(
                    table, routed, weights[positions], wait=wait))
        await self._gather(calls)
        if self._metrics is not None:
            self._metrics.ingest_batches.inc()
            self._metrics.ingest_records.inc(keys.size)
        return int(keys.size)

    # -- queries ------------------------------------------------------------

    async def _rows(self, table: str, keys: np.ndarray) -> np.ndarray:
        """Scatter ``estimate_rows`` of the key images ``keys`` (encoded
        once, the same block sent to every shard) and sum the shards'
        readouts in int64 into one ``(depth, n)`` array."""
        return _summed(await self._gather(
            client.estimate_rows_array(table, keys)
            for client in self._clients
        ))

    async def estimate_rows(
        self, table: str, items: Sequence[Hashable]
    ) -> list[list[int]]:
        """Scatter ``estimate_rows`` and sum the integer readouts.

        The result is exactly the merged sketch's per-row readouts for
        each item (§3.2: shard readouts sum, in int64 as its counters
        do), before any median."""
        rows: list[list[int]] = (await self._rows(
            table, key_images(items))).T.tolist()
        return rows

    async def estimate(
        self, table: str, items: Sequence[Hashable]
    ) -> list[float]:
        """Frequency estimates over every shard's acknowledged records,
        bit-equal to one offline sketch fed the same stream.

        For ``topk`` tables this answers from the merged *sketch* (the
        estimator :meth:`topk` re-scores its candidate union with), not
        from shard-local heap priorities, which are not meaningful
        across shards.
        """
        keys = key_images(items)
        if not keys.size:
            return []
        return _medians(await self._rows(table, keys))

    async def topk(
        self, table: str, k: int | None = None
    ) -> list[tuple[Hashable, float]]:
        """Global top-k: shard candidate union, re-scored exactly.

        Every shard contributes its full tracked candidate list; the
        union is re-scored through the summed row readouts (merged-
        sketch estimates) and ranked by ``(-estimate, repr(item))``:
        §4.1 CANDIDATETOP's union-then-rescore, across shards instead of
        passes.  Never-updated shards contribute empty candidate lists
        and all-zero readouts, which are exact by linearity.
        """
        if k is None:
            k = (await self._table_spec(table)).k
        if k < 1:
            raise ValueError("k must be at least 1")
        per_shard = await self._gather(
            client.topk(table) for client in self._clients)
        union: dict[Hashable, None] = {}
        for shard_top in per_shard:
            for item, _ in shard_top:
                union.setdefault(item)
        candidates = list(union)
        if not candidates:
            return []
        scores = _medians(await self._rows(table, key_images(candidates)))
        ranked = sorted(
            zip(candidates, scores, strict=True),
            key=lambda pair: (-pair[1], repr(pair[0])),
        )
        return ranked[:k]

    async def maxchange(
        self,
        before: str,
        after: str,
        *,
        k: int = 10,
        items: Iterable[Hashable] | None = None,
    ) -> list[ArchiveDiffEntry]:
        """The ``k`` items whose frequency changed most between tables.

        Evaluates the §3.2 *difference sketch* ``after - before``
        without materialising it: per-item row readouts of both tables
        are summed across shards and subtracted, in int64 as the
        sketches' counters are, and finalized with the median — bit-equal
        to
        :meth:`repro.store.archive.SketchArchive.diff` over the merged
        sketches.  Candidates default to the union of both tables'
        shard-local top-k lists (both must then be ``topk`` tables);
        pass ``items`` to score an explicit set against any linear kind.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        kind = (await self._table_spec(before)).kind
        kind_after = (await self._table_spec(after)).kind
        if kind_after != kind:
            raise ValueError(
                f"tables {before!r} ({kind}) and {after!r} "
                f"({kind_after}) have different kinds; their "
                "sketches cannot be subtracted"
            )
        if items is None:
            per_shard = await self._gather(
                [client.topk(before) for client in self._clients]
                + [client.topk(after) for client in self._clients]
            )
            probe: dict[Hashable, None] = {}
            for shard_top in per_shard:
                for item, _ in shard_top:
                    probe.setdefault(item)
            candidates: list[Hashable] = list(probe)
        else:
            seen: dict[Hashable, None] = {}
            for item in items:
                seen.setdefault(item)
            candidates = list(seen)
        if not candidates:
            return []
        keys = key_images(candidates)
        rows_before, rows_after = await self._gather([
            self._rows(before, keys),
            self._rows(after, keys),
        ])
        changes = _medians(rows_after - rows_before)
        est_before = _medians(rows_before)
        est_after = _medians(rows_after)
        entries = [
            ArchiveDiffEntry(
                item=item,
                estimated_change=change,
                estimate_before=b,
                estimate_after=a,
            )
            for item, change, b, a in zip(
                candidates, changes, est_before, est_after, strict=True)
        ]
        entries.sort(key=lambda e: (-e.abs_change, repr(e.item)))
        return entries[:k]

    # -- observability and lifecycle ----------------------------------------

    async def stats(self, table: str | None = None) -> dict[str, Any]:
        """Cluster stats: fleet size plus per-shard stats payloads."""
        per_shard = await self._gather(
            client.stats(table) for client in self._clients)
        shards = [
            {"shard": index,
             **{key: value for key, value in payload.items()
                if key not in ("ok", "id")}}
            for index, payload in enumerate(per_shard)
        ]
        return {"n_shards": self.n_shards, "shards": shards}

    async def metrics(self, fmt: str = "prometheus") -> list[str]:
        """Every shard's metrics export body, in routing order."""
        return [
            str(body) for body in await self._gather(
                client.metrics(fmt) for client in self._clients)
        ]

    async def checkpoint(self, table: str | None = None) -> int:
        """Snapshot every shard now; returns total bytes written."""
        written = await self._gather(
            client.checkpoint(table) for client in self._clients)
        return sum(int(count) for count in written)

    async def shutdown(self) -> None:
        """Ask every shard to stop gracefully."""
        await self._gather(
            client.shutdown() for client in self._clients)

    async def close(self) -> None:
        """Close every shard connection (the servers keep running)."""
        await asyncio.gather(*[
            client.close() for client in self._clients])
