"""Sharded parallel ingestion built on §3.2 sketch linearity.

The Count Sketch update is a linear function of the frequency vector, so
sketches built from disjoint pieces of a stream with *shared hash
functions* — same ``(depth, width, seed)`` — sum to exactly the sketch of
the whole stream.  This module exploits that the way production systems
(Hokusai-style real-time aggregation, multi-stage SF-sketch deployments)
do: partition the stream into chunks, sketch each chunk in a worker, and
``merge`` the shards.  The merged sketch is bit-for-bit equal to the
single-process sketch, including ``total_weight`` — not an approximation.

Two executors:

* ``"fork"`` — a ``multiprocessing`` pool (chunks are shipped to worker
  processes, shard states shipped back and merged with backpressure so at
  most ``2·n_workers`` chunks are in flight).
* ``"serial"`` — the same chunk/shard/merge pipeline run in-process; used
  for ``n_workers=1``, for the ``vectorized`` backend (whose NumPy shard
  pass costs less than a fork round trip), and automatically on
  platforms without ``fork``.

Within a shard, each worker pre-aggregates its chunk into a count table
and applies weighted updates — identical counters by linearity, at a
fraction of the per-item cost (the ``update_counts`` idiom).

Top-k runs the same way, mirroring §4.1's CANDIDATETOP: each worker
tracks ``l ≥ k`` heap candidates next to its sketch shard, the parent
unions the candidate sets, re-estimates every candidate from the merged
sketch, and reports the ``k`` largest.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import time
from collections import Counter, deque
from dataclasses import dataclass
from collections.abc import Hashable, Iterable
from pathlib import Path

import numpy as np

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.observability.registry import (
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    use_registry,
)
from repro.parallel.chunks import DEFAULT_CHUNK_SIZE, iter_chunks
from repro.store.checkpoint import ShardCheckpointStore

#: Any shardable sketch (``CountSketch`` covers the vectorized backend).
_AnySketch = CountSketch | SparseCountSketch

_BACKEND_TYPES: dict[str, type[_AnySketch]] = {
    "dense": CountSketch,
    "sparse": SparseCountSketch,
    "vectorized": VectorizedCountSketch,
}

#: Sketch backends the engine can shard.
BACKENDS = tuple(_BACKEND_TYPES)


def _make_sketch(backend: str, depth: int, width: int, seed: int) -> _AnySketch:
    """Build an empty shard sketch for ``backend``."""
    if backend not in _BACKEND_TYPES:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return _BACKEND_TYPES[backend](depth, width, seed=seed)


def resolve_executor(n_workers: int) -> str:
    """Pick the executor: ``"fork"`` when usable, else ``"serial"``.

    ``n_workers <= 1`` always runs serially (no process overhead), as do
    platforms whose ``multiprocessing`` lacks the ``fork`` start method
    (the spawn-only configurations the engine does not try to support).
    """
    if n_workers <= 1:
        return "serial"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "serial"
    return "fork"


# -- per-shard work (runs in workers; everything must be picklable) ---------


@dataclass(frozen=True)
class _ShardTask:
    """One chunk plus the shared sketch parameters."""

    index: int
    backend: str
    depth: int
    width: int
    seed: int
    candidates: int | None  # top-k candidate list length; None = sketch only
    chunk: list[Hashable]


@dataclass(frozen=True)
class _ShardResult:
    """A worker's shard, reduced to its picklable state."""

    index: int
    state: object  # int64 ndarray (dense/vectorized) or list[dict] (sparse)
    total_weight: int
    items: int
    seconds: float
    counters_touched: int
    candidates: tuple[Hashable, ...] = ()
    #: The shard's own counter metrics (``snapshot()["counters"]``), or
    #: ``None`` when collection is off; the parent folds them into its
    #: registry so fork-worker updates aren't lost with the child.
    metrics: dict[str, int] | None = None


def _build_shard(
    task: _ShardTask, counts: Counter[Hashable]
) -> tuple[_AnySketch, tuple[Hashable, ...]]:
    """Sketch one pre-aggregated chunk; returns (sketch, candidates)."""
    if task.candidates is None:
        sketch = _make_sketch(task.backend, task.depth, task.width, task.seed)
        sketch.update_counts(counts)
        candidate_items: tuple[Hashable, ...] = ()
    else:
        sketch = CountSketch(task.depth, task.width, seed=task.seed)
        tracker = TopKTracker(task.candidates, sketch=sketch)
        tracker.update_batch(list(counts), list(counts.values()))
        candidate_items = tuple(item for item, __ in tracker.top())
    return sketch, candidate_items


def _sketch_chunk(task: _ShardTask) -> _ShardResult:
    """Build one hash-compatible shard over ``task.chunk``."""
    start = time.perf_counter()
    counts = Counter(task.chunk)
    worker_metrics = None
    if metrics_enabled():
        # Collect this shard's counters in a private registry and ship the
        # (picklable) totals home — in fork mode the child's mutations to
        # the inherited registry would otherwise die with the process.
        shard_registry = MetricsRegistry()
        with use_registry(shard_registry):
            sketch, candidate_items = _build_shard(task, counts)
        worker_metrics = shard_registry.snapshot()["counters"]
    else:
        sketch, candidate_items = _build_shard(task, counts)
    seconds = time.perf_counter() - start
    # Workers ship raw shard state home; the parent rehydrates it into a
    # hash-compatible sketch and merges through the checked API
    # (_absorb_state), so the private reads here are serialization, not
    # an unchecked merge.
    if isinstance(sketch, SparseCountSketch):
        state: object = sketch._rows  # repro: noqa-RS004
        touched = sketch.buckets_touched()
    else:
        state = sketch._counters  # repro: noqa-RS004
        touched = int(np.count_nonzero(sketch._counters))  # repro: noqa-RS004
    return _ShardResult(
        index=task.index,
        state=state,
        total_weight=sketch.total_weight,
        items=len(task.chunk),
        seconds=seconds,
        counters_touched=touched,
        candidates=candidate_items,
        metrics=worker_metrics,
    )


# -- instrumentation --------------------------------------------------------


class _IngestMetrics:
    """Engine metric handles captured once per ingest.

    The function-level analogue of the construction-time handle capture
    the instrumented classes use: one registry lookup per ``_ingest``
    call, then plain attribute loads on the per-shard path.
    """

    __slots__ = (
        "workers", "shards", "items", "shard_seconds", "shard_rate",
        "merge_seconds", "wait_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.workers = registry.gauge("parallel_workers")
        self.shards = registry.counter("parallel_shards_total")
        self.items = registry.counter("parallel_items_total")
        self.shard_seconds = registry.histogram("parallel_shard_seconds")
        self.shard_rate = registry.histogram(
            "parallel_shard_items_per_second"
        )
        self.merge_seconds = registry.histogram("parallel_merge_seconds")
        self.wait_seconds = registry.histogram(
            "parallel_backpressure_wait_seconds"
        )


@dataclass(frozen=True)
class ShardStats:
    """Throughput and footprint of one shard (one chunk, one worker)."""

    shard: int
    items: int
    seconds: float
    items_per_second: float
    counters_touched: int


@dataclass(frozen=True)
class IngestSummary:
    """Whole-run instrumentation for one parallel ingest."""

    backend: str
    executor: str  # "fork" or "serial"
    n_workers: int
    chunk_size: int
    n_shards: int
    total_items: int
    wall_seconds: float
    items_per_second: float
    merge_seconds: float
    shards: tuple[ShardStats, ...]
    #: Shards restored from a checkpoint directory instead of recomputed.
    restored_shards: int = 0
    #: Items covered by the restored shards (skipped on replay).
    restored_items: int = 0


# -- the engine -------------------------------------------------------------


def _absorb_state(merged: _AnySketch, result: _ShardResult) -> _AnySketch:
    """Rehydrate a shard from its state and ``merge`` it (§3.2).

    The raw-state writes below rebuild a worker's shard inside an empty
    sketch constructed with the parent's own ``(depth, width, seed)`` —
    hash compatibility holds by construction, and the final ``merge``
    call re-checks it.  Returns the rehydrated shard so the checkpoint
    layer can persist it after the merge.
    """
    if isinstance(merged, SparseCountSketch):
        sparse = SparseCountSketch(merged.depth, merged.width, seed=merged.seed)
        sparse._rows = list(result.state)  # repro: noqa-RS002
        sparse._total_weight = result.total_weight  # repro: noqa-RS002
        merged.merge(sparse)
        return sparse
    counters = np.asarray(result.state, dtype=np.int64)
    shard = merged._with_counters(  # repro: noqa-RS004
        counters, result.total_weight
    )
    merged.merge(shard)
    return shard


def _ingest(
    stream: Iterable[Hashable],
    *,
    backend: str,
    depth: int,
    width: int,
    seed: int,
    n_workers: int,
    chunk_size: int,
    candidates: int | None,
    checkpoint_dir: str | Path | None = None,
) -> tuple[_AnySketch, dict[Hashable, None], IngestSummary]:
    """Chunk, fan out, and merge; returns (sketch, candidate dict, summary)."""
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    effective_backend = backend if candidates is None else "dense"
    merged = _make_sketch(effective_backend, depth, width, seed)
    # A vectorized shard is one NumPy pass, cheaper than shipping its
    # chunk to a fork worker and its counters back: 2 workers ran
    # 0.58-0.68x one on 2 vCPUs.  Top-k and the other backends gain.
    executor = (
        "serial" if effective_backend == "vectorized"
        else resolve_executor(n_workers)
    )
    shard_stats: list[ShardStats] = []
    candidate_items: dict[Hashable, None] = {}  # insertion-ordered set
    merge_seconds = 0.0
    total_items = 0

    # Promote per-shard instrumentation into the metrics registry (the
    # ShardStats/IngestSummary fields stay for programmatic callers).
    # Under the default NullRegistry every handle is a shared no-op.
    registry = get_registry()
    metrics = _IngestMetrics(registry)
    metrics.workers.set(n_workers)

    # Durable-resume bookkeeping: fold previously checkpointed shards
    # into the merged sketch up front (merge order is irrelevant by
    # linearity) and skip their chunk indices when replaying the stream.
    store: ShardCheckpointStore | None = None
    covered: frozenset[int] = frozenset()
    restored_items = 0
    if checkpoint_dir is not None:
        store = ShardCheckpointStore(checkpoint_dir)
        store.ensure_manifest(
            {
                "backend": effective_backend,
                "depth": depth,
                "width": width,
                "seed": seed,
                "chunk_size": chunk_size,
                "candidates": candidates,
            }
        )
        restored: set[int] = set()
        for index, shard, meta in store.load_shards():
            merged.merge(shard)  # compatibility-checked (§3.2)
            for item in meta["candidates"]:
                candidate_items.setdefault(item)
            restored.add(index)
            restored_items += meta.get("items", 0)
        covered = frozenset(restored)
        total_items += restored_items

    def absorb(result: _ShardResult) -> None:
        nonlocal merge_seconds, total_items
        merge_start = time.perf_counter()
        shard = _absorb_state(merged, result)
        merge_elapsed = time.perf_counter() - merge_start
        if store is not None:
            store.save_shard(
                result.index,
                shard,
                items=result.items,
                candidates=result.candidates,
            )
        merge_seconds += merge_elapsed
        for item in result.candidates:
            candidate_items.setdefault(item)
        total_items += result.items
        items_per_second = (
            result.items / result.seconds if result.seconds > 0
            else float("inf")
        )
        if result.metrics:
            registry.merge_counters(result.metrics)
        metrics.shards.inc()
        metrics.items.inc(result.items)
        metrics.shard_seconds.observe(result.seconds)
        if result.seconds > 0:
            metrics.shard_rate.observe(items_per_second)
        metrics.merge_seconds.observe(merge_elapsed)
        shard_stats.append(
            ShardStats(
                shard=result.index,
                items=result.items,
                seconds=result.seconds,
                items_per_second=items_per_second,
                counters_touched=result.counters_touched,
            )
        )

    tasks = (
        _ShardTask(
            index=index,
            backend=backend,
            depth=depth,
            width=width,
            seed=seed,
            candidates=candidates,
            chunk=chunk,
        )
        for index, chunk in enumerate(iter_chunks(stream, chunk_size))
        if index not in covered
    )

    wall_start = time.perf_counter()
    if executor == "serial":
        for task in tasks:
            absorb(_sketch_chunk(task))
    else:
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=n_workers) as pool:
            # Backpressure: at most 2·n_workers chunks in flight, merged as
            # they complete, so memory stays bounded on endless streams.
            pending: deque[
                multiprocessing.pool.AsyncResult[_ShardResult]
            ] = deque()
            for task in tasks:
                pending.append(pool.apply_async(_sketch_chunk, (task,)))
                while len(pending) >= 2 * n_workers:
                    wait_start = time.perf_counter()
                    result = pending.popleft().get()
                    metrics.wait_seconds.observe(
                        time.perf_counter() - wait_start
                    )
                    absorb(result)
            while pending:
                absorb(pending.popleft().get())
    wall_seconds = time.perf_counter() - wall_start

    shard_stats.sort(key=lambda stats: stats.shard)
    summary = IngestSummary(
        backend=backend if candidates is None else "dense",
        executor=executor,
        n_workers=n_workers,
        chunk_size=chunk_size,
        n_shards=len(shard_stats),
        total_items=total_items,
        wall_seconds=wall_seconds,
        items_per_second=(
            total_items / wall_seconds if wall_seconds > 0 else float("inf")
        ),
        merge_seconds=merge_seconds,
        shards=tuple(shard_stats),
        restored_shards=len(covered),
        restored_items=restored_items,
    )
    return merged, candidate_items, summary


def parallel_sketch(
    stream: Iterable[Hashable],
    depth: int,
    width: int,
    *,
    seed: int = 0,
    backend: str = "dense",
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_dir: str | Path | None = None,
) -> tuple[_AnySketch, IngestSummary]:
    """Sketch a stream with sharded workers; exact by linearity.

    Args:
        stream: any iterable of hashable items (pair with
            :func:`repro.streams.io.iter_stream_text` for on-disk logs).
        depth: sketch rows ``t`` (shared by every shard).
        width: counters per row ``b`` (shared by every shard).
        seed: hash seed — all shards use it, which is what makes the
            merge exact; merging shards from different seeds is refused
            by the sketches' own compatibility checks.
        backend: ``"dense"``, ``"sparse"``, or ``"vectorized"``.
        n_workers: worker processes; 1 (or a fork-less platform, or the
            ``vectorized`` backend) runs the identical pipeline serially.
        chunk_size: items per shard chunk.
        checkpoint_dir: when set, every absorbed shard is persisted there
            (atomic ``.rcs`` snapshots via :mod:`repro.store`); rerunning
            with the same directory, stream, and parameters restores the
            saved shards and only sketches the not-yet-covered chunks.
            A mismatched directory is refused
            (:class:`~repro.store.CheckpointMismatchError`).

    Returns:
        ``(sketch, summary)`` — the merged sketch, bit-for-bit equal to a
        single-process sketch of the same stream, and an
        :class:`IngestSummary` of per-shard throughput.
    """
    merged, __, summary = _ingest(
        stream,
        backend=backend,
        depth=depth,
        width=width,
        seed=seed,
        n_workers=n_workers,
        chunk_size=chunk_size,
        candidates=None,
        checkpoint_dir=checkpoint_dir,
    )
    return merged, summary


def parallel_topk(
    stream: Iterable[Hashable],
    k: int,
    depth: int,
    width: int,
    *,
    seed: int = 0,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    candidates: int | None = None,
    checkpoint_dir: str | Path | None = None,
) -> tuple[list[tuple[Hashable, float]], IngestSummary]:
    """Approximate top-k over sharded workers (§4.1 CANDIDATETOP style).

    Each worker runs a :class:`~repro.core.topk.TopKTracker` with
    ``candidates ≥ k`` heap slots over its chunks; the parent merges the
    sketch shards exactly, unions the per-shard candidate lists, and
    re-estimates every candidate from the merged sketch — the same
    union-then-rescore step :class:`~repro.core.candidate_top.
    CandidateTopTracker` uses between passes.

    Args:
        stream: any iterable of hashable items.
        k: number of items to report.
        depth: sketch rows shared by every shard.
        width: counters per row shared by every shard.
        seed: shared hash seed (the §3.2 compatibility requirement).
        n_workers: worker processes (1 = serial).
        chunk_size: items per shard chunk.
        candidates: per-shard candidate list length ``l``; defaults to
            ``2·k``, the same safe constant multiple CANDIDATETOP uses.
        checkpoint_dir: when set, absorbed shards (sketch + candidate
            list) are persisted for durable resume, exactly as in
            :func:`parallel_sketch`.

    Returns:
        ``(top, summary)`` where ``top`` is a list of ``(item, estimate)``
        pairs, heaviest first, estimated from the exactly-merged sketch.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if candidates is None:
        candidates = 2 * k
    if candidates < k:
        raise ValueError("candidates must be at least k")
    merged, candidate_items, summary = _ingest(
        stream,
        backend="dense",
        depth=depth,
        width=width,
        seed=seed,
        n_workers=n_workers,
        chunk_size=chunk_size,
        candidates=candidates,
        checkpoint_dir=checkpoint_dir,
    )
    ranked = sorted(
        ((item, merged.estimate(item)) for item in candidate_items),
        key=lambda pair: (-pair[1], repr(pair[0])),
    )
    return ranked[:k], summary
