"""The one-pass APPROXTOP algorithm of §3.2: Count Sketch + top-k heap.

For each stream item ``q_j`` the tracker

1. performs ``ADD(C, q_j)`` on its Count Sketch;
2. if ``q_j`` is already in the heap, increments its (exact) count;
3. otherwise, if ``ESTIMATE(C, q_j)`` exceeds the smallest count in the
   heap, evicts that smallest entry and inserts ``q_j`` with the estimate.

The heap therefore stores each member's estimated count *at insertion time*
plus exact increments afterwards (the "counting samples" idea the paper
borrows from Gibbons & Matias).  With the sketch dimensioned per Lemma 5 the
reported items all have true count ≥ (1−ε)·n_k, and every item with count
≥ (1+ε)·n_k is reported, w.h.p. (Theorem 1) — experiment E4 measures this.

Total space is ``O(t·b + k)``: the sketch counters plus one stored object
and one counter per heap entry.

The sketch never depends on the heap, so a batch of records
(:meth:`TopKTracker.update_batch`) runs step 1 and every estimate of
step 3 in one NumPy pass and replays only the heap decisions in order,
ending exactly where the per-item loop ends.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.core.countsketch import _MAX_WEIGHT, CountSketch, integral_count
from repro.core.heap import IndexedMinHeap
from repro.core.vectorized import VectorizedCountSketch
from repro.observability.registry import MetricsRegistry, get_registry

#: Batches shorter than this take the per-item loop in
#: :meth:`TopKTracker.update_batch`: the batch step's fixed NumPy cost
#: only pays off above it.  Measured on the applies of a served ``topk``
#: table (depth 5, width 1024, Zipf(1.1) int keys, metrics on, an
#: estimate after each apply, one of 2 shared vCPUs), the loop and the
#: batch step taking turns apply by apply, median of 300 applies each:
#: the loop took 65/121/146/187/298/350 µs at 8/16/24/32/48/64 records,
#: the batch step 185/249/225/246/333/308 µs; a second run (other keys)
#: had them level at 48-56 records (367/315 µs against 352/320 µs).
_BATCH_CROSSOVER = 48


class _TrackerMetrics:
    """Metric handles captured once per tracker when collection is on.

    ``topk_exact_increments_total / topk_updates_total`` is the tracker's
    exact-increment ratio (how often the hot "already in heap" path is
    taken); admissions + evictions measure heap churn.
    """

    __slots__ = (
        "updates", "admissions", "evictions", "rejections",
        "exact_increments",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.updates = registry.counter("topk_updates_total")
        self.admissions = registry.counter("topk_heap_admissions_total")
        self.evictions = registry.counter("topk_heap_evictions_total")
        self.rejections = registry.counter("topk_heap_rejections_total")
        self.exact_increments = registry.counter(
            "topk_exact_increments_total"
        )


class TopKTracker:
    """Track the approximate top-``k`` items of a stream in one pass.

    Args:
        k: number of frequent items to track (the heap capacity).
        sketch: a :class:`~repro.core.countsketch.CountSketch` to use; pass
            an explicit sketch to control hashing or to share hash functions
            across trackers.  Mutually exclusive with ``depth``/``width``.
        depth: rows of the internal sketch (when ``sketch`` is not given).
        width: counters per row of the internal sketch.
        seed: seed for the internal sketch.
        exact_heap_counts: keep exact incremental counts for heap members
            (the paper's step 2).  Setting this to ``False`` re-estimates a
            heap member from the sketch on every recurrence instead — the A3
            ablation, which is both slower and noisier.
    """

    def __init__(
        self,
        k: int,
        sketch: CountSketch | None = None,
        depth: int | None = None,
        width: int | None = None,
        seed: int = 0,
        exact_heap_counts: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if sketch is None:
            if depth is None or width is None:
                raise ValueError(
                    "provide either a sketch or both depth and width"
                )
            sketch = CountSketch(depth, width, seed=seed)
        elif depth is not None or width is not None:
            raise ValueError("pass either a sketch or depth/width, not both")
        self._k = k
        self._sketch = sketch
        self._heap = IndexedMinHeap()
        self._exact_heap_counts = exact_heap_counts
        self._items_processed = 0
        registry = get_registry()
        self._metrics = _TrackerMetrics(registry) if registry.enabled else None

    @property
    def k(self) -> int:
        """The heap capacity."""
        return self._k

    @property
    def sketch(self) -> CountSketch:
        """The underlying Count Sketch."""
        return self._sketch

    @property
    def items_processed(self) -> int:
        """Total stream weight processed so far."""
        return self._items_processed

    def update(self, item: Hashable, count: int = 1) -> None:
        """Process ``count`` occurrences of ``item`` (the §3.2 loop body).

        Raises:
            ValueError: if ``count`` is not a positive integer (``2.0``
                counts as ``2``); the tracker is left unchanged.
            OverflowError: if ``count`` does not fit an int64 counter;
                the tracker is left unchanged.
        """
        if type(count) is not int:
            count = integral_count(count)
        if count < 1:
            raise ValueError("count must be a positive number of occurrences")
        if count > _MAX_WEIGHT:
            raise OverflowError("count does not fit an int64 counter")
        self._step(item, count)

    def _step(self, item: Hashable, count: int) -> None:
        """The §3.2 loop body for a checked ``count``.

        The sketch never depends on the heap, so heap membership is
        tested first, and the sketch step reads the estimate only when
        the heap needs one: one key encoding and one position lookup
        per record either way.
        """
        sketch = self._sketch
        heap = self._heap
        metrics = self._metrics
        if item in heap:
            if self._exact_heap_counts:
                sketch._add(item, count)
                heap.add_to(item, count)
                if metrics is not None:
                    metrics.exact_increments.inc()
            else:
                heap.update(item, sketch._add_estimate(item, count))
        else:
            estimate = sketch._add_estimate(item, count)
            if len(heap) < self._k:
                heap.push(item, estimate)
                if metrics is not None:
                    metrics.admissions.inc()
            elif estimate > heap.min()[1]:
                heap.pop_min()
                heap.push(item, estimate)
                if metrics is not None:
                    metrics.admissions.inc()
                    metrics.evictions.inc()
            elif metrics is not None:
                metrics.rejections.inc()
        self._items_processed += count
        if metrics is not None:
            metrics.updates.inc()

    def update_batch(
        self,
        items: Iterable[Hashable] | np.ndarray,
        counts: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        """Process a batch of records ``(items[j], counts[j])`` in order.

        Leaves the tracker bit-for-bit as ``update(items[j], counts[j])``
        for each ``j`` in turn would: counters, ``items_processed``, heap
        order and priorities, and the totals of the ``topk_*`` counters
        and of the sketch's update and estimate counters
        (``countsketch_updates_total``, ``countsketch_estimates_total``),
        which are counted once per batch.  The heap stores the same
        objects the loop would (ndarray inputs go through ``tolist()``).
        The batch step caches the positions of the keys it applies, as
        the loop does, but counts no position-cache hits or misses.

        A batch of at least ``_BATCH_CROSSOVER`` records takes one NumPy
        pass: :meth:`CountSketch.update_batch_estimates` applies it and
        returns each record's estimate after its own update, which is
        all the heap needs, since the sketch never depends on the heap.
        Python then replays only the heap decisions, in stream order.
        Shorter batches run the per-item loop.

        Raises:
            ValueError: if any count is not a positive integer, or the
                lengths differ; nothing is applied.
            TypeError: if any count is a bool or not a number; nothing
                is applied.
            OverflowError: if any count does not fit an int64 counter;
                nothing is applied.
        """
        records = items.tolist() if isinstance(items, np.ndarray) else list(items)
        if counts is None:
            count_list = [1] * len(records)
        else:
            count_list = [
                count if type(count) is int else integral_count(count)
                for count in (counts.tolist() if isinstance(counts, np.ndarray)
                              else counts)
            ]
            if len(count_list) != len(records):
                raise ValueError("counts must match items in length")
            if count_list and min(count_list) < 1:
                raise ValueError(
                    "count must be a positive number of occurrences")
            if count_list and max(count_list) > _MAX_WEIGHT:
                raise OverflowError("count does not fit an int64 counter")
        if len(records) < _BATCH_CROSSOVER:
            step = self._step
            for item, count in zip(records, count_list, strict=True):
                step(item, count)
            return
        estimates = self._sketch.update_batch_estimates(
            items if isinstance(items, np.ndarray) else records,
            None if counts is None else np.asarray(count_list, dtype=np.int64),
        ).tolist()
        self._items_processed += sum(count_list)
        heap = self._heap
        add_to, update, push, pop_min, minimum = (
            heap.add_to, heap.update, heap.push, heap.pop_min, heap.min)
        exact = self._exact_heap_counts
        vacant = self._k - len(heap)
        increments = admissions = evictions = rejections = 0
        for item, count, estimate in zip(records, count_list, estimates, strict=True):
            if item in heap:
                if exact:
                    add_to(item, count)
                    increments += 1
                else:
                    update(item, estimate)
            elif vacant:
                push(item, estimate)
                vacant -= 1
                admissions += 1
            elif estimate > minimum()[1]:
                pop_min()
                push(item, estimate)
                admissions += 1
                evictions += 1
            else:
                rejections += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.updates.inc(len(records))
            metrics.exact_increments.inc(increments)
            metrics.admissions.inc(admissions)
            metrics.evictions.inc(evictions)
            metrics.rejections.inc(rejections)
        sketch_metrics = self._sketch._metrics
        if sketch_metrics is not None:
            # The loop reads an estimate for every record it does not
            # count exactly.
            sketch_metrics.estimates.inc(len(records) - increments)

    def top(self, k: int | None = None) -> list[tuple[Hashable, float]]:
        """Return up to ``k`` (item, tracked count) pairs, heaviest first.

        ``k`` defaults to the tracker's capacity; it may be smaller to read
        a prefix of the list.
        """
        if k is None:
            k = self._k
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self._heap.as_sorted_list()[:k]

    def __contains__(self, item: Hashable) -> bool:
        return item in self._heap

    def estimate(self, item: Hashable) -> float:
        """Best available count estimate for ``item``.

        Heap members return their tracked (exact-incremented) count; other
        items fall back to the sketch estimate.
        """
        if item in self._heap:
            return self._heap.priority(item)
        return self._sketch.estimate(item)

    # -- serialization -------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Serialize the tracker: sketch state plus the heap, exactly.

        The heap entries are recorded in internal array order (see
        :meth:`~repro.core.heap.IndexedMinHeap.entries`), so a restored
        tracker's :meth:`top` output is bit-for-bit identical — including
        tie-breaks — and further updates continue as if uninterrupted.
        """
        return {
            "k": self._k,
            "exact_heap_counts": self._exact_heap_counts,
            "items_processed": self._items_processed,
            "sketch": self._sketch.state_dict(),
            "heap": self._heap.entries(),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> TopKTracker:
        """Rebuild a tracker serialized by :meth:`state_dict`.

        The nested sketch is rebuilt as the class its state describes
        (polynomial coefficients: :class:`CountSketch`; none:
        :class:`~repro.core.vectorized.VectorizedCountSketch`).

        Raises:
            ValueError: if the heap holds more than ``k`` entries or the
                nested sketch state fails its own validation.
        """
        heap = IndexedMinHeap.from_entries(
            [(item, priority) for item, priority in state["heap"]]
        )
        if len(heap) > state["k"]:
            raise ValueError(
                f"heap holds {len(heap)} entries but k={state['k']}"
            )
        sketch_state = state["sketch"]
        sketch_type = (CountSketch if "bucket_coefficients" in sketch_state
                       else VectorizedCountSketch)
        tracker = cls(
            state["k"],
            sketch=sketch_type.from_state_dict(sketch_state),
            exact_heap_counts=state["exact_heap_counts"],
        )
        tracker._heap = heap
        tracker._items_processed = state["items_processed"]
        return tracker

    def counters_used(self) -> int:
        """Sketch counters plus one count per heap entry (paper: ``tb + k``)."""
        return self._sketch.counters_used() + len(self._heap)

    def items_stored(self) -> int:
        """Stream objects stored: the heap members only."""
        return len(self._heap)

    def __repr__(self) -> str:
        return (
            f"TopKTracker(k={self._k}, sketch={self._sketch!r}, "
            f"heap_size={len(self._heap)})"
        )
