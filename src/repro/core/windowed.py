"""Jumping-window frequent items via sketch subtraction.

An extension the paper's linearity makes nearly free: to track frequencies
over "the last W items" instead of the whole stream, keep a ring of ``B``
sub-sketches, each covering ``W/B`` consecutive items, all built with the
same hash functions.  The window estimate is the estimate under the *sum*
of the live sub-sketches; when the newest bucket fills, the oldest
sub-sketch is subtracted out and recycled.  This is the classic
jumping-window construction — the covered span never exceeds ``W`` and
stays above ``W − 2·W/B`` (staleness bounded by two buckets), at roughly
``B×`` the space of a single sketch.

The paper's search-engine motivation ("the most frequent queries handled
in some period of time", §1) is literally a windowed query; this module
closes that loop.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

import numpy as np

from repro.core.countsketch import CountSketch
from repro.observability.registry import get_registry


class JumpingWindowSketch:
    """Count Sketch estimates over a jumping window of the last ``W`` items.

    Args:
        window: the window size ``W`` in items.
        buckets: number of sub-sketches ``B`` (granularity; the effective
            window wobbles by one bucket, ``W/B`` items).
        depth: rows per sub-sketch.
        width: counters per row per sub-sketch.
        seed: hash seed shared by every sub-sketch (required for the
            subtraction to be meaningful).
    """

    def __init__(
        self,
        window: int,
        buckets: int = 8,
        depth: int = 5,
        width: int = 256,
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        if not 1 <= buckets <= window:
            raise ValueError("need 1 <= buckets <= window")
        self._window = window
        self._bucket_capacity = max(1, window // buckets)
        self._num_buckets = buckets
        self._seed = seed
        self._depth = depth
        self._width = width
        # The aggregate sketch of every live bucket, maintained
        # incrementally; per-bucket sketches allow exact expiry.
        self._aggregate = CountSketch(depth, width, seed=seed)
        self._ring: list[CountSketch] = [CountSketch(depth, width, seed=seed)]
        self._current_fill = 0
        self._items_seen = 0
        registry = get_registry()
        self._m_rotations = registry.counter("window_rotations_total")
        self._m_expired = registry.counter("window_buckets_expired_total")

    @property
    def window(self) -> int:
        """The nominal window size ``W``."""
        return self._window

    @property
    def items_seen(self) -> int:
        """Total items ever observed."""
        return self._items_seen

    def covered(self) -> int:
        """Number of trailing items the current estimates cover.

        Never exceeds ``W``; once the stream is long enough it stays in
        ``(W − 2·W/B, W]`` (the lower edge is approached right after a
        bucket rotation, the upper just before one).
        """
        return self._aggregate.total_weight

    def update(self, item: Hashable, count: int = 1) -> None:
        """Observe ``count`` occurrences of ``item`` (newest position).

        The weight is applied in per-bucket batches — each batch fills the
        newest bucket up to its capacity with a single weighted sketch
        update (linearity, §3.2), then rotates exactly where an
        item-at-a-time loop would.  Cost is ``O(count / (W/B))`` sketch
        updates instead of ``O(count)``, with rotation, expiry, and
        :meth:`covered` semantics unchanged.
        """
        if count < 1:
            raise ValueError("count must be positive")
        remaining = count
        while remaining > 0:
            batch = min(remaining, self._bucket_capacity - self._current_fill)
            self._ring[-1].update(item, batch)
            self._aggregate.update(item, batch)
            self._items_seen += batch
            self._current_fill += batch
            remaining -= batch
            if self._current_fill >= self._bucket_capacity:
                self._rotate()

    def _rotate(self) -> None:
        """Seal the newest bucket; expire old ones so the next fill cannot
        push the covered span past ``W``."""
        self._ring.append(CountSketch(self._depth, self._width,
                                      seed=self._seed))
        self._current_fill = 0
        self._m_rotations.inc()
        # Invariant: after rotation, covered ≤ W − bucket_capacity, so the
        # newly filling bucket keeps covered ≤ W at every instant.
        while (
            self._aggregate.total_weight
            > self._window - self._bucket_capacity
            and len(self._ring) > 1
        ):
            expired = self._ring.pop(0)
            self._m_expired.inc()
            if expired.total_weight == 0:
                continue
            # Linearity (§3.2): subtraction removes the bucket exactly.
            self._aggregate.merge(-expired)

    def estimate(self, item: Hashable) -> float:
        """Estimated occurrences of ``item`` within the covered window."""
        return self._aggregate.estimate(item)

    # -- serialization -------------------------------------------------------

    def _sub_sketch_state(self, sketch: CountSketch) -> dict[str, Any]:
        """Counters + weight of one sub-sketch (hashes derive from seed)."""
        return {
            "counters": sketch.counters.copy(),
            "total_weight": sketch.total_weight,
        }

    def _restore_sub_sketch(self, state: dict[str, Any]) -> CountSketch:
        sketch = CountSketch(self._depth, self._width, seed=self._seed)
        sketch._load_counts(state)
        return sketch

    def state_dict(self) -> dict[str, Any]:
        """Serialize the window: ring buckets, aggregate, and fill state.

        Every sub-sketch is built from the shared ``seed``, so only the
        counter blocks and weights travel; a restored window continues
        rotating and expiring exactly where the original would.
        """
        return {
            "window": self._window,
            "buckets": self._num_buckets,
            "depth": self._depth,
            "width": self._width,
            "seed": self._seed,
            "current_fill": self._current_fill,
            "items_seen": self._items_seen,
            "aggregate": self._sub_sketch_state(self._aggregate),
            "ring": [self._sub_sketch_state(s) for s in self._ring],
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> JumpingWindowSketch:
        """Rebuild a window serialized by :meth:`state_dict`.

        Raises:
            ValueError: if the ring is empty, the aggregate is not the
                sum of the ring buckets, or a counter block fails its own
                validation.
        """
        window = cls(
            state["window"],
            buckets=state["buckets"],
            depth=state["depth"],
            width=state["width"],
            seed=state["seed"],
        )
        ring_states = state["ring"]
        if not ring_states:
            raise ValueError("a jumping window needs at least one ring bucket")
        window._ring = [window._restore_sub_sketch(s) for s in ring_states]
        window._aggregate = window._restore_sub_sketch(state["aggregate"])
        window._current_fill = state["current_fill"]
        window._items_seen = state["items_seen"]
        total = np.zeros(
            (state["depth"], state["width"]), dtype=np.int64
        )
        for bucket in window._ring:
            total += bucket.counters
        if not np.array_equal(total, window._aggregate.counters):
            raise ValueError(
                "aggregate counters are not the sum of the ring buckets: "
                "the snapshot is internally inconsistent"
            )
        return window

    def counters_used(self) -> int:
        """Counters across the aggregate and all live ring buckets."""
        return (len(self._ring) + 1) * self._depth * self._width

    def items_stored(self) -> int:
        """No stream objects are stored."""
        return 0

    def __repr__(self) -> str:
        return (
            f"JumpingWindowSketch(window={self._window}, "
            f"buckets={self._num_buckets}, live={len(self._ring)}, "
            f"covered={self.covered()})"
        )
