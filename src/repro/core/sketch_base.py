"""Shared interfaces for stream summaries.

Every algorithm in this library — the Count Sketch tracker and all the
baselines — consumes a stream one item at a time and answers questions about
item frequencies afterwards.  Two protocols capture the two capability
levels:

* :class:`FrequencyEstimator` — can estimate the count of *any* item
  (sketches, exact counters).
* :class:`StreamSummary` — can report a list of (item, estimated count)
  pairs for the heaviest items (every top-k style algorithm).

The experiment harness is written against these protocols, which is what
lets one harness sweep Count Sketch and every baseline uniformly.

Space accounting is part of the interface: the paper compares algorithms by
the number of *counters* and *stored objects* they hold (see §5), so every
summary reports both, in those units, rather than Python object sizes.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class FrequencyEstimator(Protocol):
    """A summary that can estimate the frequency of any queried item."""

    def update(self, item: Hashable, count: int = 1) -> None:
        """Record ``count`` additional occurrences of ``item``."""
        ...

    def estimate(self, item: Hashable) -> float:
        """Return the estimated number of occurrences of ``item``."""
        ...


@runtime_checkable
class StreamSummary(Protocol):
    """A summary that can report the heaviest items it has tracked."""

    def update(self, item: Hashable, count: int = 1) -> None:
        """Record ``count`` additional occurrences of ``item``."""
        ...

    def top(self, k: int) -> list[tuple[Hashable, float]]:
        """Return up to ``k`` (item, estimated count) pairs, heaviest first."""
        ...

    def counters_used(self) -> int:
        """Number of numeric counters the summary currently holds."""
        ...

    def items_stored(self) -> int:
        """Number of stream objects (keys) the summary currently stores."""
        ...


def coerce_counter_array(
    counters: object, depth: int, width: int
) -> np.ndarray:
    """Validate and convert a serialized counter block to int64.

    Accepts the ``np.ndarray`` a modern ``state_dict`` carries as well as
    the nested-list form older serializations used.  Anything that is not
    exactly-representable integer data is rejected: a float array that
    slipped into a state dict would otherwise be truncated silently here
    and break exact round-trip/merge equality downstream.

    Raises:
        ValueError: if the array is non-integral (float/complex/object
            data, or integral-typed values that do not fit int64) or its
            shape is not ``(depth, width)``.
    """
    array = np.asarray(counters)
    if array.dtype.kind not in "iu":
        candidate = np.asarray(counters, dtype=np.float64)
        if not np.all(np.isfinite(candidate)) or not np.array_equal(
            candidate, np.trunc(candidate)
        ):
            raise ValueError(
                "counter array must be integral: the int64 counter "
                "invariant rejects float/non-numeric counter data"
            )
        array = candidate
    coerced = array.astype(np.int64, order="C", casting="unsafe")
    if not np.array_equal(coerced.astype(array.dtype), array):
        raise ValueError("counter values do not fit in int64")
    if coerced.shape != (depth, width):
        raise ValueError(
            f"counter array shape {coerced.shape} does not match "
            f"(depth, width) = ({depth}, {width})"
        )
    return coerced


def consume(summary: FrequencyEstimator | StreamSummary,
            stream: Iterable[Hashable]) -> None:
    """Feed every item of ``stream`` into ``summary`` in order.

    A convenience used throughout the examples, tests, and experiments;
    algorithms that need to see items one at a time (heap-based trackers)
    and algorithms that could batch (pure sketches) both accept this path.
    """
    update = summary.update
    for item in stream:
        update(item)
