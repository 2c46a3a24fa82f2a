"""Checkpoint/resume for long-running ingestion.

Two pieces:

* :class:`CheckpointManager` wraps any snapshotable summary during
  ingestion and persists it every ``N`` items and/or ``T`` seconds.  The
  snapshot records how many stream records the summary has consumed, so
  a killed process can :meth:`~CheckpointManager.resume`, skip the
  consumed prefix of the (replayable) stream, and continue — the final
  state is bit-for-bit identical to an uninterrupted run, because
  snapshots are exact and checkpoints land on record boundaries.

* :class:`ShardCheckpointStore` pins a directory's run parameters in a
  manifest (the cluster fleet's checkpoint root uses it), refusing a
  resume whose parameters differ.

Every file write is atomic (:func:`repro.store.format.atomic_write_bytes`),
so a crash mid-checkpoint can only lose the newest checkpoint, never
corrupt an older one.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.observability.registry import MetricsRegistry, get_registry
from repro.store.codec import load_with_meta, save
from repro.store.format import StoreError, atomic_write_bytes
from repro.streams.io import DEFAULT_CHUNK_SIZE

if TYPE_CHECKING:
    from collections.abc import Hashable, Iterable, Sequence

    from repro.store.codec import Snapshotable

__all__ = [
    "CheckpointManager",
    "CheckpointMismatchError",
    "ShardCheckpointStore",
    "apply_update_batch",
]


def apply_update_batch(
    summary: Snapshotable,
    items: Sequence[Hashable],
    counts: Sequence[int] | None = None,
) -> None:
    """Apply parallel record lists ``(items[i], counts[i])`` in stream order.

    ``counts=None`` means one occurrence per item.

    Summaries exposing ``update_batch`` absorb the whole batch in one
    call: every linear Count Sketch, and the top-k tracker, whose batch
    step replays its heap decisions in stream order.  Everything else
    (the sparse sketch, and the jumping window, whose rotation is
    order-sensitive) gets an in-order scalar loop.  Either way the result is exactly the state an
    item-at-a-time feed would have produced, and a batch with a
    non-integral count is refused by the summary.

    A ``uint64`` ndarray of pre-encoded keys (the binary wire path) is
    handed to ``update_batch`` as-is — boxing it into a list would cost
    more than the wire decode it just avoided.
    """
    if counts is not None and len(items) != len(counts):
        raise ValueError("items and counts must have the same length")
    batch = getattr(summary, "update_batch", None)
    if batch is not None:
        if len(items):
            batch(items, counts)
        return
    if isinstance(items, np.ndarray):
        # Scalar summaries get Python ints: a NumPy scalar hashes the
        # same but would taint running totals in snapshot headers.
        items = items.tolist()
    if counts is None:
        counts = [1] * len(items)
    elif isinstance(counts, np.ndarray):
        counts = counts.tolist()
    for item, count in zip(items, counts, strict=True):
        summary.update(item, count)


class CheckpointMismatchError(StoreError):
    """A checkpoint directory's manifest disagrees with the requested run."""


class _CheckpointMetrics:
    """Metric handles captured once per manager when collection is on."""

    __slots__ = ("checkpoints", "seconds")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.checkpoints = registry.counter("store_checkpoints_total")
        self.seconds = registry.histogram("store_checkpoint_seconds")


class CheckpointManager:
    """Feed a summary while periodically snapshotting it to disk.

    Args:
        summary: any snapshotable summary (it keeps working on the
            caller's instance; the manager only adds persistence).
        path: snapshot destination (conventionally ``*.rcs``).
        every_items: checkpoint after this many stream records (update
            calls), if set.
        every_seconds: checkpoint when this much wall-clock time has
            passed since the last one, if set.  Checked on record
            boundaries, so a checkpoint never splits an update.
        items_consumed: stream records already reflected in ``summary``
            (used by :meth:`resume`; new runs leave it at 0).

    At least one of ``every_items`` / ``every_seconds`` is required —
    a manager that never checkpoints is a bug, not a configuration.
    """

    def __init__(
        self,
        summary: Snapshotable,
        path: str | Path,
        *,
        every_items: int | None = None,
        every_seconds: float | None = None,
        items_consumed: int = 0,
    ) -> None:
        if every_items is None and every_seconds is None:
            raise ValueError(
                "set every_items and/or every_seconds; a manager that "
                "never checkpoints would provide no durability"
            )
        if every_items is not None and every_items < 1:
            raise ValueError("every_items must be at least 1")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError("every_seconds must be positive")
        if items_consumed < 0:
            raise ValueError("items_consumed cannot be negative")
        self._summary = summary
        self._path = Path(path)
        self._every_items = every_items
        self._every_seconds = every_seconds
        self._items_consumed = items_consumed
        self._items_at_checkpoint = items_consumed
        self._last_checkpoint_time = time.monotonic()
        self._checkpoints_written = 0
        registry = get_registry()
        self._metrics = (
            _CheckpointMetrics(registry) if registry.enabled else None
        )

    @property
    def summary(self) -> Snapshotable:
        """The wrapped summary (shared with the caller, not a copy)."""
        return self._summary

    @property
    def path(self) -> Path:
        """The snapshot destination."""
        return self._path

    @property
    def items_consumed(self) -> int:
        """Stream records reflected in the summary so far."""
        return self._items_consumed

    @property
    def checkpoints_written(self) -> int:
        """Snapshots persisted by this manager (including :meth:`flush`)."""
        return self._checkpoints_written

    def update(self, item: Hashable, count: int = 1) -> None:
        """Apply one stream record, then checkpoint if a trigger fired."""
        self._summary.update(item, count)
        self._items_consumed += 1
        if self._due():
            self.flush()

    def update_batch(
        self,
        items: Sequence[Hashable],
        counts: Sequence[int] | None = None,
    ) -> None:
        """Apply a micro-batch of records, then checkpoint if due.

        The batch is absorbed through :func:`apply_update_batch` (one
        ``update_batch`` call for sketches and top-k trackers, an
        in-order loop otherwise) and counts as ``len(items)`` stream
        records; ``counts=None`` means one occurrence each.  The
        due-check runs once at the batch end, so checkpoints always land
        on batch boundaries — which are record boundaries — keeping the
        resume contract exact.
        """
        if counts is not None and len(items) != len(counts):
            raise ValueError("items and counts must have the same length")
        if len(items) == 0:  # `not items` is ambiguous for ndarrays
            return
        apply_update_batch(self._summary, items, counts)
        self._items_consumed += len(items)
        if self._due():
            self.flush()

    def extend(self, stream: Iterable[Hashable]) -> None:
        """Apply every record of ``stream`` with checkpointing, then a
        final :meth:`flush` so the snapshot always covers the full
        stream.

        Records are applied by :meth:`update_batch` in chunks of at most
        :data:`~repro.streams.io.DEFAULT_CHUNK_SIZE`.  A chunk ends at
        every ``every_items`` boundary, so snapshots land on the same
        :attr:`items_consumed` counts, with the same bytes, as
        :meth:`update` per record would write; ``every_seconds`` is
        checked once per chunk.
        """
        records = iter(stream)
        while True:
            size = DEFAULT_CHUNK_SIZE
            if self._every_items is not None:
                size = min(size, self._items_at_checkpoint
                           + self._every_items - self._items_consumed)
            chunk = list(itertools.islice(records, size))
            if not chunk:
                break
            self.update_batch(chunk)
        self.flush()

    def _due(self) -> bool:
        if (
            self._every_items is not None
            and self._items_consumed - self._items_at_checkpoint
            >= self._every_items
        ):
            return True
        return (
            self._every_seconds is not None
            and time.monotonic() - self._last_checkpoint_time
            >= self._every_seconds
        )

    def flush(self) -> int:
        """Snapshot now (atomic); returns bytes written."""
        start = time.perf_counter()
        written = save(
            self._summary,
            self._path,
            meta={"items_consumed": self._items_consumed},
        )
        if self._metrics is not None:
            self._metrics.checkpoints.inc()
            self._metrics.seconds.observe(time.perf_counter() - start)
        self._items_at_checkpoint = self._items_consumed
        self._last_checkpoint_time = time.monotonic()
        self._checkpoints_written += 1
        return written

    @classmethod
    def resume(
        cls,
        path: str | Path,
        *,
        every_items: int | None = None,
        every_seconds: float | None = None,
    ) -> CheckpointManager:
        """Rebuild a manager from its last checkpoint.

        The returned manager's :attr:`items_consumed` tells the caller
        how many records of the replayed stream to skip (e.g. with
        ``itertools.islice``) before feeding the rest.
        """
        summary, meta = load_with_meta(path)
        consumed = meta.get("items_consumed")
        if not isinstance(consumed, int) or consumed < 0:
            raise StoreError(
                f"{path} is not a checkpoint: its snapshot meta lacks a "
                "valid items_consumed count"
            )
        return cls(
            summary,
            path,
            every_items=every_items,
            every_seconds=every_seconds,
            items_consumed=consumed,
        )


class ShardCheckpointStore:
    """A checkpoint directory whose ``manifest.json`` pins run parameters.

    The manifest records everything that must not change between the
    original run and a resume — for the cluster fleet, the shard count
    and every table spec — because shard snapshots only combine exactly
    when the hash functions and the key routing are identical.
    """

    MANIFEST_NAME = "manifest.json"

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    def _manifest_path(self) -> Path:
        return self._directory / self.MANIFEST_NAME

    def read_manifest(self) -> dict[str, Any] | None:
        """The stored run parameters, or ``None`` for a fresh directory."""
        path = self._manifest_path()
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise StoreError(
                f"{path} is not a valid checkpoint manifest: {error}"
            ) from error
        if not isinstance(manifest, dict):
            raise StoreError(f"{path} must contain a JSON object")
        return manifest

    def ensure_manifest(self, params: dict[str, Any]) -> None:
        """Pin ``params``, or verify them against an existing manifest.

        Raises:
            CheckpointMismatchError: when the directory was written by a
                run with different parameters — resuming would silently
                merge incompatible shards, so it is refused loudly.
        """
        existing = self.read_manifest()
        if existing is None:
            atomic_write_bytes(
                self._manifest_path(),
                json.dumps(params, sort_keys=True, indent=2).encode("utf-8"),
            )
            return
        if existing != params:
            differing = sorted(
                key
                for key in set(existing) | set(params)
                if existing.get(key) != params.get(key)
            )
            detail = "; ".join(
                f"{key}: manifest records {existing.get(key)!r}, "
                f"this run wants {params.get(key)!r}"
                for key in differing
            )
            raise CheckpointMismatchError(
                f"checkpoint directory {self._directory} was written with "
                f"different parameters ({detail}); resume with the "
                "original settings or use a fresh directory"
            )
