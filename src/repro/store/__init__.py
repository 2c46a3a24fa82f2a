"""Durable snapshots, checkpoint/resume, and the temporal sketch archive.

The persistence layer for every summary type in the repo:

* :func:`save` / :func:`load` — exact, CRC-checked, atomically-written
  binary snapshots (``.rcs`` files) of sketches, trackers, and windows.
* :class:`CheckpointManager` — periodic checkpointing during ingestion,
  with bit-for-bit resume after a crash; :class:`ShardCheckpointStore`
  pins a checkpoint directory's run parameters in a manifest.
* :class:`SketchArchive` — an on-disk sequence of epoch sketches sharing
  one hash family, supporting historical max-change between any two
  epochs and exact dyadic-interval range merges (§3.2 linearity).

See ``docs/persistence.md`` for the format specification and worked
examples.
"""

from repro.store.archive import ArchiveDiffEntry, SketchArchive
from repro.store.checkpoint import (
    CheckpointManager,
    CheckpointMismatchError,
    ShardCheckpointStore,
    apply_update_batch,
)
from repro.store.codec import (
    Snapshotable,
    dumps,
    inspect,
    load,
    load_with_meta,
    loads,
    save,
)
from repro.store.format import (
    FORMAT_VERSION,
    MAGIC,
    SNAPSHOT_SUFFIX,
    SnapshotFormatError,
    StoreError,
    UnsupportedVersionError,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SNAPSHOT_SUFFIX",
    "ArchiveDiffEntry",
    "CheckpointManager",
    "CheckpointMismatchError",
    "ShardCheckpointStore",
    "SketchArchive",
    "SnapshotFormatError",
    "Snapshotable",
    "StoreError",
    "UnsupportedVersionError",
    "apply_update_batch",
    "dumps",
    "inspect",
    "load",
    "load_with_meta",
    "loads",
    "save",
]
