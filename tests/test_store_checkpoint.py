"""Checkpoint/resume: killed ingestion resumes bit-for-bit.

:class:`CheckpointManager` is held to one acceptance bar: a run that is
interrupted and resumed must end in exactly the state an uninterrupted
run reaches — same counters, same top-k, same estimates.  Its chunked
:meth:`~CheckpointManager.extend` must write the same snapshots, at the
same record counts, as a per-record feed.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.core.windowed import JumpingWindowSketch
from repro.store import (
    CheckpointManager,
    CheckpointMismatchError,
    ShardCheckpointStore,
    StoreError,
    apply_update_batch,
    load_with_meta,
    save,
)
from repro.streams.io import DEFAULT_CHUNK_SIZE


def make_stream(n=400, seed=11):
    rng = random.Random(seed)
    return [f"item-{rng.randint(0, 40)}" for __ in range(n)]


class TestManagerValidation:
    def test_requires_a_trigger(self, tmp_path):
        with pytest.raises(ValueError, match="every_items"):
            CheckpointManager(CountSketch(3, 16), tmp_path / "c.rcs")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"every_items": 0},
            {"every_seconds": 0},
            {"every_seconds": -1.0},
            {"every_items": 5, "items_consumed": -1},
        ],
    )
    def test_rejects_bad_values(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            CheckpointManager(CountSketch(3, 16), tmp_path / "c.rcs", **kwargs)


class TestManagerTriggers:
    def test_every_items_cadence(self, tmp_path):
        path = tmp_path / "c.rcs"
        manager = CheckpointManager(
            CountSketch(3, 16), path, every_items=10
        )
        for item in make_stream(35):
            manager.update(item)
        # 35 updates with a checkpoint each 10 items: at 10, 20, 30.
        assert manager.checkpoints_written == 3
        assert manager.items_consumed == 35
        __, meta = load_with_meta(path)
        assert meta["items_consumed"] == 30

    def test_extend_always_flushes_at_the_end(self, tmp_path):
        path = tmp_path / "c.rcs"
        manager = CheckpointManager(
            CountSketch(3, 16), path, every_items=1000
        )
        manager.extend(make_stream(35))
        assert manager.checkpoints_written == 1
        __, meta = load_with_meta(path)
        assert meta["items_consumed"] == 35

    def test_every_seconds_cadence(self, tmp_path):
        # A vanishingly small period: every record boundary is "due".
        manager = CheckpointManager(
            CountSketch(3, 16), tmp_path / "c.rcs", every_seconds=1e-9
        )
        for item in make_stream(5):
            manager.update(item)
        assert manager.checkpoints_written == 5

    def test_flush_reports_bytes_written(self, tmp_path):
        path = tmp_path / "c.rcs"
        manager = CheckpointManager(
            CountSketch(3, 16), path, every_items=10
        )
        written = manager.flush()
        assert written == path.stat().st_size


class TestApplyUpdateBatch:
    """The service's batch path equals an item-at-a-time feed exactly."""

    RECORDS = [(f"item-{i % 9}", 1 + (i % 4)) for i in range(120)]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: CountSketch(3, 32, seed=7),
            lambda: VectorizedCountSketch(3, 32, seed=7),
            lambda: TopKTracker(4, depth=3, width=32, seed=7),
            lambda: JumpingWindowSketch(32, buckets=4, depth=3, width=32,
                                        seed=7),
        ],
        ids=["sketch", "vectorized", "topk", "window"],
    )
    def test_matches_scalar_updates(self, factory):
        batched, scalar = factory(), factory()
        items = [item for item, __ in self.RECORDS]
        counts = [count for __, count in self.RECORDS]
        apply_update_batch(batched, items, counts)
        for item, count in self.RECORDS:
            scalar.update(item, count)
        for item in dict.fromkeys(items):
            assert batched.estimate(item) == scalar.estimate(item)

    def test_empty_batch_is_a_no_op(self):
        sketch = VectorizedCountSketch(3, 32, seed=7)
        apply_update_batch(sketch, [], [])
        assert sketch.estimate("x") == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            apply_update_batch(CountSketch(3, 32), ["a", "b"], [1])
        with pytest.raises(ValueError, match="same length"):
            apply_update_batch(VectorizedCountSketch(3, 32), ["a"], [1, 2])


class TestManagerUpdateBatch:
    def test_counts_records_and_checkpoints_on_batch_boundaries(
        self, tmp_path
    ):
        path = tmp_path / "c.rcs"
        manager = CheckpointManager(
            CountSketch(3, 16), path, every_items=10
        )
        stream = make_stream(22)
        for start in range(0, len(stream), 4):
            chunk = stream[start:start + 4]
            manager.update_batch(chunk, [1] * len(chunk))
        assert manager.items_consumed == 22
        # The due-check runs at batch ends only, so snapshots land on
        # batch (= record) boundaries: at 12 and 22, never mid-batch.
        assert manager.checkpoints_written == 2
        __, meta = load_with_meta(path)
        assert meta["items_consumed"] == 22

    def test_batch_and_scalar_feeds_write_identical_snapshots(
        self, tmp_path
    ):
        stream = make_stream(60)
        scalar_path = tmp_path / "scalar.rcs"
        batch_path = tmp_path / "batch.rcs"
        scalar = CheckpointManager(
            CountSketch(3, 16, seed=2), scalar_path, every_items=1000
        )
        batched = CheckpointManager(
            CountSketch(3, 16, seed=2), batch_path, every_items=1000
        )
        for item in stream:
            scalar.update(item)
        batched.update_batch(stream, [1] * len(stream))
        scalar.flush()
        batched.flush()
        assert scalar_path.read_bytes() == batch_path.read_bytes()

    def test_rejects_mismatched_lengths_and_ignores_empty(self, tmp_path):
        manager = CheckpointManager(
            CountSketch(3, 16), tmp_path / "c.rcs", every_items=5
        )
        with pytest.raises(ValueError, match="same length"):
            manager.update_batch(["a"], [1, 2])
        manager.update_batch([], [])
        assert manager.items_consumed == 0
        assert manager.checkpoints_written == 0


class TestKilledAndResumed:
    def test_serial_resume_is_bit_for_bit(self, tmp_path):
        stream = make_stream(400)
        kill_at = 237
        path = tmp_path / "topk.rcs"

        # Uninterrupted reference.
        reference = TopKTracker(8, depth=3, width=64, seed=9)
        for item in stream:
            reference.update(item)

        # Interrupted run: the process "dies" mid-stream; only the last
        # on-boundary checkpoint survives.
        manager = CheckpointManager(
            TopKTracker(8, depth=3, width=64, seed=9),
            path,
            every_items=50,
        )
        for item in stream[:kill_at]:
            manager.update(item)

        resumed = CheckpointManager.resume(path, every_items=50)
        assert resumed.items_consumed == 200  # last multiple of 50
        for item in itertools.islice(stream, resumed.items_consumed, None):
            resumed.update(item)
        resumed.flush()

        tracker = resumed.summary
        assert isinstance(tracker, TopKTracker)
        assert tracker.top() == reference.top()
        assert tracker.sketch == reference.sketch
        __, meta = load_with_meta(path)
        assert meta["items_consumed"] == len(stream)

    def test_resume_refuses_plain_snapshot(self, tmp_path):
        path = tmp_path / "plain.rcs"
        save(CountSketch(3, 16), path)  # no items_consumed meta
        with pytest.raises(StoreError, match="not a checkpoint"):
            CheckpointManager.resume(path, every_items=10)


class TestShardStore:
    def test_manifest_pins_parameters(self, tmp_path):
        store = ShardCheckpointStore(tmp_path / "ckpt")
        params = {"depth": 3, "width": 64, "seed": 0, "chunk_size": 100}
        store.ensure_manifest(params)
        store.ensure_manifest(params)  # same params: fine
        with pytest.raises(CheckpointMismatchError, match="width"):
            store.ensure_manifest({**params, "width": 128})

    def test_fresh_directory_is_created_without_a_manifest(self, tmp_path):
        store = ShardCheckpointStore(tmp_path / "a" / "b")
        assert (tmp_path / "a" / "b").is_dir()
        assert store.read_manifest() is None

    def test_pinned_manifest_is_verified_by_a_new_store(self, tmp_path):
        params = {"n_shards": 2, "tables": [{"name": "q", "width": 64}]}
        ShardCheckpointStore(tmp_path).ensure_manifest(params)
        reopened = ShardCheckpointStore(tmp_path)
        assert reopened.read_manifest() == params
        reopened.ensure_manifest(params)
        with pytest.raises(CheckpointMismatchError, match="n_shards"):
            reopened.ensure_manifest({**params, "n_shards": 3})

    def test_mismatch_names_every_differing_key(self, tmp_path):
        store = ShardCheckpointStore(tmp_path)
        store.ensure_manifest({"depth": 3, "width": 64, "seed": 0})
        with pytest.raises(CheckpointMismatchError) as caught:
            store.ensure_manifest({"depth": 3, "width": 32, "shards": 2})
        message = str(caught.value)
        assert "seed: manifest records 0, this run wants None" in message
        assert "shards: manifest records None, this run wants 2" in message
        assert "width: manifest records 64, this run wants 32" in message
        assert "depth" not in message
        # A refused run leaves the pinned manifest as it was.
        assert store.read_manifest() == {"depth": 3, "width": 64, "seed": 0}

    @pytest.mark.parametrize(
        "text", ["{not json", "[1, 2]"], ids=["invalid-json", "not-an-object"]
    )
    def test_unreadable_manifest_is_a_store_error(self, tmp_path, text):
        (tmp_path / ShardCheckpointStore.MANIFEST_NAME).write_text(text)
        store = ShardCheckpointStore(tmp_path)
        with pytest.raises(StoreError, match="manifest|JSON object"):
            store.read_manifest()
        with pytest.raises(StoreError):
            store.ensure_manifest({"depth": 3})


class RecordingManager(CheckpointManager):
    """Records ``(items_consumed, snapshot bytes)`` at every flush."""

    def __init__(self, *args, **kwargs):
        self.history = []
        super().__init__(*args, **kwargs)

    def flush(self) -> int:
        written = super().flush()
        self.history.append((self.items_consumed, self.path.read_bytes()))
        return written


class TestChunkedExtend:
    """``extend`` applies chunks, yet checkpoints as a per-record feed."""

    EVERY = 1_500  # neither divides nor is divided by the chunk size
    LENGTH = 3 * DEFAULT_CHUNK_SIZE + 1_001  # a multiple of neither

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TopKTracker(5, depth=3, width=64, seed=4),
            lambda: CountSketch(3, 64, seed=4),
            lambda: SparseCountSketch(3, 64, seed=4),
        ],
        ids=["topk", "sketch", "sparse"],
    )
    def test_same_checkpoints_as_per_record_feed(self, tmp_path, factory):
        assert DEFAULT_CHUNK_SIZE % self.EVERY
        assert self.EVERY % DEFAULT_CHUNK_SIZE
        assert self.LENGTH % DEFAULT_CHUNK_SIZE
        assert self.LENGTH % self.EVERY
        stream = make_stream(self.LENGTH, seed=6)
        chunked = RecordingManager(
            factory(), tmp_path / "chunked.rcs", every_items=self.EVERY
        )
        chunked.extend(stream)
        per_record = RecordingManager(
            factory(), tmp_path / "per-record.rcs", every_items=self.EVERY
        )
        for item in stream:
            per_record.update(item)
        per_record.flush()
        assert len(chunked.history) == self.LENGTH // self.EVERY + 1
        assert chunked.history == per_record.history

    def test_resumed_extend_keeps_the_boundaries(self, tmp_path):
        stream = make_stream(5_000, seed=2)
        path = tmp_path / "c.rcs"
        first = CheckpointManager(
            TopKTracker(5, depth=3, width=64, seed=4), path, every_items=700
        )
        first.extend(stream[:1_234])
        resumed = RecordingManager.resume(path, every_items=700)
        resumed.extend(stream[1_234:])
        assert [n for n, __ in resumed.history] == [
            1_934, 2_634, 3_334, 4_034, 4_734, 5_000,
        ]
        reference = TopKTracker(5, depth=3, width=64, seed=4)
        for item in stream:
            reference.update(item)
        assert resumed.summary.top() == reference.top()
        assert resumed.summary.sketch == reference.sketch

    @pytest.mark.parametrize(
        ("every", "length"),
        [
            (1, 300),
            (DEFAULT_CHUNK_SIZE, 2 * DEFAULT_CHUNK_SIZE + 5),
            (2 * DEFAULT_CHUNK_SIZE, 5 * DEFAULT_CHUNK_SIZE + 3),
            (DEFAULT_CHUNK_SIZE + 7, DEFAULT_CHUNK_SIZE + 6),
            (10, 0),
        ],
        ids=["every-record", "chunk-size", "twice-chunk-size",
             "beyond-stream", "empty-stream"],
    )
    def test_cadence_edges_match_per_record_feed(
        self, tmp_path, every, length
    ):
        stream = make_stream(length, seed=8)
        chunked = RecordingManager(
            CountSketch(3, 32, seed=1), tmp_path / "chunked.rcs",
            every_items=every,
        )
        chunked.extend(stream)
        per_record = RecordingManager(
            CountSketch(3, 32, seed=1), tmp_path / "per-record.rcs",
            every_items=every,
        )
        for item in stream:
            per_record.update(item)
        per_record.flush()
        assert len(chunked.history) == length // every + 1
        assert chunked.history == per_record.history

    def test_every_seconds_is_checked_once_per_chunk(self, tmp_path):
        manager = CheckpointManager(
            CountSketch(3, 16), tmp_path / "c.rcs", every_seconds=1e-9
        )
        manager.extend(make_stream(2 * DEFAULT_CHUNK_SIZE + 1))
        # Three chunks, each due, plus the closing flush.
        assert manager.checkpoints_written == 4
