"""Tests for repro.parallel — sharded ingestion on §3.2 linearity.

The load-bearing property: a stream split into arbitrary shards, sketched
shard by shard with shared ``(depth, width, seed)``, and merged, is
*exactly* equal — counters, ``total_weight``, ``==`` — to the single-pass
sketch.  Every backend and both executors are held to it.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.parallel import (
    BACKENDS,
    iter_chunks,
    iter_file_chunks,
    parallel_sketch,
    parallel_topk,
    resolve_executor,
)
from repro.parallel import engine as engine_module
from repro.streams.io import write_stream_text
from repro.streams.zipf import ZipfStreamGenerator

ITEMS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(["alpha", "beta", "gamma", "delta"]),
)
STREAMS = st.lists(ITEMS, max_size=120)


def zipf_stream(n=20_000, m=1_000, seed=7):
    return list(ZipfStreamGenerator(m=m, z=1.0, seed=seed).generate(n))


class TestIterChunks:
    def test_chunk_sizes(self):
        chunks = list(iter_chunks(range(10), 4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_exact_multiple(self):
        chunks = list(iter_chunks(range(8), 4))
        assert [len(c) for c in chunks] == [4, 4]

    def test_empty(self):
        assert list(iter_chunks([], 4)) == []

    def test_lazy_over_generators(self):
        def gen():
            yield from range(6)

        chunks = iter_chunks(gen(), 2)
        assert next(chunks) == [0, 1]
        assert next(chunks) == [2, 3]

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_chunks(range(5), 0))

    def test_file_chunks(self, tmp_path):
        path = tmp_path / "stream.txt"
        write_stream_text(path, [1, 2, 3, 4, 5])
        chunks = list(iter_file_chunks(path, 2, as_int=True))
        assert chunks == [[1, 2], [3, 4], [5]]


class TestExecutorResolution:
    def test_one_worker_is_serial(self):
        assert resolve_executor(1) == "serial"

    def test_many_workers_prefer_fork(self):
        import multiprocessing

        expected = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "serial"
        )
        assert resolve_executor(4) == expected

    def test_forkless_platform_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(
            engine_module.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        assert resolve_executor(4) == "serial"
        # And the engine still produces the exact sketch through the
        # serial fallback.
        stream = zipf_stream(n=2_000, m=200)
        sketch, summary = parallel_sketch(
            stream, 3, 64, seed=1, n_workers=4, chunk_size=256
        )
        assert summary.executor == "serial"
        serial = CountSketch(3, 64, seed=1)
        serial.extend(stream)
        assert sketch == serial

    def test_vectorized_backend_never_forks(self):
        # A vectorized shard is one NumPy pass, cheaper than a fork
        # round trip, so the backend runs serially whatever n_workers is.
        stream = zipf_stream(n=4_000, m=300)
        sketch, summary = parallel_sketch(
            stream, 3, 64, seed=2, backend="vectorized", n_workers=2,
            chunk_size=512,
        )
        assert summary.executor == "serial"
        assert summary.n_workers == 2
        serial = VectorizedCountSketch(3, 64, seed=2)
        serial.extend(stream)
        assert np.array_equal(sketch.counters, serial.counters)
        assert sketch.total_weight == serial.total_weight == len(stream)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            parallel_sketch([1, 2], 3, 64, n_workers=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            parallel_sketch([1, 2], 3, 64, backend="gpu")


class TestExactMerge:
    """Bit-for-bit equality with the single-process sketch."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_matches_single_pass(self, backend, n_workers):
        stream = zipf_stream(n=10_000, m=500)
        sketch, summary = parallel_sketch(
            stream, 5, 128, seed=11, backend=backend,
            n_workers=n_workers, chunk_size=1024,
        )
        if backend == "vectorized":
            serial = VectorizedCountSketch(5, 128, seed=11)
        elif backend == "sparse":
            serial = SparseCountSketch(5, 128, seed=11)
        else:
            serial = CountSketch(5, 128, seed=11)
        serial.extend(stream)
        assert sketch == serial
        assert sketch.total_weight == serial.total_weight
        if backend == "sparse":
            assert sketch.to_dense() == serial.to_dense()
        else:
            assert np.array_equal(sketch.counters, serial.counters)
        assert summary.total_items == len(stream)
        assert summary.n_shards == 10

    def test_sparse_merge_agrees_with_dense(self):
        stream = zipf_stream(n=5_000, m=300)
        sparse, __ = parallel_sketch(
            stream, 3, 4096, seed=2, backend="sparse",
            n_workers=2, chunk_size=512,
        )
        dense = CountSketch(3, 4096, seed=2)
        dense.extend(stream)
        assert sparse.to_dense() == dense

    def test_mixed_item_types(self):
        stream = ([("flow", 1, 2)] * 50 + ["query"] * 30 + [42] * 20
                  + [3.5] * 10) * 5
        sketch, __ = parallel_sketch(
            stream, 3, 64, seed=4, n_workers=2, chunk_size=64
        )
        serial = CountSketch(3, 64, seed=4)
        serial.extend(stream)
        assert sketch == serial

    def test_empty_stream(self):
        sketch, summary = parallel_sketch([], 3, 64, seed=0, n_workers=4)
        assert sketch == CountSketch(3, 64, seed=0)
        assert sketch.total_weight == 0
        assert summary.n_shards == 0
        assert summary.total_items == 0


class TestShardSplitProperty:
    """Satellite: arbitrary shard splits merge to the single-pass sketch."""

    @settings(max_examples=25, deadline=None)
    @given(STREAMS, st.lists(st.integers(min_value=1, max_value=30),
                             max_size=6))
    def test_merge_and_add_equal_single_pass(self, items, cut_sizes):
        # Split the stream at arbitrary points into shards.
        shards, rest = [], list(items)
        for size in cut_sizes:
            shards.append(rest[:size])
            rest = rest[size:]
        shards.append(rest)

        whole = CountSketch(3, 32, seed=13)
        whole.extend(items)

        merged = CountSketch(3, 32, seed=13)
        added = CountSketch(3, 32, seed=13)
        for shard in shards:
            piece = CountSketch(3, 32, seed=13)
            piece.extend(shard)
            merged.merge(piece)
            added = added + piece
        assert merged == whole
        assert merged.total_weight == whole.total_weight
        assert added == whole
        assert added.total_weight == whole.total_weight

    @settings(max_examples=25, deadline=None)
    @given(STREAMS, st.lists(st.integers(min_value=1, max_value=30),
                             max_size=6))
    def test_sparse_and_vectorized_backends(self, items, cut_sizes):
        shards, rest = [], list(items)
        for size in cut_sizes:
            shards.append(rest[:size])
            rest = rest[size:]
        shards.append(rest)

        sparse_whole = SparseCountSketch(3, 32, seed=13)
        sparse_whole.extend(items)
        vec_whole = VectorizedCountSketch(3, 32, seed=13)
        vec_whole.extend(items)

        sparse_merged = SparseCountSketch(3, 32, seed=13)
        vec_merged = VectorizedCountSketch(3, 32, seed=13)
        for shard in shards:
            sparse_piece = SparseCountSketch(3, 32, seed=13)
            sparse_piece.extend(shard)
            sparse_merged.merge(sparse_piece)
            vec_piece = VectorizedCountSketch(3, 32, seed=13)
            vec_piece.extend(shard)
            vec_merged.merge(vec_piece)
        assert sparse_merged == sparse_whole
        assert sparse_merged.total_weight == sparse_whole.total_weight
        assert vec_merged == vec_whole
        assert vec_merged.total_weight == vec_whole.total_weight

    @settings(max_examples=15, deadline=None)
    @given(STREAMS, st.integers(min_value=1, max_value=40))
    def test_parallel_engine_equals_single_pass(self, items, chunk_size):
        whole = CountSketch(3, 32, seed=13)
        whole.extend(items)
        sketch, __ = parallel_sketch(
            items, 3, 32, seed=13, n_workers=1, chunk_size=chunk_size
        )
        assert sketch == whole
        assert sketch.total_weight == whole.total_weight


class TestParallelTopK:
    def test_matches_exact_heavy_hitters(self):
        stream = zipf_stream(n=20_000, m=1_000, seed=5)
        top, summary = parallel_topk(
            stream, 10, 5, 512, seed=3, n_workers=4, chunk_size=2048
        )
        exact = [item for item, __ in Counter(stream).most_common(10)]
        reported = [item for item, __ in top]
        # Zipf head at this width: the engine should recover the exact
        # top 10 almost perfectly; require at least 9/10 overlap.
        assert len(set(reported) & set(exact)) >= 9
        assert summary.total_items == len(stream)

    def test_serial_and_parallel_agree(self):
        stream = zipf_stream(n=10_000, m=500, seed=6)
        serial_top, __ = parallel_topk(
            stream, 5, 5, 256, seed=3, n_workers=1, chunk_size=1024
        )
        parallel_top, __ = parallel_topk(
            stream, 5, 5, 256, seed=3, n_workers=3, chunk_size=1024
        )
        # Identical chunking + exact merge => identical candidate union
        # and identical estimates, regardless of executor.
        assert serial_top == parallel_top

    def test_candidates_defaults_to_twice_k(self):
        stream = zipf_stream(n=2_000, m=100, seed=8)
        top, __ = parallel_topk(stream, 4, 3, 128, seed=1, chunk_size=500)
        assert len(top) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            parallel_topk([1], 0, 3, 64)
        with pytest.raises(ValueError):
            parallel_topk([1], 5, 3, 64, candidates=3)

    def test_estimates_come_from_merged_sketch(self):
        stream = ["a"] * 100 + ["b"] * 50 + ["c"] * 10
        top, __ = parallel_topk(
            stream, 2, 5, 256, seed=0, n_workers=2, chunk_size=40
        )
        assert top[0][0] == "a"
        assert top[0][1] == 100.0  # exact at this width
        assert top[1] == ("b", 50.0)

    def test_tracker_heap_semantics_preserved_serially(self):
        # The per-shard trackers mirror TopKTracker; over one shard the
        # candidate set matches a plain tracker fed aggregated counts.
        stream = ["x"] * 30 + ["y"] * 20 + ["z"] * 5
        top, __ = parallel_topk(
            stream, 2, 5, 256, seed=0, n_workers=1, chunk_size=1000
        )
        tracker = TopKTracker(4, depth=5, width=256, seed=0)
        for item, count in Counter(stream).items():
            tracker.update(item, count)
        tracker_items = {item for item, __ in tracker.top(2)}
        assert {item for item, __ in top} == tracker_items


class TestInstrumentation:
    def test_summary_fields(self):
        stream = zipf_stream(n=4_000, m=200, seed=9)
        sketch, summary = parallel_sketch(
            stream, 3, 64, seed=2, n_workers=2, chunk_size=1000
        )
        assert summary.backend == "dense"
        assert summary.n_workers == 2
        assert summary.chunk_size == 1000
        assert summary.n_shards == 4
        assert summary.total_items == 4_000
        assert summary.wall_seconds > 0
        assert summary.items_per_second > 0
        assert summary.merge_seconds >= 0
        assert len(summary.shards) == 4
        assert [s.shard for s in summary.shards] == [0, 1, 2, 3]
        for shard in summary.shards:
            assert shard.items == 1000
            assert shard.items_per_second > 0
            assert 0 < shard.counters_touched <= 3 * 64

    def test_sparse_counters_touched(self):
        stream = [1, 1, 2] * 10
        __, summary = parallel_sketch(
            stream, 3, 1 << 16, seed=2, backend="sparse", chunk_size=1000
        )
        # Two distinct items, three rows: at most 6 touched buckets.
        assert 0 < summary.shards[0].counters_touched <= 6
