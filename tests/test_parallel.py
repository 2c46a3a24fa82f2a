"""Sharded ingestion rests on §3.2 linearity, and files are ingested
in bounded chunks.

The load-bearing property: a stream split into arbitrary shards, sketched
shard by shard with shared ``(depth, width, seed)``, and merged, is
*exactly* equal — counters, ``total_weight``, ``==`` — to the single-pass
sketch.  The cluster's scatter/gather and its offline rebalance rely on
it for every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch
from repro.core.vectorized import VectorizedCountSketch
from repro.store import apply_update_batch
from repro.streams.io import (
    DEFAULT_CHUNK_SIZE,
    iter_chunks,
    iter_stream_text,
    write_stream_text,
)
from repro.streams.zipf import ZipfStreamGenerator

ITEMS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(["alpha", "beta", "gamma", "delta"]),
)
STREAMS = st.lists(ITEMS, max_size=120)

BACKENDS = {
    "dense": CountSketch,
    "sparse": SparseCountSketch,
    "vectorized": VectorizedCountSketch,
}


def zipf_stream(n=20_000, m=1_000, seed=7):
    return list(ZipfStreamGenerator(m=m, z=1.0, seed=seed).generate(n))


def shard_and_merge(factory, stream, n_shards, chunk_size):
    """Deal ``stream``'s chunks round-robin over ``n_shards`` fresh
    summaries, apply each chunk as one batch, and merge the shards."""
    shards = [factory() for __ in range(n_shards)]
    for index, chunk in enumerate(iter_chunks(stream, chunk_size)):
        apply_update_batch(shards[index % n_shards], chunk)
    merged = factory()
    for shard in shards:
        merged.merge(shard)
    return merged


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
        chunks = list(iter_chunks(iter_stream_text(path, as_int=True), 2))
        assert chunks == [[1, 2], [3, 4], [5]]

    def test_default_chunk_size(self):
        chunks = iter_chunks(range(2 * DEFAULT_CHUNK_SIZE + 1))
        assert [len(c) for c in chunks] == [
            DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE, 1,
        ]


class TestExactMerge:
    """Chunks dealt over shards and merged: bit-for-bit the single pass."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_matches_single_pass(self, backend, n_shards):
        stream = zipf_stream(n=10_000, m=500)
        cls = BACKENDS[backend]
        sketch = shard_and_merge(
            lambda: cls(5, 128, seed=11), stream, n_shards, 1024
        )
        serial = cls(5, 128, seed=11)
        serial.extend(stream)
        assert sketch == serial
        assert sketch.total_weight == serial.total_weight == len(stream)
        if backend == "sparse":
            assert sketch.to_dense() == serial.to_dense()
        else:
            assert np.array_equal(sketch.counters, serial.counters)

    def test_sparse_merge_agrees_with_dense(self):
        stream = zipf_stream(n=5_000, m=300)
        sparse = shard_and_merge(
            lambda: SparseCountSketch(3, 4096, seed=2), stream, 2, 512
        )
        dense = CountSketch(3, 4096, seed=2)
        dense.extend(stream)
        assert sparse.to_dense() == dense

    def test_mixed_item_types(self):
        stream = ([("flow", 1, 2)] * 50 + ["query"] * 30 + [42] * 20
                  + [3.5] * 10) * 5
        sketch = shard_and_merge(
            lambda: CountSketch(3, 64, seed=4), stream, 2, 64
        )
        serial = CountSketch(3, 64, seed=4)
        serial.extend(stream)
        assert sketch == serial

    def test_empty_stream(self):
        sketch = shard_and_merge(
            lambda: CountSketch(3, 64, seed=0), [], 4, 64
        )
        assert sketch == CountSketch(3, 64, seed=0)
        assert sketch.total_weight == 0


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

    @settings(max_examples=25, deadline=None)
    @given(STREAMS, st.integers(min_value=1, max_value=40))
    def test_chunked_batches_equal_single_pass(self, items, chunk_size):
        # The CLI's ingest path: one update_batch call per chunk.
        whole = CountSketch(3, 32, seed=13)
        whole.extend(items)
        chunked = CountSketch(3, 32, seed=13)
        for chunk in iter_chunks(items, chunk_size):
            chunked.update_batch(chunk)
        assert chunked == whole
        assert chunked.total_weight == whole.total_weight
