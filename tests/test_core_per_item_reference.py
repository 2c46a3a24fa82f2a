"""The per-item paths against the formulation they replaced.

``CountSketch``'s per-item calls read and write counters through a flat
int64 view at cached signed cells.  The reference below is the older,
obviously right form: 2-D NumPy indexing of the counter array at each
row's bucket and sign, ``statistics.median`` over the rows, and the
APPROXTOP loop calling ``update`` then ``estimate``.  Answers must agree
bit for bit: counters, IEEE bits of every estimate (``-0.0`` included),
heap entries and metric totals, with counts across the whole int64
range, so counters wrap.
"""

import copy
import pickle
import statistics
import struct
import warnings
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.countsketch import CountSketch
from repro.core.heap import IndexedMinHeap
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.hashing.vectorized import encode_keys
from repro.observability.registry import MetricsRegistry, use_registry

MAX = 2**63 - 1

SKETCH_TYPES = st.sampled_from([CountSketch, VectorizedCountSketch])

#: Weights over the whole range a sketch accepts, extremes included, so
#: narrow sketches wrap their counters within a few updates.
WEIGHTS = st.one_of(
    st.integers(min_value=-MAX, max_value=MAX),
    st.sampled_from([MAX, -MAX, 1, -1, 2**62]),
)

KEYS = st.one_of(
    st.integers(min_value=-(2**66), max_value=2**66),
    st.text(max_size=3),
    st.tuples(st.integers(min_value=0, max_value=3), st.text(max_size=2)),
)


def bits(value):
    return struct.pack("<d", value)


class ReferenceSketch:
    """The 2-D per-item formulation, over the same hash functions."""

    def __init__(self, sketch):
        self.rows = sketch._rows  # repro: noqa-RS004 — the same hash functions
        self.counters = np.zeros((sketch.depth, sketch.width), dtype=np.int64)
        self.total_weight = 0

    def positions(self, item):
        buckets, signs = self.rows.positions_array(encode_keys([item]))
        return buckets[:, 0].tolist(), signs[:, 0].tolist()

    def update(self, item, count):
        buckets, signs = self.positions(item)
        with warnings.catch_warnings():
            # NumPy wraps an int64 scalar sum past the range, and warns.
            warnings.simplefilter("ignore", RuntimeWarning)
            for row, (bucket, sign) in enumerate(zip(buckets, signs, strict=True)):
                self.counters[row, bucket] += sign * count
        self.total_weight += count

    def row_estimates(self, item):
        buckets, signs = self.positions(item)
        return [float(self.counters[row, bucket]) * sign
                for row, (bucket, sign) in enumerate(zip(buckets, signs, strict=True))]

    def estimate(self, item):
        return statistics.median(self.row_estimates(item))

    def row_values(self, item):
        buckets, signs = self.positions(item)
        return [int(self.counters[row, bucket]) * sign
                for row, (bucket, sign) in enumerate(zip(buckets, signs, strict=True))]


class ReferenceTracker:
    """The APPROXTOP loop as ``update`` then ``estimate`` calls, tallying
    what the tracker's and the sketch's metrics count."""

    def __init__(self, sketch, k, exact):
        self.sketch = ReferenceSketch(sketch)
        self.heap = IndexedMinHeap()
        self.k = k
        self.exact = exact
        self.items_processed = 0
        self.tally = Counter()

    def estimate(self, item):
        self.tally["estimates"] += 1
        return self.sketch.estimate(item)

    def update(self, item, count):
        self.sketch.update(item, count)
        self.items_processed += count
        self.tally["updates"] += 1
        heap = self.heap
        if item in heap:
            if self.exact:
                heap.add_to(item, count)
                self.tally["exact_increments"] += 1
            else:
                heap.update(item, self.estimate(item))
            return
        estimate = self.estimate(item)
        if len(heap) < self.k:
            heap.push(item, estimate)
            self.tally["heap_admissions"] += 1
        elif estimate > heap.min()[1]:
            heap.pop_min()
            heap.push(item, estimate)
            self.tally["heap_admissions"] += 1
            self.tally["heap_evictions"] += 1
        else:
            self.tally["heap_rejections"] += 1


def build(sketch_type, depth, width, metrics):
    registry = MetricsRegistry() if metrics else None
    with use_registry(registry):
        return sketch_type(depth, width, seed=7), registry


def counter(registry, name):
    return registry.snapshot()["counters"].get(name, 0) if name else 0


class TestSketchPaths:
    @settings(max_examples=150, deadline=None)
    @given(
        sketch_type=SKETCH_TYPES,
        depth=st.integers(min_value=1, max_value=6),
        width=st.integers(min_value=1, max_value=8),
        metrics=st.booleans(),
        pool=st.lists(KEYS, min_size=1, max_size=6),
        calls=st.lists(
            st.tuples(
                st.sampled_from(["update", "update_estimate", "estimate",
                                 "row_values", "row_estimates"]),
                st.integers(min_value=0, max_value=5),
                WEIGHTS,
            ),
            max_size=40,
        ),
    )
    def test_every_per_item_path_equals_the_reference(
            self, sketch_type, depth, width, metrics, pool, calls):
        sketch, registry = build(sketch_type, depth, width, metrics)
        reference = ReferenceSketch(sketch)
        tally = dict.fromkeys(["update", "update_estimate", "estimate",
                               "row_values", "row_estimates"], 0)
        for name, index, weight in calls:
            item = pool[index % len(pool)]
            tally[name] += 1
            if name == "update":
                sketch.update(item, weight)
                reference.update(item, weight)
            elif name == "update_estimate":
                got = sketch.update_estimate(item, weight)
                reference.update(item, weight)
                assert bits(got) == bits(reference.estimate(item))
            elif name == "estimate":
                assert bits(sketch.estimate(item)) == bits(reference.estimate(item))
            elif name == "row_values":
                got = sketch.row_values(item)
                assert got == reference.row_values(item)
                assert all(type(value) is int for value in got)
            else:
                assert ([bits(value) for value in sketch.row_estimates(item)]
                        == [bits(value) for value in reference.row_estimates(item)])
            assert np.array_equal(sketch.counters, reference.counters)
            assert sketch.total_weight == reference.total_weight
        if registry is not None:
            names = type(sketch)._METRIC_NAMES
            updates = tally["update"] + tally["update_estimate"]
            assert counter(registry, names[0]) == updates
            assert counter(registry, names[1]) == (updates if names[1] else 0)
            assert counter(registry, names[2]) == (tally["estimate"]
                                                   + tally["update_estimate"])
            lookups = counter(registry, names[3]) + counter(registry, names[4])
            assert lookups == (sum(tally.values()) if names[3] else 0)

    @given(sketch_type=SKETCH_TYPES, depth=st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_counters_wrap_as_int64_and_zero_reads_signed(self, sketch_type, depth):
        sketch, __ = build(sketch_type, depth, 1, False)
        reference = ReferenceSketch(sketch)
        for item, weight in [("a", MAX), ("a", MAX), ("b", MAX), ("a", -MAX),
                             ("a", -MAX), ("b", -MAX), ("c", 2), ("c", -2)]:
            got = sketch.update_estimate(item, weight)
            reference.update(item, weight)
            assert bits(got) == bits(reference.estimate(item))
            assert np.array_equal(sketch.counters, reference.counters)
        # Every counter is back at zero: rows under a -1 sign read -0.0.
        assert not sketch.counters.any()
        assert ([bits(value) for value in sketch.row_estimates("a")]
                == [bits(value) for value in reference.row_estimates("a")])


class TestTrackerLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        sketch_type=SKETCH_TYPES,
        depth=st.integers(min_value=1, max_value=6),
        width=st.integers(min_value=1, max_value=8),
        k=st.sampled_from([1, 2, 4]),
        exact=st.booleans(),
        metrics=st.booleans(),
        batched=st.booleans(),
        pool=st.lists(KEYS, min_size=1, max_size=8),
        records=st.lists(
            st.tuples(st.integers(min_value=0, max_value=7),
                      st.one_of(st.integers(min_value=1, max_value=MAX),
                                st.sampled_from([1, 2, MAX]))),
            max_size=60,
        ),
    )
    def test_update_equals_the_reference_loop(
            self, sketch_type, depth, width, k, exact, metrics, batched, pool,
            records):
        registry = MetricsRegistry() if metrics else None
        with use_registry(registry):
            tracker = TopKTracker(k, sketch=sketch_type(depth, width, seed=2),
                                  exact_heap_counts=exact)
        reference = ReferenceTracker(tracker.sketch, k, exact)
        items = [pool[index % len(pool)] for index, __ in records]
        counts = [count for __, count in records]
        if batched:
            tracker.update_batch(items, counts)
        else:
            for item, count in zip(items, counts, strict=True):
                tracker.update(item, count)
        for item, count in zip(items, counts, strict=True):
            reference.update(item, count)
        assert np.array_equal(tracker.sketch.counters, reference.sketch.counters)
        assert tracker.sketch.total_weight == reference.sketch.total_weight
        assert tracker.items_processed == reference.items_processed
        assert ([(type(item), item, bits(priority))
                 for item, priority in tracker.state_dict()["heap"]]
                == [(type(item), item, bits(priority))
                    for item, priority in reference.heap.entries()])
        if registry is not None:
            totals = registry.snapshot()["counters"]
            names = type(tracker.sketch)._METRIC_NAMES
            tally = reference.tally
            for name in ("updates", "exact_increments", "heap_admissions",
                         "heap_evictions", "heap_rejections"):
                assert totals.get(f"topk_{name}_total", 0) == tally[name]
            assert totals.get(names[0], 0) == tally["updates"]
            assert totals.get(names[2], 0) == tally["estimates"]


class TestCopies:
    """Pickle and deepcopy rebuild the flat counter view, which neither
    can carry, over the copy's own counters."""

    @staticmethod
    def summaries():
        for sketch_type in (CountSketch, VectorizedCountSketch):
            sketch = sketch_type(4, 16, seed=3)
            for i in range(40):
                sketch.update(f"q{i % 9}", i + 1)
            yield sketch
            tracker = TopKTracker(3, sketch=sketch_type(4, 16, seed=3))
            tracker.update_batch([f"q{i % 9}" for i in range(40)])
            yield tracker

    def test_copies_answer_alike_and_own_their_counters(self):
        for original in self.summaries():
            for copier in (lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy):
                clone = copier(original)
                for summary in (original, clone):
                    summary.update("q1", 3)
                    summary.update("fresh", 2)
                sketch = getattr(original, "sketch", original)
                copied = getattr(clone, "sketch", clone)
                assert copied == sketch
                assert copied.total_weight == sketch.total_weight
                for item in ("q1", "q4", "fresh", "never"):
                    assert bits(clone.estimate(item)) == bits(original.estimate(item))
                assert copied.row_values("q2") == sketch.row_values("q2")
                if isinstance(original, TopKTracker):
                    assert clone.top() == original.top()
                # The copy's counters are its own: updating one leaves
                # the other alone.
                before = sketch.counters.copy()
                clone.update("q5", 7)
                assert np.array_equal(sketch.counters, before)
                assert not np.array_equal(copied.counters, before)
