"""Tests for repro.core.topk — the §3.2 APPROXTOP tracker."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import recall_at_k
from repro.core import countsketch, topk
from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.observability.registry import MetricsRegistry, use_registry

CROSSOVER = topk._BATCH_CROSSOVER

#: Keys of every encodable kind, including ints that wrap mod 2**64 and
#: the 1 / True / 1.0 trio: one key to the heap's dict, while the sketch
#: hashes 1.0 apart from the other two.
KEYS = st.one_of(
    st.integers(min_value=-(2**70), max_value=-1),
    st.integers(min_value=2**64, max_value=2**72),
    st.integers(min_value=0, max_value=30),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.tuples(st.integers(min_value=0, max_value=3), st.text(max_size=2)),
    st.sampled_from([1, True, 1.0]),
)


class TestConstruction:
    def test_with_dimensions(self):
        tracker = TopKTracker(5, depth=3, width=32)
        assert tracker.k == 5
        assert tracker.sketch.depth == 3
        assert tracker.sketch.width == 32

    def test_with_explicit_sketch(self):
        sketch = CountSketch(3, 32, seed=1)
        tracker = TopKTracker(5, sketch=sketch)
        assert tracker.sketch is sketch

    def test_sketch_and_dimensions_mutually_exclusive(self):
        with pytest.raises(ValueError):
            TopKTracker(5, sketch=CountSketch(3, 32), depth=3)

    def test_missing_dimensions(self):
        with pytest.raises(ValueError):
            TopKTracker(5)
        with pytest.raises(ValueError):
            TopKTracker(5, depth=3)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKTracker(0, depth=3, width=32)


class TestUpdates:
    def test_single_heavy_item(self):
        tracker = TopKTracker(3, depth=3, width=64, seed=0)
        for _ in range(50):
            tracker.update("heavy")
        top = tracker.top()
        assert top[0][0] == "heavy"
        assert top[0][1] == 50.0

    def test_heap_fills_up_to_k(self):
        tracker = TopKTracker(3, depth=3, width=64, seed=0)
        for item in ("a", "b", "c"):
            tracker.update(item)
        assert len(tracker.top()) == 3

    def test_heap_never_exceeds_k(self):
        tracker = TopKTracker(3, depth=3, width=64, seed=0)
        for item in range(20):
            tracker.update(item)
        assert tracker.items_stored() == 3
        assert len(tracker.top(100)) == 3

    def test_eviction_of_smallest(self):
        tracker = TopKTracker(2, depth=5, width=256, seed=0)
        for _ in range(10):
            tracker.update("big")
        for _ in range(5):
            tracker.update("mid")
        tracker.update("small")
        # 'small' (est 1) must not displace 'big' or 'mid'.
        items = [item for item, __ in tracker.top()]
        assert items == ["big", "mid"]

    def test_recurring_item_gets_exact_increments(self):
        tracker = TopKTracker(2, depth=5, width=256, seed=0)
        for _ in range(7):
            tracker.update("x")
        assert tracker.top()[0] == ("x", 7.0)

    def test_weighted_update(self):
        tracker = TopKTracker(2, depth=5, width=256, seed=0)
        tracker.update("x", 40)
        tracker.update("x", 2)
        assert tracker.top()[0] == ("x", 42.0)

    def test_nonpositive_count_rejected(self):
        tracker = TopKTracker(2, depth=3, width=32)
        with pytest.raises(ValueError):
            tracker.update("x", 0)
        with pytest.raises(ValueError):
            tracker.update("x", -1)

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
    def test_non_integral_count_rejected(self, bad):
        tracker = TopKTracker(2, depth=3, width=32, seed=0)
        with pytest.raises(ValueError):
            tracker.update("x", bad)
        assert tracker.items_processed == 0
        assert tracker.sketch.total_weight == 0
        assert "x" not in tracker

    def test_integral_count_normalized_to_int(self):
        tracker = TopKTracker(2, depth=3, width=32, seed=0)
        tracker.update("x", 2.0)  # repro: noqa-RS005 — integral float count
        tracker.update("x", np.int64(3))
        assert type(tracker.items_processed) is int
        assert tracker.items_processed == 5
        ((__, priority),) = tracker.state_dict()["heap"]
        assert type(priority) is float and priority == 5.0

    def test_items_processed(self):
        tracker = TopKTracker(2, depth=3, width=32, seed=0)
        tracker.update("a")
        tracker.update("b", 4)
        assert tracker.items_processed == 5

    def test_contains(self):
        tracker = TopKTracker(2, depth=3, width=32, seed=0)
        tracker.update("a")
        assert "a" in tracker
        assert "b" not in tracker


class TestQueries:
    def test_top_sorted_descending(self):
        tracker = TopKTracker(5, depth=5, width=256, seed=0)
        for item, count in [("a", 30), ("b", 20), ("c", 10)]:
            tracker.update(item, count)
        counts = [c for __, c in tracker.top()]
        assert counts == sorted(counts, reverse=True)

    def test_top_prefix(self):
        tracker = TopKTracker(5, depth=5, width=256, seed=0)
        for item, count in [("a", 30), ("b", 20), ("c", 10)]:
            tracker.update(item, count)
        assert len(tracker.top(2)) == 2
        assert tracker.top(2)[0][0] == "a"

    def test_top_negative_rejected(self):
        tracker = TopKTracker(2, depth=3, width=32)
        with pytest.raises(ValueError):
            tracker.top(-1)

    def test_estimate_heap_member_is_tracked_count(self):
        tracker = TopKTracker(2, depth=5, width=256, seed=0)
        for _ in range(9):
            tracker.update("x")
        assert tracker.estimate("x") == 9.0

    def test_estimate_non_member_falls_back_to_sketch(self):
        tracker = TopKTracker(1, depth=5, width=256, seed=0)
        tracker.update("big", 100)
        tracker.update("small")  # not in heap (k=1)
        assert "small" not in tracker
        assert tracker.estimate("small") == pytest.approx(1.0)

    def test_counters_used(self):
        tracker = TopKTracker(3, depth=2, width=10, seed=0)
        tracker.update("a")
        assert tracker.counters_used() == 2 * 10 + 1


class TestEndToEnd:
    def test_recovers_true_top_k_on_zipf(self, zipf_stream, zipf_stats):
        tracker = TopKTracker(10, depth=5, width=256, seed=1)
        for item in zipf_stream:
            tracker.update(item)
        reported = [item for item, __ in tracker.top()]
        assert recall_at_k(reported, zipf_stats.top_k_items(10)) >= 0.9

    def test_tracked_counts_close_to_truth(self, zipf_stream, zipf_stats):
        tracker = TopKTracker(10, depth=5, width=256, seed=1)
        for item in zipf_stream:
            tracker.update(item)
        for item, count in tracker.top():
            true = zipf_stats.count(item)
            assert abs(count - true) <= 0.05 * true + 3

    def test_reestimate_policy_also_works(self, zipf_stream, zipf_stats):
        tracker = TopKTracker(
            10, depth=5, width=256, seed=1, exact_heap_counts=False
        )
        for item in zipf_stream:
            tracker.update(item)
        reported = [item for item, __ in tracker.top()]
        assert recall_at_k(reported, zipf_stats.top_k_items(10)) >= 0.8

    def test_deterministic_given_seed(self, zipf_stream):
        def run():
            tracker = TopKTracker(5, depth=5, width=128, seed=9)
            for item in zipf_stream:
                tracker.update(item)
            return tracker.top()

        assert run() == run()

    def test_order_independence_of_sketch_but_heap_sees_order(self):
        """The sketch is order-independent; the heap is deterministic
        given the order.  Same multiset, different order: the final sketch
        states agree exactly."""
        items = ["a"] * 5 + ["b"] * 3 + ["c"] * 2
        t1 = TopKTracker(2, depth=3, width=64, seed=4)
        t2 = TopKTracker(2, depth=3, width=64, seed=4)
        for item in items:
            t1.update(item)
        for item in reversed(items):
            t2.update(item)
        assert t1.sketch == t2.sketch


class TestStateDict:
    @pytest.mark.parametrize("sketch_type", [CountSketch, VectorizedCountSketch])
    def test_round_trip_keeps_the_sketch_class(self, sketch_type):
        tracker = TopKTracker(3, sketch=sketch_type(3, 32, seed=4))
        tracker.update_batch([f"q{i % 7}" for i in range(50)])
        restored = TopKTracker.from_state_dict(tracker.state_dict())
        assert type(restored.sketch) is sketch_type
        assert restored.sketch == tracker.sketch
        assert restored.top() == tracker.top()
        tracker.update("q1", 5)
        restored.update("q1", 5)
        assert _state(restored) == _state(tracker)


def _state(tracker):
    """Everything the batch path must reproduce, with types and bits."""
    state = tracker.state_dict()
    return (
        state["sketch"]["counters"].tolist(),
        (type(state["sketch"]["total_weight"]), state["sketch"]["total_weight"]),
        (type(state["items_processed"]), state["items_processed"]),
        [(type(item), item, type(priority), struct.pack("<d", priority))
         for item, priority in state["heap"]],
    )


def _metric_totals(registry, sketch):
    """``topk_*`` totals and the sketch's update/estimate totals."""
    counters = registry.snapshot()["counters"]
    names = [name for name in counters if name.startswith("topk_")]
    names += [type(sketch)._METRIC_NAMES[0], type(sketch)._METRIC_NAMES[2]]
    return {name: counters[name] for name in names}


class TestUpdateBatch:
    """``update_batch`` leaves the tracker bit-for-bit as the loop does."""

    @staticmethod
    def build(sketch_type, k, depth, width, exact):
        return TopKTracker(k, sketch=sketch_type(depth, width, seed=3),
                           exact_heap_counts=exact)

    @settings(max_examples=80, deadline=None)
    @given(
        sketch_type=st.sampled_from([CountSketch, VectorizedCountSketch]),
        k=st.sampled_from([1, 3, 10]),
        depth=st.integers(min_value=1, max_value=7),
        width=st.integers(min_value=1, max_value=24),
        exact=st.booleans(),
        pool=st.lists(KEYS, min_size=1, max_size=12),
        picks=st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                                 st.integers(min_value=1, max_value=5)),
                       max_size=120),
        sizes=st.lists(st.integers(min_value=1, max_value=3 * CROSSOVER),
                       min_size=1, max_size=8),
        as_arrays=st.booleans(),
    )
    def test_batches_equal_the_loop(self, sketch_type, k, depth, width, exact,
                                    pool, picks, sizes, as_arrays):
        records = [(pool[index % len(pool)], count) for index, count in picks]
        with use_registry(MetricsRegistry()) as loop_registry:
            loop = self.build(sketch_type, k, depth, width, exact)
        with use_registry(MetricsRegistry()) as batch_registry:
            batched = self.build(sketch_type, k, depth, width, exact)
        for item, count in records:
            loop.update(item, count)
        start = 0
        for size in sizes * (len(records) // sum(sizes) + 1):
            if start >= len(records):
                break
            chunk = records[start:start + size]
            counts = [count for __, count in chunk]
            batched.update_batch([item for item, __ in chunk],
                                 np.asarray(counts) if as_arrays else counts)
            start += size
        assert _state(batched) == _state(loop)
        assert (_metric_totals(batch_registry, batched.sketch)
                == _metric_totals(loop_registry, loop.sketch))
        # Same cached keys, in the same (eviction) order, same positions.
        assert (list(batched.sketch._position_cache.items())
                == list(loop.sketch._position_cache.items()))

    @pytest.mark.parametrize("sketch_type", [CountSketch, VectorizedCountSketch])
    @pytest.mark.parametrize("exact", [True, False])
    def test_batch_above_a_slice(self, sketch_type, exact):
        rng = random.Random(11)
        items = [f"key-{int(rng.paretovariate(1.0)) % 300}"
                 for _ in range(countsketch._BATCH_SLICE * 3 // 2)]
        counts = [rng.randint(1, 5) for _ in items]
        loop = self.build(sketch_type, 10, 5, 64, exact)
        for item, count in zip(items, counts, strict=True):
            loop.update(item, count)
        batched = self.build(sketch_type, 10, 5, 64, exact)
        batched.update_batch(items, counts)
        assert _state(batched) == _state(loop)

    def test_unit_counts_by_default(self):
        items = [i % 9 for i in range(3 * CROSSOVER)]
        loop = self.build(CountSketch, 3, 5, 16, True)
        for item in items:
            loop.update(item)
        batched = self.build(CountSketch, 3, 5, 16, True)
        batched.update_batch(items)
        assert _state(batched) == _state(loop)

    def test_ndarray_inputs_store_python_objects(self):
        keys = np.arange(3 * CROSSOVER, dtype=np.uint64) % 5
        tracker = self.build(CountSketch, 3, 5, 16, True)
        tracker.update_batch(keys, np.full(keys.size, 2, dtype=np.int64))
        loop = self.build(CountSketch, 3, 5, 16, True)
        for key in keys.tolist():
            loop.update(key, 2)
        assert _state(tracker) == _state(loop)
        assert all(type(item) is int for item, __ in tracker.top())

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=3 * CROSSOVER),
        position=st.integers(min_value=0),
        bad=st.sampled_from([0, -1, 1.5]),
    )
    def test_a_bad_count_refuses_the_whole_batch(self, size, position, bad):
        tracker = self.build(CountSketch, 3, 5, 16, True)
        tracker.update_batch([i % 7 for i in range(40)])
        before = _state(tracker)
        counts = [1] * size
        counts[position % size] = bad
        with pytest.raises(ValueError):
            tracker.update_batch([i % 5 for i in range(size)], counts)
        assert _state(tracker) == before

    @pytest.mark.parametrize("size", [2, CROSSOVER])
    @pytest.mark.parametrize("fill, bad, error, as_array", [
        (2, 2**63, OverflowError, False),
        (2**63, 2**63, OverflowError, False),
        (2**63, 2**63, OverflowError, True),
        (2, True, TypeError, False),
    ])
    def test_a_count_past_int64_or_a_bool_refuses_the_whole_batch(
            self, size, fill, bad, error, as_array):
        tracker = self.build(CountSketch, 3, 5, 16, True)
        tracker.update_batch([i % 7 for i in range(40)])
        before = _state(tracker)
        counts = [fill] * (size - 1) + [bad]
        with pytest.raises(error):
            tracker.update_batch([i % 5 for i in range(size)],
                                 np.asarray(counts, dtype=np.uint64) if as_array
                                 else counts)
        assert _state(tracker) == before

    def test_batch_step_caches_positions_without_counting(self):
        with use_registry(MetricsRegistry()) as registry:
            tracker = self.build(CountSketch, 3, 5, 16, True)
        tracker.update_batch([i % 7 for i in range(CROSSOVER)])
        counters = registry.snapshot()["counters"]
        assert counters["countsketch_position_cache_hits_total"] == 0
        assert counters["countsketch_position_cache_misses_total"] == 0
        assert counters["topk_updates_total"] == CROSSOVER
        # The per-item calls that follow find every key cached.
        for item in range(7):
            tracker.update(item)
        counters = registry.snapshot()["counters"]
        assert counters["countsketch_position_cache_hits_total"] >= 7
        assert counters["countsketch_position_cache_misses_total"] == 0
