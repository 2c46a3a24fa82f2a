"""Tests for repro.core.countsketch — the COUNT SKETCH data structure."""

import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.countsketch import CountSketch
from repro.core.vectorized import VectorizedCountSketch
from repro.hashing.bucket import BucketHashFamily
from repro.hashing.mersenne import KWiseFamily
from repro.hashing.multiply_shift import MultiplyShiftFamily
from repro.hashing.sign import SignHashFamily
from repro.observability.registry import MetricsRegistry, use_registry

ITEMS = st.one_of(
    st.integers(min_value=0, max_value=10_000),
    st.text(min_size=1, max_size=8),
)

#: Keys where the Mersenne reduction and the 64-bit wrap change branch.
U64_EDGES = [0, 2**61 - 2, 2**61 - 1, 2**61, 2 * (2**61 - 1), 2**63,
             2**64 - 1]
U64_KEYS = st.one_of(st.sampled_from(U64_EDGES),
                     st.integers(min_value=0, max_value=2**64 - 1))


class TestConstruction:
    def test_shape(self):
        sketch = CountSketch(3, 10)
        assert sketch.depth == 3
        assert sketch.width == 10
        assert sketch.counters.shape == (3, 10)
        assert sketch.counters_used() == 30

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CountSketch(0, 10)
        with pytest.raises(ValueError):
            CountSketch(3, 0)

    def test_fresh_sketch_is_zero(self):
        sketch = CountSketch(3, 10)
        assert sketch.total_weight == 0
        assert not sketch.counters.any()
        assert sketch.estimate("anything") == 0

    def test_counters_view_read_only(self):
        sketch = CountSketch(2, 4)
        with pytest.raises(ValueError):
            sketch.counters[0, 0] = 1  # repro: noqa-RS002 — asserts refusal

    def test_items_stored_zero(self):
        assert CountSketch(2, 4).items_stored() == 0

    def test_explicit_hashes_must_match_depth(self):
        bucket_hashes = BucketHashFamily(KWiseFamily(seed=1), 10).draw(3)
        with pytest.raises(ValueError):
            CountSketch(2, 10, bucket_hashes=bucket_hashes)

    def test_explicit_bucket_hash_range_checked(self):
        with pytest.raises(ValueError):
            CountSketch(
                3,
                20,
                bucket_hashes=BucketHashFamily(KWiseFamily(seed=1), 10).draw(3),
                sign_hashes=SignHashFamily(KWiseFamily(seed=2)).draw(3),
            )


class TestAddEstimate:
    def test_single_item(self):
        sketch = CountSketch(5, 64, seed=0)
        sketch.update("x")
        assert sketch.estimate("x") == 1.0

    def test_repeated_item(self):
        sketch = CountSketch(5, 64, seed=0)
        for _ in range(100):
            sketch.update("x")
        assert sketch.estimate("x") == 100.0

    def test_weighted_update(self):
        sketch = CountSketch(5, 64, seed=0)
        sketch.update("x", 100)
        assert sketch.estimate("x") == 100.0

    def test_negative_update(self):
        sketch = CountSketch(5, 64, seed=0)
        sketch.update("x", 10)
        sketch.update("x", -4)
        assert sketch.estimate("x") == 6.0

    def test_total_weight_tracks_updates(self):
        sketch = CountSketch(3, 16, seed=0)
        sketch.update("a", 5)
        sketch.update("b", -2)
        assert sketch.total_weight == 3

    def test_isolated_items_exact_when_no_collisions(self):
        """Few items in a wide sketch: every estimate is exact."""
        sketch = CountSketch(5, 4096, seed=1)
        truth = {f"item-{i}": i + 1 for i in range(10)}
        sketch.update_counts(truth)
        for item, count in truth.items():
            assert sketch.estimate(item) == count

    def test_update_counts_matches_item_at_a_time(self):
        counts = Counter({"a": 3, "b": 5, "c": 2})
        one = CountSketch(3, 32, seed=4)
        one.update_counts(counts)
        two = CountSketch(3, 32, seed=4)
        for item, count in counts.items():
            for _ in range(count):
                two.update(item)
        assert one == two

    def test_extend(self):
        sketch = CountSketch(3, 32, seed=4)
        sketch.extend(["a", "b", "a"])
        assert sketch.estimate("a") == 2.0
        assert sketch.total_weight == 3

    def test_row_estimates_length(self):
        sketch = CountSketch(7, 32, seed=0)
        sketch.update("x", 3)
        rows = sketch.row_estimates("x")
        assert len(rows) == 7
        # With a single item there are no collisions: every row exact.
        assert all(r == 3.0 for r in rows)

    def test_median_of_row_estimates(self):
        import statistics

        sketch = CountSketch(5, 8, seed=2)
        for item in range(100):
            sketch.update(item)
        for item in (1, 5, 50):
            assert sketch.estimate(item) == statistics.median(
                sketch.row_estimates(item)
            )

    def test_estimate_mean_combiner(self):
        sketch = CountSketch(5, 64, seed=0)
        sketch.update("x", 10)
        assert sketch.estimate_mean("x") == 10.0

    def test_estimate_accuracy_on_real_stream(self, zipf_counts):
        sketch = CountSketch(5, 512, seed=3)
        sketch.update_counts(zipf_counts)
        top = zipf_counts.most_common(10)
        for item, count in top:
            assert abs(sketch.estimate(item) - count) <= 0.1 * count + 5


class TestBatchEqualsScalar:
    """The array evaluation of each hash family matches its per-key one."""

    @pytest.mark.parametrize("sketch_type",
                             [CountSketch, VectorizedCountSketch])
    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=7),
        width=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
        updates=st.lists(
            st.tuples(U64_KEYS, st.integers(min_value=-50, max_value=50)),
            max_size=60,
        ),
        probes=st.lists(U64_KEYS, max_size=20),
    )
    def test_batch_paths_equal_per_key_paths(self, sketch_type, depth, width,
                                             seed, updates, probes):
        batch = sketch_type(depth, width, seed=seed)
        single = sketch_type(depth, width, seed=seed)
        batch.update_batch(
            np.asarray([key for key, __ in updates], dtype=np.uint64),
            np.asarray([weight for __, weight in updates], dtype=np.int64),
        )
        for key, weight in updates:
            single.update(key, weight)
        assert np.array_equal(batch.counters, single.counters)
        assert batch.total_weight == single.total_weight
        queries = [key for key, __ in updates] + probes
        keys = np.asarray(queries, dtype=np.uint64)
        assert batch.estimate_batch(keys).tolist() == [
            single.estimate(key) for key in queries
        ]
        assert batch.row_values_batch(keys).T.tolist() == [
            single.row_values(key) for key in queries
        ]

    @pytest.mark.parametrize("bucket_family", [
        KWiseFamily(independence=3, seed=5),
        MultiplyShiftFamily(out_bits=31, seed=5),
    ])
    def test_explicit_functions_of_other_families(self, bucket_family):
        # Degree-2 polynomials take the general limb-product Horner;
        # other families are called key by key on both paths.
        bucket_hashes = BucketHashFamily(bucket_family, 40).draw(3)
        sign_hashes = SignHashFamily(KWiseFamily(independence=4, seed=6)).draw(3)
        items = [0, 2**61 - 1, 2**64 - 1, "text", ("flow", 1)] * 3
        batch = CountSketch(3, 40, bucket_hashes=bucket_hashes,
                            sign_hashes=sign_hashes)
        batch.update_batch(items, list(range(-7, 8)))
        single = CountSketch(3, 40, bucket_hashes=bucket_hashes,
                             sign_hashes=sign_hashes)
        for item, weight in zip(items, range(-7, 8), strict=True):
            single.update(item, weight)
        assert batch == single
        assert batch.row_values_batch(items).T.tolist() == [
            single.row_values(item) for item in items
        ]

    @pytest.mark.parametrize("method", ["update_batch", "update_batch_estimates"])
    @pytest.mark.parametrize("weights", [
        [2**63 - 1, 2**63 - 1, 5],
        [-(2**63 - 1), -(2**63 - 1), 5],
        [2**63 - 1, -(2**63 - 1), 2**62, 2**62],
    ])
    def test_total_weight_is_the_exact_sum(self, method, weights):
        # An int64 sum of the weights wraps; per-item updates add ints.
        batch = CountSketch(3, 8, seed=2)
        getattr(batch, method)(list(range(len(weights))), weights)
        single = CountSketch(3, 8, seed=2)
        for item, weight in enumerate(weights):
            single.update(item, weight)
        assert batch.total_weight == single.total_weight == sum(weights)
        assert batch == single

    def test_batches_larger_than_a_slice(self, monkeypatch):
        from repro.core import countsketch as module

        monkeypatch.setattr(module, "_BATCH_SLICE", 3)
        items = [f"item-{i % 7}" for i in range(50)]
        weights = [i - 25 for i in range(50)]
        batch = CountSketch(5, 16, seed=8)
        batch.update_batch(items, weights)
        single = CountSketch(5, 16, seed=8)
        for item, weight in zip(items, weights, strict=True):
            single.update(item, weight)
        assert batch == single
        assert batch.total_weight == single.total_weight
        assert batch.row_values_batch(items).T.tolist() == [
            single.row_values(item) for item in items
        ]


class TestIntegralCounts:
    """Counters are int64: a non-integral weight is refused, never
    truncated, and an integral one of another type becomes an int."""

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"),
                                     np.float64(-0.5)])
    def test_update_refuses_non_integral_count(self, bad):
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("b", 4)
        before = sketch.counters.copy()
        with pytest.raises(ValueError, match="integral"):
            sketch.update("a", bad)
        assert np.array_equal(sketch.counters, before)
        assert sketch.total_weight == 4

    @pytest.mark.parametrize("count", [2.0, np.int64(2), np.float32(2.0)])
    def test_update_normalizes_integral_count(self, count):
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("a", count)
        reference = CountSketch(3, 16, seed=1)
        reference.update("a", 2)
        assert sketch == reference
        assert type(sketch.total_weight) is int
        assert sketch.total_weight == 2

    def test_update_refuses_bool_and_non_number_counts(self):
        sketch = CountSketch(3, 16, seed=1)
        with pytest.raises(TypeError):
            sketch.update("a", True)
        with pytest.raises(TypeError):
            sketch.update("a", "2")
        assert sketch.total_weight == 0

    @pytest.mark.parametrize("sketch_type", [CountSketch, VectorizedCountSketch])
    @pytest.mark.parametrize("method", ["update_batch", "update_batch_estimates"])
    def test_batch_refuses_any_non_integral_weight(self, sketch_type, method):
        sketch = sketch_type(3, 16, seed=1)
        with pytest.raises(ValueError, match="integral"):
            getattr(sketch, method)(["a"], [1.5])
        with pytest.raises(ValueError, match="integral"):
            getattr(sketch, method)(["a", "b", "c"], [1, float("nan"), 2])
        with pytest.raises(ValueError, match="integral"):
            getattr(sketch, method)(["a", "b"], np.asarray([2.0, np.inf]))
        assert not sketch.counters.any()
        assert sketch.total_weight == 0

    @pytest.mark.parametrize("sketch_type", [CountSketch, VectorizedCountSketch])
    @pytest.mark.parametrize("method", ["update_batch", "update_batch_estimates"])
    def test_batch_refuses_weights_past_int64_and_bools(self, sketch_type, method):
        sketch = sketch_type(3, 16, seed=1)
        apply = getattr(sketch, method)
        with pytest.raises(OverflowError):
            apply(["a"], [2**63])
        with pytest.raises(OverflowError):
            apply(["a", "b"], [1, -(2**63) - 1])
        with pytest.raises(OverflowError):
            apply(["a", "b"], np.asarray([1, 2**63], dtype=np.uint64))
        # A bool among numbers is refused, not promoted to 1.
        with pytest.raises(TypeError):
            apply(["a", "b"], [2, True])
        with pytest.raises(TypeError):
            apply(["a", "b"], [2.0, True])
        assert not sketch.counters.any()
        assert sketch.total_weight == 0

    @pytest.mark.parametrize("sketch_type", [CountSketch, VectorizedCountSketch])
    @pytest.mark.parametrize("count", [2**63, -(2**63), 2**70])
    def test_update_refuses_weights_outside_int64_before_any_row_moves(
            self, sketch_type, count):
        # "e" has row signs (-1, -1, +1) on the polynomial family: a
        # 2**63 update used to move two rows, then overflow on the third.
        sketch = sketch_type(3, 16, seed=1)
        sketch.update("b", 4)
        before = sketch.counters.copy()
        for item in ("e", "c", "a"):
            with pytest.raises(OverflowError, match="int64"):
                sketch.update(item, count)
        assert np.array_equal(sketch.counters, before)
        assert sketch.total_weight == 4

    def test_update_refuses_2_63_on_an_all_negative_key(self):
        # Every row of "c" has sign -1, so each counter would have taken
        # -2**63 and the update used to be accepted whole.
        sketch = CountSketch(3, 16, seed=1)
        with pytest.raises(OverflowError):
            sketch.update("c", 2**63)
        assert sketch.total_weight == 0
        assert not sketch.counters.any()

    @pytest.mark.parametrize("sketch_type", [CountSketch, VectorizedCountSketch])
    @pytest.mark.parametrize("method", ["update_batch", "update_batch_estimates"])
    @pytest.mark.parametrize("weights", [[-(2**63)],
                                         np.asarray([1, -(2**63)], dtype=np.int64)])
    def test_batch_refuses_minus_2_63(self, sketch_type, method, weights):
        # -2**63 fits int64 but its negation does not: rows of sign -1
        # used to wrap it to -2**63 instead of adding 2**63.
        sketch = sketch_type(3, 16, seed=1)
        with pytest.raises(OverflowError, match="int64"):
            getattr(sketch, method)(["a", "b"][:len(weights)], weights)
        assert not sketch.counters.any()
        assert sketch.total_weight == 0

    def test_batch_normalizes_integral_weights(self):
        sketch = CountSketch(3, 16, seed=1)
        sketch.update_batch(["a", "b"], [2.0, np.int64(3)])
        sketch.update_batch(["a"], np.asarray([4], dtype=np.uint64))
        reference = CountSketch(3, 16, seed=1)
        reference.update_batch(["a", "b"], [6, 3])
        assert sketch == reference
        assert type(sketch.total_weight) is int
        assert sketch.total_weight == 9


class TestUpdateBatchEstimates:
    """Each returned estimate is the per-item path's read right after
    that record's own update, to the bit."""

    @pytest.mark.parametrize("sketch_type", [CountSketch, VectorizedCountSketch])
    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=7),
        width=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
        updates=st.lists(
            st.tuples(st.one_of(U64_KEYS, st.integers(0, 6), st.text(max_size=2)),
                      st.integers(min_value=-5, max_value=5)),
            max_size=60,
        ),
    )
    def test_equals_update_then_estimate(self, sketch_type, depth, width, seed,
                                         updates):
        batch = sketch_type(depth, width, seed=seed)
        single = sketch_type(depth, width, seed=seed)
        batch.update(7, 3)
        single.update(7, 3)
        estimates = batch.update_batch_estimates(
            [key for key, __ in updates], [weight for __, weight in updates])
        expected = []
        for key, weight in updates:
            single.update(key, weight)
            expected.append(single.estimate(key))
        assert [struct.pack("<d", value) for value in estimates.tolist()] == [
            struct.pack("<d", value) for value in expected]
        assert np.array_equal(batch.counters, single.counters)
        assert batch.total_weight == single.total_weight

    @pytest.mark.parametrize("depth", [2, 3])
    def test_zero_readouts_keep_their_sign(self, depth):
        # Width 1 puts every key in one counter per row, so readouts of
        # 0 meet signs of both kinds: -0.0 must appear exactly where the
        # per-item path makes it.
        batch = CountSketch(depth, 1, seed=4)
        single = CountSketch(depth, 1, seed=4)
        items = list(range(40))
        weights = [1, -1] * 20
        estimates = batch.update_batch_estimates(items, weights).tolist()
        expected = []
        for item, weight in zip(items, weights, strict=True):
            single.update(item, weight)
            expected.append(single.estimate(item))
        assert [struct.pack("<d", value) for value in estimates] == [
            struct.pack("<d", value) for value in expected]
        assert any(struct.pack("<d", value) == struct.pack("<d", -0.0)
                   for value in expected)

    def test_batches_larger_than_a_slice(self, monkeypatch):
        from repro.core import countsketch as module

        monkeypatch.setattr(module, "_BATCH_SLICE", 3)
        items = [f"item-{i % 7}" for i in range(50)]
        weights = [i - 25 for i in range(50)]
        batch = CountSketch(5, 16, seed=8)
        estimates = batch.update_batch_estimates(items, weights).tolist()
        single = CountSketch(5, 16, seed=8)
        expected = []
        for item, weight in zip(items, weights, strict=True):
            single.update(item, weight)
            expected.append(single.estimate(item))
        assert estimates == expected
        assert batch == single
        assert batch.total_weight == single.total_weight

    def test_wide_rows_sort_on_full_width_buckets(self):
        # Widths above 2**16 cannot sort buckets as 16-bit keys.
        items = [i % 11 for i in range(60)]
        batch = VectorizedCountSketch(3, (1 << 16) + 5, seed=2)
        estimates = batch.update_batch_estimates(items).tolist()
        single = VectorizedCountSketch(3, (1 << 16) + 5, seed=2)
        expected = []
        for item in items:
            single.update(item)
            expected.append(single.estimate(item))
        assert estimates == expected
        assert batch == single

    def test_counts_updates_not_estimates(self):
        with use_registry(MetricsRegistry()) as registry:
            sketch = CountSketch(3, 16, seed=1)
        sketch.update_batch_estimates(["a", "b", "a"])
        counters = registry.snapshot()["counters"]
        assert counters["countsketch_updates_total"] == 3
        assert counters.get("countsketch_estimates_total", 0) == 0
        assert counters.get("countsketch_position_cache_misses_total", 0) == 0


class TestUnbiasedness:
    def test_row_estimate_unbiased_over_seeds(self, zipf_counts):
        """Lemma 1: E[h_i[q]·s_i[q]] = n_q.  Average the (noisy) single-row
        estimates of a mid-frequency item over many independent sketches."""
        item, true = zipf_counts.most_common(50)[-1]
        total = 0.0
        trials = 200
        for seed in range(trials):
            sketch = CountSketch(1, 32, seed=seed)
            sketch.update_counts(zipf_counts)
            total += sketch.estimate(item)
        mean = total / trials
        # Standard error ~ gamma/sqrt(trials); be generous.
        assert abs(mean - true) < 0.25 * true + 30


class TestLinearity:
    def test_add_equals_concatenation(self):
        s1 = CountSketch(3, 64, seed=9)
        s2 = CountSketch(3, 64, seed=9)
        s1.extend(["a", "b", "a"])
        s2.extend(["b", "c"])
        combined = s1 + s2
        whole = CountSketch(3, 64, seed=9)
        whole.extend(["a", "b", "a", "b", "c"])
        assert combined == whole

    def test_subtract_estimates_difference(self):
        s1 = CountSketch(5, 256, seed=9)
        s2 = CountSketch(5, 256, seed=9)
        s1.update("a", 100)
        s2.update("a", 30)
        assert (s2 - s1).estimate("a") == -70.0

    def test_neg(self):
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("a", 5)
        assert (-sketch).estimate("a") == -5.0
        assert (-sketch).total_weight == -5

    def test_scale(self):
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("a", 5)
        assert sketch.scale(3).estimate("a") == 15.0

    def test_scale_preserves_int64_counters(self):
        # Regression: a float factor used to silently promote the counter
        # array to float64, breaking state_dict round-trips and equality.
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("a", 5)
        scaled = sketch.scale(2.0)  # repro: noqa-RS005 — integral float OK
        assert scaled.counters.dtype == np.int64
        assert scaled == sketch.scale(2)
        assert scaled.total_weight == 10
        roundtrip = CountSketch.from_state_dict(scaled.state_dict())
        assert roundtrip == scaled

    def test_scale_rejects_non_reciprocal_fraction(self):
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("a", 5)
        with pytest.raises(ValueError, match="integral"):
            sketch.scale(0.3)  # repro: noqa-RS005 — asserts the rejection
        with pytest.raises(ValueError, match="integral"):
            sketch.scale(np.float64(2.5))
        with pytest.raises(ValueError, match="integral"):
            sketch.scale(-0.5)  # repro: noqa-RS005 — asserts the rejection

    def test_scale_half_floor_divides_counters(self):
        # scale(0.5) is the TinyLFU reset: every counter floor-halves,
        # keeping int64 dtype.  Pin //-toward-negative-infinity semantics
        # for odd counters: 5 -> 2 but -5 -> -3.
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("a", 5)
        sketch.update("b", -5)
        halved = sketch.scale(0.5)
        assert halved.counters.dtype == np.int64
        assert np.array_equal(halved.counters, sketch.counters // 2)
        assert halved.total_weight == sketch.total_weight // 2
        roundtrip = CountSketch.from_state_dict(halved.state_dict())
        assert roundtrip == halved

    def test_scale_half_negative_one_is_a_fixed_point(self):
        # Documented floor-semantics consequence: -1 // 2 == -1, so a -1
        # counter never decays to zero under repeated halving.
        sketch = CountSketch(1, 4, seed=0)
        sketch.update(0, -1)
        row = sketch.counters[0]
        assert row.sum() == -1 or row.sum() == 1  # sign hash may flip it
        twice = sketch.scale(0.5).scale(0.5)
        negatives = twice.counters[twice.counters < 0]
        assert all(value == -1 for value in negatives.tolist())

    def test_scale_quarter_is_two_halvings_of_even_counters(self):
        sketch = CountSketch(3, 16, seed=2)
        sketch.update("a", 8)
        sketch.update("b", 12)
        assert sketch.scale(0.25) == sketch.scale(0.5).scale(0.5)

    def test_scale_half_estimate_tracks_half_the_original(self):
        # Each per-row readout moves by at most 0.5 under floor-halving,
        # so the median estimate does too.
        sketch = CountSketch(5, 32, seed=3)
        for rank in range(1, 40):
            sketch.update(rank, 41 - rank)
        halved = sketch.scale(0.5)
        for rank in range(1, 40):
            drift = abs(halved.estimate(rank) - sketch.estimate(rank) / 2)
            assert drift <= 0.5

    def test_scale_rejects_non_numbers(self):
        sketch = CountSketch(3, 16, seed=1)
        with pytest.raises(TypeError):
            sketch.scale("3")
        with pytest.raises(TypeError):
            sketch.scale(True)

    def test_scale_accepts_np_integer(self):
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("a", 5)
        scaled = sketch.scale(np.int64(3))
        assert scaled.counters.dtype == np.int64
        assert scaled.estimate("a") == 15.0

    def test_merge_in_place(self):
        s1 = CountSketch(3, 64, seed=9)
        s2 = CountSketch(3, 64, seed=9)
        s1.update("a", 2)
        s2.update("a", 3)
        s1.merge(s2)
        assert s1.estimate("a") == 5.0
        assert s1.total_weight == 5

    def test_add_then_subtract_roundtrip(self):
        s1 = CountSketch(3, 64, seed=9)
        s2 = CountSketch(3, 64, seed=9)
        s1.extend(["a", "b"])
        s2.extend(["c"])
        assert (s1 + s2) - s2 == s1

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            CountSketch(3, 64, seed=9) + CountSketch(3, 32, seed=9)

    def test_incompatible_seeds_rejected(self):
        with pytest.raises(ValueError):
            CountSketch(3, 64, seed=9) + CountSketch(3, 64, seed=10)

    def test_non_sketch_rejected(self):
        with pytest.raises(TypeError):
            CountSketch(3, 64).merge("nope")

    def test_compatible_with(self):
        assert CountSketch(3, 64, seed=9).compatible_with(
            CountSketch(3, 64, seed=9)
        )
        assert not CountSketch(3, 64, seed=9).compatible_with(
            CountSketch(3, 64, seed=8)
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(ITEMS, max_size=30), st.lists(ITEMS, max_size=30))
    def test_linearity_property(self, items1, items2):
        """CS(S1) + CS(S2) == CS(S1 || S2) for arbitrary streams."""
        s1 = CountSketch(3, 16, seed=5)
        s2 = CountSketch(3, 16, seed=5)
        s1.extend(items1)
        s2.extend(items2)
        whole = CountSketch(3, 16, seed=5)
        whole.extend(items1 + items2)
        assert (s1 + s2) == whole

    @settings(max_examples=25, deadline=None)
    @given(st.lists(ITEMS, max_size=30))
    def test_self_subtraction_is_zero(self, items):
        sketch = CountSketch(3, 16, seed=5)
        sketch.extend(items)
        zero = sketch - sketch
        assert not zero.counters.any()
        assert zero.estimate("whatever") == 0.0


class TestMomentEstimation:
    def test_f2_exact_single_item(self):
        sketch = CountSketch(5, 64, seed=0)
        sketch.update("x", 10)
        assert sketch.estimate_f2() == 100.0

    def test_f2_close_on_stream(self, zipf_counts, zipf_stats):
        sketch = CountSketch(7, 1024, seed=2)
        sketch.update_counts(zipf_counts)
        true_f2 = zipf_stats.second_moment()
        assert abs(sketch.estimate_f2() - true_f2) < 0.15 * true_f2

    def test_inner_product_orthogonal_streams(self):
        s1 = CountSketch(7, 1024, seed=3)
        s2 = CountSketch(7, 1024, seed=3)
        s1.update("a", 50)
        s2.update("b", 70)
        # Disjoint supports: true inner product 0; estimate should be small.
        assert abs(s1.inner_product(s2)) < 500

    def test_inner_product_identical_streams_is_f2(self, zipf_counts):
        sketch = CountSketch(7, 1024, seed=4)
        sketch.update_counts(zipf_counts)
        assert sketch.inner_product(sketch) == sketch.estimate_f2()

    def test_inner_product_requires_compatible(self):
        with pytest.raises(ValueError):
            CountSketch(3, 16, seed=1).inner_product(CountSketch(3, 16, seed=2))


class TestCopyEqualitySerialization:
    def test_copy_independent(self):
        sketch = CountSketch(3, 16, seed=1)
        sketch.update("a")
        clone = sketch.copy()
        clone.update("a")
        assert sketch.estimate("a") == 1.0
        assert clone.estimate("a") == 2.0

    def test_equality(self):
        s1 = CountSketch(3, 16, seed=1)
        s2 = CountSketch(3, 16, seed=1)
        assert s1 == s2
        s1.update("a")
        assert s1 != s2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(CountSketch(3, 16))

    def test_state_dict_roundtrip(self, zipf_counts):
        sketch = CountSketch(3, 32, seed=6)
        sketch.update_counts(zipf_counts)
        revived = CountSketch.from_state_dict(sketch.state_dict())
        assert revived == sketch
        assert revived.total_weight == sketch.total_weight
        assert revived.estimate(1) == sketch.estimate(1)

    def test_state_dict_counters_are_int64_array(self):
        # The counters travel as an independent int64 ndarray (no boxed
        # Python ints); mutating the copy must not alias the sketch.
        sketch = CountSketch(2, 8, seed=0)
        sketch.update("a", 3)
        state = sketch.state_dict()
        assert isinstance(state["counters"], np.ndarray)
        assert state["counters"].dtype == np.int64
        state["counters"][0, 0] += 99
        assert sketch.estimate("a") == 3.0

    def test_state_dict_listified_counters_still_load(self):
        # Older serializations carried nested lists; they must keep
        # loading (e.g. a state dict that went through JSON via tolist()).
        sketch = CountSketch(2, 8, seed=0)
        sketch.update("a", 3)
        state = sketch.state_dict()
        state["counters"] = state["counters"].tolist()
        assert CountSketch.from_state_dict(state) == sketch

    def test_from_state_dict_rejects_wrong_coefficient_count(self):
        sketch = CountSketch(3, 8, seed=0)
        for field in ("bucket_coefficients", "sign_coefficients"):
            state = sketch.state_dict()
            state[field] = state[field][:-1]  # one list short of depth
            with pytest.raises(ValueError, match="coefficient"):
                CountSketch.from_state_dict(state)

    def test_from_state_dict_rejects_non_integral_counters(self):
        sketch = CountSketch(2, 8, seed=0)
        state = sketch.state_dict()
        state["counters"] = state["counters"].astype(float) + 0.5
        with pytest.raises(ValueError, match="integral"):
            CountSketch.from_state_dict(state)

    def test_from_state_dict_accepts_integral_float_counters(self):
        # A float array with exactly-integer values (JSON damage) loads.
        sketch = CountSketch(2, 8, seed=0)
        sketch.update("a", 3)
        state = sketch.state_dict()
        state["counters"] = state["counters"].astype(float)
        assert CountSketch.from_state_dict(state) == sketch

    def test_state_dict_shape_validation(self):
        sketch = CountSketch(2, 8, seed=0)
        state = sketch.state_dict()
        state["counters"] = [[0] * 8]  # wrong depth
        with pytest.raises(ValueError):
            CountSketch.from_state_dict(state)

    def test_state_dict_rejects_custom_hashes(self):
        from repro.hashing.multiply_shift import MultiplyShiftFamily
        from repro.hashing.sign import SignHashFamily
        from repro.hashing.mersenne import KWiseFamily

        buckets = MultiplyShiftFamily(out_bits=4, seed=1).draw(2)
        signs = SignHashFamily(KWiseFamily(seed=2)).draw(2)
        sketch = CountSketch(2, 16, bucket_hashes=buckets, sign_hashes=signs)
        with pytest.raises(TypeError):
            sketch.state_dict()

    def test_l2_norm(self):
        sketch = CountSketch(1, 4, seed=0)
        sketch.update("x", 3)
        assert sketch.l2_norm() == 3.0

    def test_repr(self):
        text = repr(CountSketch(3, 16, seed=1))
        assert "depth=3" in text and "width=16" in text


class TestPositionCache:
    def test_cache_does_not_change_results(self):
        sketch = CountSketch(3, 32, seed=1)
        first = sketch.estimate("x")
        sketch.update("x", 5)
        assert first == 0.0
        assert sketch.estimate("x") == 5.0
        # Re-query through the cache path.
        assert sketch.estimate("x") == 5.0

    def test_cache_cap_eviction(self):
        from repro.core import countsketch as module

        original = module._POSITION_CACHE_LIMIT
        module._POSITION_CACHE_LIMIT = 4
        try:
            sketch = CountSketch(2, 16, seed=1)
            for item in range(20):
                sketch.update(item)
            for item in range(20):
                assert sketch.estimate(item) >= 0 or True  # no crash
            assert len(sketch._position_cache) <= 4
        finally:
            module._POSITION_CACHE_LIMIT = original

    def test_over_limit_evicts_batch_not_wholesale(self, monkeypatch):
        # Regression: the cache used to clear() wholesale when full, so a
        # high-cardinality stream thrashed (grow to the limit, drop every
        # entry, repeat).  Eviction must drop only a batch of old entries
        # and keep the rest.
        from repro.core import countsketch as module

        monkeypatch.setattr(module, "_POSITION_CACHE_LIMIT", 16)
        sketch = CountSketch(2, 32, seed=3)
        for item in range(200):  # every item distinct: worst case
            sketch.update(item)
        cache = sketch._position_cache
        assert len(cache) <= 16
        # A wholesale clear would leave exactly 1 entry right after an
        # over-limit insert; batch eviction keeps most of the cache warm.
        assert len(cache) > 8

    def test_eviction_keeps_results_correct(self, monkeypatch):
        from repro.core import countsketch as module

        monkeypatch.setattr(module, "_POSITION_CACHE_LIMIT", 8)
        cached = CountSketch(3, 64, seed=5)
        for item in range(100):
            cached.update(item, item + 1)
        fresh = CountSketch(3, 64, seed=5)
        fresh.update_counts({item: item + 1 for item in range(100)})
        assert cached == fresh
        for item in (0, 7, 50, 99):  # mix of evicted and cached keys
            assert cached.estimate(item) == fresh.estimate(item)

    def test_eviction_is_fifo_over_insertion_order(self, monkeypatch):
        from repro.core import countsketch as module

        monkeypatch.setattr(module, "_POSITION_CACHE_LIMIT", 8)
        monkeypatch.setattr(module, "_POSITION_CACHE_EVICT_SHIFT", 2)
        sketch = CountSketch(2, 16, seed=1)
        for item in range(8):
            sketch.update(item)
        sketch.update(100)  # over the limit: evicts the 2 oldest entries
        cache_keys = set(sketch._position_cache)
        from repro.hashing.encode import encode_key

        assert encode_key(0) not in cache_keys
        assert encode_key(1) not in cache_keys
        assert encode_key(7) in cache_keys
        assert encode_key(100) in cache_keys
