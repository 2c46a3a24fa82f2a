"""Tests for the vectorized hashing rows and the batch Count Sketch."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.countsketch import CountSketch
from repro.core.vectorized import VectorizedCountSketch
from repro.hashing.vectorized import VectorizedRowHashes, encode_keys
from repro.service.tables import TableSpec


class TestEncodeKeys:
    def test_int_fast_path(self):
        keys = encode_keys([1, 2, 3])
        assert keys.dtype == np.uint64
        assert keys.tolist() == [1, 2, 3]

    def test_negative_ints_wrap(self):
        assert encode_keys([-1])[0] == np.uint64((1 << 64) - 1)

    def test_string_path_matches_scalar_encoder(self):
        from repro.hashing.encode import encode_key

        keys = encode_keys(["a", "b"])
        assert keys[0] == np.uint64(encode_key("a"))
        assert keys[1] == np.uint64(encode_key("b"))

    def test_mixed_types(self):
        keys = encode_keys([1, "a", (2, 3)])
        assert len(keys) == 3
        assert len(set(keys.tolist())) == 3

    def test_bools_not_treated_as_int_fast_path(self):
        # bool is an int subclass; the encoder must still map it via
        # encode_key (False -> 0, True -> 1), not crash.
        keys = encode_keys([True, False])
        assert keys.tolist() == [1, 0]

    def test_empty(self):
        assert len(encode_keys([])) == 0


class TestEncodeKeysNumpyFastPath:
    """Regression: np.integer scalars and integer ndarrays must take the
    vectorized fast path (they used to fall through to encode_key one by
    one, which did not even accept them) and agree with encode_key."""

    def _assert_no_scalar_fallback(self, monkeypatch):
        # Prove the fast path: make the scalar encoder explode if touched.
        import repro.hashing.vectorized as module

        def _boom(item):
            raise AssertionError("encode_key called on the fast path")

        monkeypatch.setattr(module, "encode_key", _boom)

    def test_integer_ndarray_takes_fast_path(self, monkeypatch):
        from repro.hashing.encode import encode_key

        expected = [encode_key(int(v)) for v in range(1000)]
        self._assert_no_scalar_fallback(monkeypatch)
        keys = encode_keys(np.arange(1000))
        assert keys.dtype == np.uint64
        assert keys.tolist() == expected

    def test_np_integer_scalars_take_fast_path(self, monkeypatch):
        from repro.hashing.encode import encode_key

        expected = encode_key(5)
        self._assert_no_scalar_fallback(monkeypatch)
        keys = encode_keys([np.int64(5)])
        assert keys.dtype == np.uint64
        assert keys[0] == np.uint64(expected)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32,
                                       np.int64, np.uint8, np.uint32])
    def test_all_integer_dtypes_agree_with_encode_key(self, dtype):
        from repro.hashing.encode import encode_key

        info = np.iinfo(dtype)
        values = np.asarray([info.min, -1 if info.min < 0 else 0, 0, 1,
                             info.max], dtype=dtype)
        keys = encode_keys(values)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [encode_key(int(v)) for v in values]

    def test_negative_ndarray_wraps_mod_2_64(self):
        keys = encode_keys(np.asarray([-1, -2], dtype=np.int64))
        assert keys.tolist() == [(1 << 64) - 1, (1 << 64) - 2]

    def test_uint64_ndarray_passthrough(self):
        arr = np.asarray([0, (1 << 64) - 1], dtype=np.uint64)
        assert encode_keys(arr) is arr

    def test_mixed_python_and_numpy_ints(self):
        from repro.hashing.encode import encode_key

        keys = encode_keys([1, np.int64(2), np.int32(-3)])
        assert keys.tolist() == [encode_key(1), encode_key(2),
                                 encode_key(-3)]

    def test_np_bool_not_conflated_with_fast_path(self):
        # np.bool_ is not an np.integer; it must encode like Python bool.
        keys = encode_keys([np.bool_(True), np.bool_(False)])
        assert keys.tolist() == [1, 0]

    def test_scalar_encoder_accepts_np_integer(self):
        from repro.hashing.encode import encode_key

        assert encode_key(np.int64(5)) == encode_key(5)
        assert encode_key(np.int64(-1)) == (1 << 64) - 1

    def test_sketch_updates_agree_across_key_representations(self):
        ints = VectorizedCountSketch(3, 64, seed=2)
        ints.update_batch([5, 6, 5])
        nps = VectorizedCountSketch(3, 64, seed=2)
        nps.update_batch(np.asarray([5, 6, 5], dtype=np.int32))
        assert ints == nps


class TestVectorizedRowHashes:
    def test_validation(self):
        with pytest.raises(ValueError):
            VectorizedRowHashes(0, 8)
        with pytest.raises(ValueError):
            VectorizedRowHashes(3, 0)

    def test_buckets_in_range(self):
        hashes = VectorizedRowHashes(3, 17, seed=1)
        keys = encode_keys(list(range(1000)))
        buckets, __ = hashes.positions_array(keys)
        for row in range(3):
            assert buckets[row].min() >= 0
            assert buckets[row].max() < 17

    def test_signs_plus_minus_one(self):
        hashes = VectorizedRowHashes(2, 8, seed=2)
        keys = encode_keys(list(range(1000)))
        signs = hashes.positions_array(keys)[1][0]
        assert set(np.unique(signs).tolist()) == {-1, 1}

    def test_signs_balanced(self):
        hashes = VectorizedRowHashes(1, 8, seed=3)
        keys = encode_keys(list(range(20_000)))
        assert abs(int(hashes.positions_array(keys)[1][0].sum())) < 900

    def test_bucket_distribution_uniform(self):
        hashes = VectorizedRowHashes(1, 16, seed=4)
        keys = encode_keys(list(range(32_000)))
        counts = np.bincount(hashes.positions_array(keys)[0][0], minlength=16)
        assert (np.abs(counts - 2000) < 6 * 2000**0.5).all()

    def test_deterministic(self):
        a = VectorizedRowHashes(2, 8, seed=5)
        b = VectorizedRowHashes(2, 8, seed=5)
        keys = encode_keys([10, 20, 30])
        assert np.array_equal(a.positions_array(keys)[0][1],
                              b.positions_array(keys)[0][1])
        assert a == b

    def test_different_seeds_differ(self):
        a = VectorizedRowHashes(2, 8, seed=5)
        b = VectorizedRowHashes(2, 8, seed=6)
        assert a != b

    def test_rows_are_independent_functions(self):
        hashes = VectorizedRowHashes(2, 64, seed=7)
        keys = encode_keys(list(range(500)))
        buckets, __ = hashes.positions_array(keys)
        assert not np.array_equal(buckets[0], buckets[1])


class TestVectorizedCountSketch:
    def test_single_item_roundtrip(self):
        sketch = VectorizedCountSketch(5, 64, seed=0)
        sketch.update("x", 7)
        assert sketch.estimate("x") == 7.0

    def test_batch_matches_item_at_a_time(self):
        items = ["a", "b", "a", "c", "b", "a"]
        batch = VectorizedCountSketch(3, 32, seed=1)
        batch.update_batch(items)
        single = VectorizedCountSketch(3, 32, seed=1)
        for item in items:
            single.update(item)
        assert batch == single

    def test_update_counts_matches_extend(self):
        items = ["a", "b", "a", "c"]
        a = VectorizedCountSketch(3, 32, seed=2)
        a.update_counts(Counter(items))
        b = VectorizedCountSketch(3, 32, seed=2)
        b.extend(items)
        assert a == b

    def test_weights_validation(self):
        sketch = VectorizedCountSketch(2, 16, seed=0)
        with pytest.raises(ValueError):
            sketch.update_batch([1, 2], weights=[1])

    def test_empty_batch_noop(self):
        sketch = VectorizedCountSketch(2, 16, seed=0)
        sketch.update_batch([])
        assert sketch.total_weight == 0
        assert len(sketch.estimate_batch([])) == 0

    def test_negative_weights_delete(self):
        sketch = VectorizedCountSketch(3, 32, seed=3)
        sketch.update_batch(["a", "b"], weights=[5, 3])
        sketch.update_batch(["a", "b"], weights=[-5, -3])
        assert not sketch.counters.any()

    def test_estimate_batch_matches_scalar_estimates(self):
        sketch = VectorizedCountSketch(5, 64, seed=4)
        sketch.update_batch(list(range(200)))
        queries = [0, 5, 50, 199]
        batch = sketch.estimate_batch(queries)
        for query, value in zip(queries, batch, strict=True):
            assert sketch.estimate(query) == value

    def test_accuracy_on_zipf(self, zipf_counts):
        sketch = VectorizedCountSketch(5, 512, seed=5)
        sketch.update_counts(zipf_counts)
        for item, count in zipf_counts.most_common(10):
            assert abs(sketch.estimate(item) - count) <= 0.1 * count + 5

    def test_accuracy_comparable_to_scalar_sketch(self, zipf_counts):
        """The multiply-shift family should not degrade accuracy
        measurably vs the polynomial family at equal dimensions."""
        scalar = CountSketch(5, 128, seed=6)
        scalar.update_counts(zipf_counts)
        vectorized = VectorizedCountSketch(5, 128, seed=6)
        vectorized.update_counts(zipf_counts)
        top = zipf_counts.most_common(50)

        def mean_error(sketch):
            return sum(
                abs(sketch.estimate(item) - count) for item, count in top
            ) / len(top)

        assert mean_error(vectorized) <= 3 * mean_error(scalar) + 5

    def test_linearity(self):
        a = VectorizedCountSketch(3, 32, seed=7)
        b = VectorizedCountSketch(3, 32, seed=7)
        a.update_batch(["x"] * 3)
        b.update_batch(["x", "y"])
        whole = VectorizedCountSketch(3, 32, seed=7)
        whole.update_batch(["x"] * 4 + ["y"])
        assert a + b == whole
        assert (whole - b) == a

    def test_merge(self):
        a = VectorizedCountSketch(3, 32, seed=8)
        b = VectorizedCountSketch(3, 32, seed=8)
        a.update("q", 2)
        b.update("q", 5)
        a.merge(b)
        assert a.estimate("q") == 7.0
        assert a.total_weight == 7

    def test_incompatible_rejected(self):
        with pytest.raises(ValueError):
            VectorizedCountSketch(3, 32, seed=8) + VectorizedCountSketch(
                3, 32, seed=9
            )
        with pytest.raises(TypeError):
            VectorizedCountSketch(3, 32).merge("nope")

    def test_cross_family_arithmetic_refused(self):
        # One class, two hash families: sketches add only when they
        # share hash functions, so equal (depth, width, seed) is not
        # enough across families.
        dense = CountSketch(3, 32, seed=4)
        vectorized = VectorizedCountSketch(3, 32, seed=4)
        for a, b in ((dense, vectorized), (vectorized, dense)):
            assert not a.compatible_with(b)
            assert a != b
            with pytest.raises(ValueError, match="not compatible"):
                a + b
            with pytest.raises(ValueError, match="not compatible"):
                a - b
            with pytest.raises(ValueError, match="not compatible"):
                a.merge(b)
        assert not TableSpec("t", kind="sketch").matches_summary(vectorized)
        assert not TableSpec("t", kind="vectorized").matches_summary(dense)

    def test_copy_independent(self):
        sketch = VectorizedCountSketch(2, 16, seed=0)
        sketch.update("a")
        clone = sketch.copy()
        clone.update("a")
        assert sketch.estimate("a") == 1.0
        assert clone.estimate("a") == 2.0

    def test_f2_estimate(self, zipf_counts, zipf_stats):
        sketch = VectorizedCountSketch(7, 1024, seed=9)
        sketch.update_counts(zipf_counts)
        true_f2 = zipf_stats.second_moment()
        assert abs(sketch.estimate_f2() - true_f2) < 0.15 * true_f2

    def test_counters_view_read_only(self):
        sketch = VectorizedCountSketch(2, 4)
        with pytest.raises(ValueError):
            sketch.counters[0, 0] = 1  # repro: noqa-RS002 — asserts refusal

    def test_space_accessors(self):
        sketch = VectorizedCountSketch(3, 32)
        assert sketch.counters_used() == 96
        assert sketch.items_stored() == 0

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(VectorizedCountSketch(2, 4))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=60),
           st.lists(st.integers(min_value=0, max_value=100), max_size=60))
    def test_linearity_property(self, items1, items2):
        a = VectorizedCountSketch(3, 16, seed=10)
        b = VectorizedCountSketch(3, 16, seed=10)
        a.update_batch(items1)
        b.update_batch(items2)
        whole = VectorizedCountSketch(3, 16, seed=10)
        whole.update_batch(items1 + items2)
        assert (a + b) == whole


class TestSerialization:
    def test_roundtrip_exact(self, zipf_counts):
        sketch = VectorizedCountSketch(3, 64, seed=11)
        sketch.update_counts(zipf_counts)
        state = sketch.state_dict()
        assert isinstance(state["counters"], np.ndarray)
        assert state["counters"].dtype == np.int64
        revived = VectorizedCountSketch.from_state_dict(state)
        assert revived == sketch
        assert revived.total_weight == sketch.total_weight
        assert revived.estimate(1) == sketch.estimate(1)

    def test_roundtrip_via_listified_counters(self, zipf_counts):
        # The nested-list (JSON-era) counter form must keep loading.
        sketch = VectorizedCountSketch(3, 64, seed=11)
        sketch.update_counts(zipf_counts)
        state = sketch.state_dict()
        state["counters"] = state["counters"].tolist()
        assert VectorizedCountSketch.from_state_dict(state) == sketch

    def test_from_state_dict_rejects_non_integral_counters(self):
        sketch = VectorizedCountSketch(2, 8, seed=0)
        state = sketch.state_dict()
        state["counters"] = state["counters"].astype(float) + 0.25
        import pytest as _pytest

        with _pytest.raises(ValueError, match="integral"):
            VectorizedCountSketch.from_state_dict(state)

    def test_shape_validation(self):
        sketch = VectorizedCountSketch(2, 8, seed=0)
        state = sketch.state_dict()
        state["counters"] = [[0] * 8]
        import pytest as _pytest

        with _pytest.raises(ValueError):
            VectorizedCountSketch.from_state_dict(state)

    def test_revived_sketch_still_merges(self):
        a = VectorizedCountSketch(3, 32, seed=12)
        b = VectorizedCountSketch(3, 32, seed=12)
        a.update("x", 3)
        b.update("x", 4)
        revived = VectorizedCountSketch.from_state_dict(a.state_dict())
        revived.merge(b)
        assert revived.estimate("x") == 7.0
