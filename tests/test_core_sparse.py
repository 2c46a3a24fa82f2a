"""Tests for the sparse-backed Count Sketch."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.countsketch import CountSketch
from repro.core.sparse import SparseCountSketch

ITEMS = st.one_of(
    st.integers(min_value=0, max_value=500),
    st.sampled_from(["x", "y", "z"]),
)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseCountSketch(0, 10)
        with pytest.raises(ValueError):
            SparseCountSketch(3, 0)

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
    def test_non_integral_count_refused(self, bad):
        sketch = SparseCountSketch(3, 16, seed=1)
        sketch.update("b", 2)
        with pytest.raises(ValueError, match="integral"):
            sketch.update("a", bad)
        with pytest.raises(TypeError):
            sketch.update("a", True)
        reference = CountSketch(3, 16, seed=1)
        reference.update("b", 2)
        assert sketch.to_dense() == reference
        assert sketch.total_weight == 2

    def test_integral_counts_of_other_types_become_ints(self):
        sketch = SparseCountSketch(3, 16, seed=1)
        sketch.update("a", 2.0)  # repro: noqa-RS005 — integral float count
        assert type(sketch.total_weight) is int
        assert sketch.estimate("a") == 2.0

    def test_roundtrip(self):
        sketch = SparseCountSketch(5, 1 << 16, seed=0)
        sketch.update("x", 9)
        assert sketch.estimate("x") == 9.0
        assert sketch.total_weight == 9

    def test_unseen_item_zero_ish(self):
        sketch = SparseCountSketch(5, 1 << 16, seed=0)
        sketch.update("x", 9)
        # With a huge width, an unseen item almost surely touches empty
        # buckets in a majority of rows.
        assert sketch.estimate("unseen") == 0.0

    def test_memory_scales_with_support_not_width(self):
        sketch = SparseCountSketch(5, 1 << 20, seed=1)
        for item in range(100):
            sketch.update(item)
        assert sketch.buckets_touched() <= 5 * 100
        assert sketch.counters_used() == sketch.buckets_touched()
        assert sketch.nominal_counters() == 5 * (1 << 20)

    def test_cancelled_buckets_are_freed(self):
        sketch = SparseCountSketch(3, 1 << 12, seed=2)
        sketch.update("x", 7)
        sketch.update("x", -7)
        assert sketch.buckets_touched() == 0
        assert sketch.estimate("x") == 0.0

    def test_update_counts_and_extend(self):
        a = SparseCountSketch(3, 64, seed=3)
        a.update_counts(Counter(["p", "q", "p"]))
        b = SparseCountSketch(3, 64, seed=3)
        b.extend(["p", "q", "p"])
        assert a == b

    def test_items_stored_zero(self):
        assert SparseCountSketch(2, 8).items_stored() == 0

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SparseCountSketch(2, 8))


class TestDenseEquivalence:
    """The headline property: identical estimates to the dense sketch."""

    def test_to_dense_equals_dense(self, zipf_counts):
        sparse = SparseCountSketch(5, 512, seed=4)
        sparse.update_counts(zipf_counts)
        dense = CountSketch(5, 512, seed=4)
        dense.update_counts(zipf_counts)
        assert sparse.to_dense() == dense

    def test_estimates_match_dense_exactly(self, zipf_counts):
        sparse = SparseCountSketch(5, 256, seed=5)
        dense = CountSketch(5, 256, seed=5)
        sparse.update_counts(zipf_counts)
        dense.update_counts(zipf_counts)
        for item in list(zipf_counts)[:100]:
            assert sparse.estimate(item) == dense.estimate(item)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(ITEMS, max_size=60))
    def test_equivalence_property(self, items):
        sparse = SparseCountSketch(3, 32, seed=6)
        dense = CountSketch(3, 32, seed=6)
        sparse.extend(items)
        dense.extend(items)
        assert sparse.to_dense() == dense
        for item in set(items):
            assert sparse.estimate(item) == dense.estimate(item)


class TestLinearity:
    def test_merge(self):
        a = SparseCountSketch(3, 64, seed=7)
        b = SparseCountSketch(3, 64, seed=7)
        a.update("x", 2)
        b.update("x", 3)
        a.merge(b)
        assert a.estimate("x") == 5.0
        assert a.total_weight == 5

    def test_add_and_subtract(self):
        a = SparseCountSketch(3, 64, seed=8)
        b = SparseCountSketch(3, 64, seed=8)
        a.update("x", 10)
        b.update("x", 4)
        assert (a + b).estimate("x") == 14.0
        assert (a - b).estimate("x") == 6.0

    def test_subtraction_frees_cancelled_buckets(self):
        a = SparseCountSketch(3, 64, seed=9)
        b = SparseCountSketch(3, 64, seed=9)
        a.extend(["m", "n"])
        b.extend(["m", "n"])
        assert (a - b).buckets_touched() == 0

    def test_incompatible_rejected(self):
        with pytest.raises(ValueError):
            SparseCountSketch(3, 64, seed=1).merge(
                SparseCountSketch(3, 64, seed=2)
            )
        with pytest.raises(TypeError):
            SparseCountSketch(3, 64).merge("nope")
        with pytest.raises(TypeError):
            SparseCountSketch(3, 64) - "nope"

    @settings(max_examples=25, deadline=None)
    @given(st.lists(ITEMS, max_size=40), st.lists(ITEMS, max_size=40))
    def test_linearity_property(self, items1, items2):
        a = SparseCountSketch(3, 32, seed=10)
        b = SparseCountSketch(3, 32, seed=10)
        a.extend(items1)
        b.extend(items2)
        whole = SparseCountSketch(3, 32, seed=10)
        whole.extend(items1 + items2)
        assert (a + b) == whole


class TestLemma5ScaleUseCase:
    def test_wide_sketch_is_cheap(self):
        """The motivating scenario: Lemma 5 demands b ~ 1e5, the stream
        has 2 000 distinct items — sparse memory stays ~ t·m."""
        from repro.streams.zipf import ZipfStreamGenerator

        stream = ZipfStreamGenerator(m=2_000, z=1.0, seed=11).generate(10_000)
        counts = stream.counts()
        sketch = SparseCountSketch(5, 131_072, seed=12)
        sketch.update_counts(counts)
        assert sketch.buckets_touched() <= 5 * len(counts)
        # And at this width estimates are essentially exact.
        for item, count in counts.most_common(20):
            assert abs(sketch.estimate(item) - count) <= 1


class TestParityWithConfidenceTools:
    def test_estimate_f2_matches_dense(self, zipf_counts):
        sparse = SparseCountSketch(5, 256, seed=13)
        dense = CountSketch(5, 256, seed=13)
        sparse.update_counts(zipf_counts)
        dense.update_counts(zipf_counts)
        assert sparse.estimate_f2() == dense.estimate_f2()

    def test_row_estimates_match_dense(self, zipf_counts):
        sparse = SparseCountSketch(5, 256, seed=14)
        dense = CountSketch(5, 256, seed=14)
        sparse.update_counts(zipf_counts)
        dense.update_counts(zipf_counts)
        assert sparse.row_estimates(1) == dense.row_estimates(1)

    def test_confidence_envelopes_work_on_sparse(self, zipf_counts):
        from repro.analysis.confidence import (
            estimate_with_f2_interval,
            estimate_with_spread_interval,
        )

        sparse = SparseCountSketch(5, 256, seed=15)
        sparse.update_counts(zipf_counts)
        interval = estimate_with_f2_interval(sparse, 1, multiplier=2.0)
        assert interval.low <= sparse.estimate(1) <= interval.high
        spread = estimate_with_spread_interval(sparse, 1)
        assert spread.estimate == sparse.estimate(1)
