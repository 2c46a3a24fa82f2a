"""Rigorous statistical tests of the hash families (chi-squared / binomial
via scipy).

The sketch guarantees rest on the hash families behaving like their
idealized models: uniform bucket marginals, balanced signs, vanishing
pair correlations.  These tests quantify each with a proper hypothesis
test at fixed seeds (deterministic, so no flakiness) and generous
significance levels — a corrupted family constant or biased reduction
shows up as an astronomically small p-value, not a borderline one.
"""

import numpy as np
from scipy import stats

from repro.hashing.bucket import BucketHashFamily
from repro.hashing.mersenne import KWiseFamily
from repro.hashing.multiply_shift import MultiplyShiftFamily
from repro.hashing.sign import SignHashFamily
from repro.hashing.tabulation import TabulationFamily
from repro.hashing.vectorized import VectorizedRowHashes, encode_keys

ALPHA = 1e-6  # reject only on overwhelming evidence; tests are seeded


def chi2_uniform_pvalue(values, bins):
    counts = np.bincount(values, minlength=bins)
    return stats.chisquare(counts).pvalue


class TestBucketUniformity:
    KEYS = list(range(40_000))

    def bucket_values(self, family, bins):
        h = BucketHashFamily(family, bins).draw(1)[0]
        return [h(key) for key in self.KEYS]

    def test_polynomial_buckets_uniform(self):
        values = self.bucket_values(KWiseFamily(seed=101), 32)
        assert chi2_uniform_pvalue(values, 32) > ALPHA

    def test_tabulation_buckets_uniform(self):
        values = self.bucket_values(TabulationFamily(seed=102), 32)
        assert chi2_uniform_pvalue(values, 32) > ALPHA

    def test_multiply_shift_buckets_uniform(self):
        h = MultiplyShiftFamily(out_bits=5, seed=103).draw(1)[0]
        values = [h(key) for key in self.KEYS]
        assert chi2_uniform_pvalue(values, 32) > ALPHA

    def test_vectorized_buckets_uniform(self):
        rows = VectorizedRowHashes(1, 32, seed=104)
        values = rows.positions_array(encode_keys(self.KEYS))[0][0]
        assert chi2_uniform_pvalue(values, 32) > ALPHA

    def test_string_keys_uniform(self):
        """The canonical encoder + bucket hash keeps string keys uniform."""
        from repro.hashing.encode import encode_key

        h = BucketHashFamily(KWiseFamily(seed=105), 32).draw(1)[0]
        values = [h(encode_key(f"query-{i}")) for i in range(40_000)]
        assert chi2_uniform_pvalue(values, 32) > ALPHA


class TestSignBalance:
    def test_sign_marginal_fair(self):
        s = SignHashFamily(KWiseFamily(seed=106)).draw(1)[0]
        positives = sum(1 for key in range(40_000) if s(key) == 1)
        p = stats.binomtest(positives, 40_000, 0.5).pvalue
        assert p > ALPHA

    def test_vectorized_sign_marginal_fair(self):
        rows = VectorizedRowHashes(1, 8, seed=107)
        signs = rows.positions_array(encode_keys(list(range(40_000))))[1][0]
        positives = int((signs == 1).sum())
        assert stats.binomtest(positives, 40_000, 0.5).pvalue > ALPHA

    def test_pairwise_products_centered(self):
        """E[s(x)s(y)] = 0 over the family for fixed x != y: the product
        over many drawn functions behaves like fair +-1 coins."""
        functions = SignHashFamily(KWiseFamily(seed=108)).draw(8_000)
        agreements = sum(1 for s in functions if s(123) == s(456))
        assert stats.binomtest(agreements, 8_000, 0.5).pvalue > ALPHA


class TestJointBucketIndependence:
    def test_two_point_joint_uniform(self):
        """(h(x), h(y)) over drawn 2-wise functions is uniform on the
        b x b grid — the literal pairwise-independence property."""
        bins = 4
        family = BucketHashFamily(KWiseFamily(seed=109), bins)
        joint = np.zeros((bins, bins), dtype=np.int64)
        for h in family.draw(16_000):
            joint[h(777), h(888)] += 1
        p = stats.chisquare(joint.reshape(-1)).pvalue
        assert p > ALPHA

    def test_bucket_sign_independence(self):
        """The bucket and sign hashes of the default sketch construction
        are derived from disjoint salted streams: jointly uniform."""
        bins = 4
        buckets = BucketHashFamily(
            KWiseFamily(seed=110, salt="buckets"), bins
        ).draw(12_000)
        signs = SignHashFamily(KWiseFamily(seed=110, salt="signs")).draw(
            12_000
        )
        joint = np.zeros((bins, 2), dtype=np.int64)
        for h, s in zip(buckets, signs, strict=True):
            joint[h(999), (s(999) + 1) // 2] += 1
        assert stats.chisquare(joint.reshape(-1)).pvalue > ALPHA


class TestCollisionRates:
    def test_pairwise_collision_probability_near_1_over_b(self):
        """P[h(x) = h(y)] ≈ 1/b over the family."""
        bins = 16
        family = BucketHashFamily(KWiseFamily(seed=111), bins)
        collisions = sum(
            1 for h in family.draw(32_000) if h(31337) == h(271828)
        )
        p = stats.binomtest(collisions, 32_000, 1 / bins).pvalue
        assert p > ALPHA

    def test_distinct_keys_spread_across_rows(self):
        """Within one function, empirical collision rate over random key
        pairs matches 1/b."""
        bins = 64
        h = BucketHashFamily(KWiseFamily(seed=112), bins).draw(1)[0]
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 2**62, size=(20_000, 2))
        collisions = sum(
            1 for x, y in pairs if x != y and h(int(x)) == h(int(y))
        )
        assert stats.binomtest(collisions, 20_000, 1 / bins).pvalue > ALPHA
