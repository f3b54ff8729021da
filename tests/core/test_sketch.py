"""Tests for the CountMin-Sketch estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import CountMinSketch
from tests.topk_helpers import error_bound, estimate, estimate_one


class TestConstruction:
    def test_width_rounded_to_power_of_two(self):
        cms = CountMinSketch(width=100, depth=4)
        assert cms.width == 128
        assert cms.num_counters == 4 * 128

    def test_state_is_six_fields(self):
        """Checkpoints pickle the sketch: an update keeps no scratch
        buffer on the instance."""
        cms = CountMinSketch(width=64, depth=4)
        cms.update_batch(np.arange(100, dtype=np.uint64))
        assert sorted(vars(cms)) == [
            "_mults", "_shift", "depth", "items_seen", "table", "width"]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch(width=16, depth=0)
        with pytest.raises(ValueError):
            CountMinSketch(width=16, depth=99)


class TestUpdateOne:
    def test_estimate_after_single_update(self):
        cms = CountMinSketch(width=1024, depth=4)
        assert cms.update_one(42) == 1
        assert estimate_one(cms, 42) == 1

    def test_estimates_grow_with_repeats(self):
        cms = CountMinSketch(width=1024, depth=4)
        for _ in range(10):
            est = cms.update_one(7)
        assert est == 10


class TestBatchUpdate:
    def test_batch_equals_sequential_state(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1000, 5000).astype(np.uint64)
        seq = CountMinSketch(width=256, depth=4)
        bat = CountMinSketch(width=256, depth=4)
        for k in keys.tolist():
            seq.update_one(k)
        bat.update_batch(keys)
        assert np.array_equal(seq.table, bat.table)

    def test_weighted_batch(self):
        cms = CountMinSketch(width=256, depth=4)
        cms.update_batch(np.array([5], dtype=np.uint64),
                         np.array([7], dtype=np.uint64))
        assert estimate_one(cms, 5) == 7
        assert cms.items_seen == 7

    def test_weights_shape_checked(self):
        cms = CountMinSketch(width=256, depth=4)
        with pytest.raises(ValueError):
            cms.update_batch(np.array([1, 2], dtype=np.uint64),
                             np.array([1], dtype=np.uint64))

    @pytest.mark.parametrize("weights", [[-1, 3], [2.0, -0.5]])
    def test_negative_weights_rejected(self, weights):
        """A signed -1 would wrap to 2**64 - 1 as uint64 and poison the
        table; it is refused before any counter moves."""
        cms = CountMinSketch(width=256, depth=4)
        with pytest.raises(ValueError, match="weights"):
            cms.update_batch(np.array([1, 2], dtype=np.uint64), np.array(weights))
        assert cms.table.sum() == 0
        assert cms.items_seen == 0

    def test_empty_batch_noop(self):
        cms = CountMinSketch(width=256, depth=4)
        cms.update_batch(np.array([], dtype=np.uint64))
        assert cms.items_seen == 0

    @pytest.mark.parametrize("depth", [1, 2, 4, 16])
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 4)), max_size=60),
        min_size=1, max_size=3))
    def test_returns_post_update_row_minimum(self, depth, chunks):
        """Repeated keys and weights, narrow rows: each returned estimate
        is the minimum of the key's hashed counters once the whole chunk
        is in, and the table matches one update_one per unit of weight."""
        cms = CountMinSketch(width=16, depth=depth)
        twin = CountMinSketch(width=16, depth=depth)
        for chunk in chunks:
            keys = np.array([key for key, _ in chunk], dtype=np.uint64)
            weights = np.array([w for _, w in chunk], dtype=np.uint64)
            got = cms.update_batch(keys, weights)
            for key, w in chunk:
                for _ in range(w):
                    twin.update_one(key)
            idx = cms._hash(keys)
            rows = [cms.table[row, idx[row]] for row in range(cms.depth)]
            assert got.dtype == np.uint64
            assert np.array_equal(got, np.minimum.reduce(rows))
            assert np.array_equal(got, estimate(twin, keys))
            assert np.array_equal(cms.table, twin.table)


class TestGuarantees:
    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=500))
    def test_never_underestimates(self, keys):
        """The CM-Sketch one-sided error guarantee."""
        cms = CountMinSketch(width=64, depth=4)
        cms.update_batch(np.array(keys, dtype=np.uint64))
        values, counts = np.unique(keys, return_counts=True)
        estimates = estimate(cms, values.astype(np.uint64))
        assert (estimates >= counts).all()

    def test_error_bounded_for_large_width(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 200, 20_000)
        cms = CountMinSketch(width=8192, depth=4)
        cms.update_batch(keys.astype(np.uint64))
        true = np.bincount(keys, minlength=200)
        ests = estimate(cms, np.arange(200, dtype=np.uint64))
        # With W >> cardinality, estimates should be near-exact.
        assert (ests.astype(np.int64) - true).max() <= error_bound(cms)

    def test_collisions_inflate_estimates_when_small(self):
        """The §7.1 observation: CM-Sketch 'severely suffers from hash
        collisions when N is small'."""
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 5000, 20_000)
        small = CountMinSketch(width=16, depth=4)
        small.update_batch(keys.astype(np.uint64))
        true = np.bincount(keys, minlength=5000)
        ests = estimate(small, np.arange(5000, dtype=np.uint64))
        assert (ests.astype(np.int64) - true).mean() > 10

    def test_rows_hash_independently(self):
        cms = CountMinSketch(width=1024, depth=4)
        idx = cms._hash(np.array([123456789], dtype=np.uint64))[:, 0]
        assert len(set(idx.tolist())) > 1


class TestReset:
    def test_reset_clears(self):
        cms = CountMinSketch(width=64, depth=2)
        cms.update_one(5)
        cms.reset()
        assert cms.table.sum() == 0
        assert cms.items_seen == 0
        assert estimate_one(cms, 5) == 0
