"""Tests for the LLC models."""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache


class TestSetAssociativeCache:
    def test_first_access_misses_second_hits(self):
        c = SetAssociativeCache(capacity_bytes=64 * 16, ways=4)
        assert not c.access_line(5)
        assert c.access_line(5)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction_within_set(self):
        # 1 set, 2 ways: lines mapping to set 0 compete.
        c = SetAssociativeCache(capacity_bytes=64 * 2, ways=2)
        assert c.num_sets == 1
        c.access_line(0)
        c.access_line(1)
        c.access_line(0)     # 0 most recent
        c.access_line(2)     # evicts 1 (LRU)
        assert c.access_line(0)
        assert not c.access_line(1)

    def test_filter_returns_misses_in_order(self):
        c = SetAssociativeCache(capacity_bytes=64 * 64, ways=4)
        pa = np.array([0, 64, 0, 128], dtype=np.uint64)
        out = c.filter(pa)
        assert list(out) == [0, 64, 128]

    def test_filter_empty_input(self):
        c = SetAssociativeCache(capacity_bytes=64 * 8, ways=2)
        assert c.filter(np.array([], dtype=np.uint64)).size == 0
        assert c.hits == c.misses == 0

    def test_filter_keeps_the_first_miss_of_every_line(self):
        # A cold cache passes each distinct line through at least once.
        c = SetAssociativeCache(capacity_bytes=64 * 1024, ways=8)
        pa = np.arange(100, dtype=np.uint64) << np.uint64(6)
        out = c.filter(np.concatenate([pa, pa]))
        assert len(np.unique(out)) == 100

    def test_hot_line_filtered_hardest(self):
        hot = np.zeros(10_000, dtype=np.uint64)
        cold = (np.arange(10_000, dtype=np.uint64) + 1000) << np.uint64(6)
        out_hot = SetAssociativeCache(capacity_bytes=64 * 64, ways=8).filter(hot)
        out_cold = SetAssociativeCache(capacity_bytes=64 * 64, ways=8).filter(cold)
        assert len(out_hot) == 1
        assert len(out_cold) == cold.size

    def test_cat_way_mask_shrinks_capacity(self):
        full = SetAssociativeCache(capacity_bytes=64 * 150, ways=15)
        cat = SetAssociativeCache(capacity_bytes=64 * 150, ways=15,
                                  allocated_ways=5)
        assert cat.effective_lines == full.effective_lines // 3

    def test_smaller_cache_misses_more(self):
        rng = np.random.default_rng(0)
        pa = (rng.integers(0, 512, 4000).astype(np.uint64)) << np.uint64(6)
        big = SetAssociativeCache(capacity_bytes=64 * 512, ways=8)
        small = SetAssociativeCache(capacity_bytes=64 * 32, ways=8)
        big.filter(pa.copy())
        small.filter(pa.copy())
        assert small.hit_rate < big.hit_rate

    def test_flush_and_reset(self):
        c = SetAssociativeCache(capacity_bytes=64 * 16, ways=4)
        c.access_line(1)
        c.flush()
        assert not c.access_line(1)
        c.reset_stats()
        assert c.hits == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0)
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, line_bytes=100)
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, ways=4, allocated_ways=8)

    def test_hit_rate_zero_initially(self):
        c = SetAssociativeCache(1024)
        assert c.hit_rate == 0.0

