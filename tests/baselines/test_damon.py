"""Tests for the DAMON baseline."""

import numpy as np
import pytest

from repro.baselines.damon import Damon
from repro.memory.tiers import NodeKind, TieredMemory


def make(pages=1000, **kwargs):
    mem = TieredMemory(ddr_pages=200, cxl_pages=pages, num_logical_pages=pages)
    mem.allocate_all(NodeKind.CXL)
    defaults = dict(
        sampling_interval_s=0.005,
        aggregation_interval_s=0.1,
        min_nr_regions=10,
        seed=0,
    )
    defaults.update(kwargs)
    return mem, Damon(mem, **defaults)


def run_epochs(damon, pages, epochs=5, epoch_s=0.5):
    now = 0.0
    for _ in range(epochs):
        damon.observe(pages, now_s=now, epoch_s=epoch_s)
        now += epoch_s


def assert_tiles(damon, num_pages):
    """The regions cover [0, num_pages) contiguously, in order, with
    the three region arrays index-aligned."""
    assert damon.starts.size == damon.ends.size == damon._nr_accesses.size
    assert damon.starts[0] == 0
    assert damon.ends[-1] == num_pages
    assert np.array_equal(damon.starts[1:], damon.ends[:-1])
    assert (damon.ends > damon.starts).all()


class TestRegions:
    def test_initial_region_cover(self):
        _, damon = make()
        assert damon.starts.size == 10
        assert_tiles(damon, 1000)

    def test_regions_stay_contiguous_through_merge_split(self):
        _, damon = make()
        pages = np.arange(1000)
        run_epochs(damon, pages, epochs=6)
        assert_tiles(damon, 1000)

    def test_region_count_bounded(self):
        _, damon = make(max_nr_regions=40)
        rng = np.random.default_rng(0)
        run_epochs(damon, rng.integers(0, 1000, 5000), epochs=10)
        assert 10 <= damon.starts.size <= 40


class TestSamplingAndPromotion:
    def test_hot_region_identified(self):
        _, damon = make()
        # Pages 0..99 extremely hot, everything else untouched.
        hot = np.tile(np.arange(100), 200)
        run_epochs(damon, hot, epochs=5)
        assert damon.aggregations >= 1
        assert damon.hot_pages
        hot_set = set(damon.hot_pages)
        # Identified pages are dominated by the hot region's pages
        # (region blur may pull in some neighbours).
        inside = sum(1 for p in hot_set if p < 150)
        assert inside / len(hot_set) > 0.5

    def test_idle_workload_promotes_nothing(self):
        _, damon = make()
        run_epochs(damon, np.array([0]), epochs=5)
        # One cold access: regions never reach the threshold.
        assert len(damon.hot_pages) <= 110  # at most one region's worth

    def test_region_blur_includes_warm_neighbours(self):
        """Observation 1: whole regions are promoted, so warm pages
        ride along with hot ones."""
        _, damon = make(min_nr_regions=10, max_nr_regions=10)
        # One very hot page inside an otherwise idle region.
        hot = np.tile(np.arange(60, 64), 500)
        run_epochs(damon, hot, epochs=6)
        identified = set(damon.hot_pages)
        warm_neighbours = identified - set(range(60, 64))
        assert warm_neighbours  # the blur is real

    def test_sampling_costs_charged_continuously(self):
        """§7.2: DAMON keeps scanning even with nothing to find."""
        _, damon = make()
        run_epochs(damon, np.array([0]), epochs=5)
        assert damon.costs.events["pte_sample"] > 0
        assert damon.samples_taken > 0

    def test_quota_bounds_promotions_per_aggregation(self):
        _, damon = make(quota_pages=16, min_nr_regions=10, max_nr_regions=10)
        hot = np.tile(np.arange(500), 40)
        damon.observe(hot, now_s=0.0, epoch_s=0.15)
        assert len(damon.hot_pages) <= 16

    def test_only_cxl_pages_promoted(self):
        mem, damon = make()
        for p in range(100):
            mem.move_page(p, NodeKind.DDR)
        hot = np.tile(np.arange(100), 100)  # hot pages all on DDR
        run_epochs(damon, hot, epochs=5)
        assert all(mem.node_of_page(p) is NodeKind.CXL for p in damon.hot_pages)


class TestAccessScale:
    def test_access_scale_raises_bit_probability(self):
        _, slow = make(access_scale=1.0)
        _, fast = make(access_scale=64.0)
        lukewarm = np.tile(np.arange(1000), 3)
        run_epochs(slow, lukewarm, epochs=6)
        run_epochs(fast, lukewarm, epochs=6)
        # Same sampling cadence, but the scaled rate sets many more
        # access bits, so the scaled instance identifies more pages.
        assert len(fast.hot_pages) > len(slow.hot_pages)


class TestValidation:
    def test_rejects_bad_intervals(self):
        mem = TieredMemory(ddr_pages=4, cxl_pages=16, num_logical_pages=8)
        mem.allocate_all(NodeKind.CXL)
        with pytest.raises(ValueError):
            Damon(mem, sampling_interval_s=0)
        with pytest.raises(ValueError):
            Damon(mem, min_nr_regions=1)
