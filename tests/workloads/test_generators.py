"""Tests for the benchmark generators and the registry."""

import numpy as np
import pytest

from repro.workloads import (
    MEMORY_INTENSIVE,
    SPARSITY_SET,
    TRACKER_SWEEP_SET,
    SyntheticWorkload,
    build,
    registry,
    spec_of,
    uniform_workload,
)
from repro.workloads.base import SyntheticParams, WorkloadSpec
from repro.workloads.wordmap import WordDensityProfile
from repro.workloads.zipf import uniform_popularity
from tests.sparsity_helpers import from_trace


class TestRegistry:
    def test_twelve_memory_intensive(self):
        assert len(MEMORY_INTENSIVE) == 12

    def test_sparsity_set_adds_kv_extras(self):
        assert set(SPARSITY_SET) - set(MEMORY_INTENSIVE) == {
            "memcached", "cachelib",
        }

    def test_tracker_sweep_set_matches_paper(self):
        """§7.1 traces: cactuBSSN, fotonik3d, liblinear, mcf,
        PageRank, roms."""
        assert set(TRACKER_SWEEP_SET) == {
            "cactubssn", "fotonik3d", "liblinear", "mcf", "pr", "roms",
        }

    def test_footprints_scale_with_paper_gb(self):
        # Table 3: tc is 5.0GB, bc is 6.9GB.
        assert spec_of("tc").footprint_pages < spec_of("bc").footprint_pages
        ratio = spec_of("bc").footprint_pages / spec_of("tc").footprint_pages
        assert ratio == pytest.approx(6.9 / 5.0, rel=0.01)

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            registry.build("doom")

    def test_redis_latency_sensitive(self):
        assert spec_of("redis").latency_sensitive
        assert not spec_of("mcf").latency_sensitive

    def test_capacities(self):
        assert registry.ddr_capacity_pages() == 3 * registry.PAGES_PER_GB
        assert registry.cxl_capacity_pages() == 8 * registry.PAGES_PER_GB

    def test_all_benchmarks_buildable(self):
        for name in registry.names():
            wl = build(name, seed=0)
            assert isinstance(wl, SyntheticWorkload)
            assert wl.spec.name == name


class TestTraceShape:
    @pytest.mark.parametrize("name", ["mcf", "redis", "pr", "bfs"])
    def test_addresses_within_footprint(self, name):
        wl = build(name, seed=0)
        pa = wl.trace(20_000)
        pages = pa >> np.uint64(12)
        assert int(pages.max()) < wl.spec.footprint_pages
        # 64B aligned:
        assert (pa & np.uint64(63) == 0).all()

    def test_chunks_cover_total(self):
        wl = build("mcf", seed=0)
        chunks = list(wl.chunks(10_000, chunk_size=3000))
        assert [len(c) for c in chunks] == [3000, 3000, 3000, 1000]

    def test_deterministic_per_seed(self):
        a = build("redis", seed=5).trace(5000)
        b = build("redis", seed=5).trace(5000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = build("redis", seed=5).trace(5000)
        b = build("redis", seed=6).trace(5000)
        assert not np.array_equal(a, b)

    def test_restart_reproduces(self):
        wl = build("roms", seed=3)
        a = wl.trace(5000)
        wl.restart()
        b = wl.trace(5000)
        assert np.array_equal(a, b)


class TestCalibratedSparsity:
    def test_redis_sparse_pages(self):
        """Figure 4: most Redis pages have ≤16 of 64 words accessed."""
        wl = build("redis", seed=0)
        assert (wl.active_word_counts <= 16).mean() == pytest.approx(
            0.86, abs=0.04
        )

    def test_spec_dense_pages(self):
        """Figure 4: SPEC (except roms) pages are ≥75% dense."""
        for name in ("mcf", "cactubssn", "fotonik3d"):
            wl = build(name, seed=0)
            dense = (wl.active_word_counts > 48).mean()
            assert dense > 0.85, name

    def test_pagerank_densest_gap_kernel(self):
        pr = build("pr", seed=0)
        bfs = build("bfs", seed=0)
        assert (pr.active_word_counts > 48).mean() > (
            bfs.active_word_counts > 48
        ).mean()

    def test_measured_sparsity_tracks_configuration(self):
        wl = build("redis", seed=1)
        prof = from_trace("redis", wl.trace(300_000))
        # Observed uniques can only undershoot the configured actives.
        assert prof.at(16) >= 0.80


class TestCalibratedSkew:
    def page_counts(self, name, n=400_000):
        wl = build(name, seed=0)
        pages = wl.trace(n) >> np.uint64(12)
        return np.bincount(pages.astype(np.int64),
                           minlength=wl.spec.footprint_pages)

    def test_liblinear_most_skewed(self):
        """Figure 10: Liblinear has the most skewed access CDF — its
        hottest 1% of pages (the model state) carry far more traffic
        than mcf's hottest 1%."""
        def top1_share(counts):
            c = np.sort(counts)[::-1].astype(float)
            k = max(1, len(c) // 100)
            return c[:k].sum() / c.sum()

        assert top1_share(self.page_counts("liblinear")) > 3 * top1_share(
            self.page_counts("mcf")
        )

    def test_mcf_flat(self):
        """mcf's *active* pages carry nearly even heat (the Figure 3
        'good case'); a cold tail of rarely-touched pages sits below."""
        counts = self.page_counts("mcf")
        active = counts[counts > np.quantile(counts, 0.65)]
        assert np.quantile(active, 0.99) / np.quantile(active, 0.5) < 3

    def test_roms_hot_tail(self):
        """§7.2: roms p99 page is an order of magnitude over p50."""
        counts = self.page_counts("roms")
        touched = counts[counts > 0]
        ratio = np.quantile(touched, 0.99) / np.quantile(touched, 0.5)
        assert ratio > 8


class TestSyntheticWorkloadValidation:
    def test_popularity_length_checked(self):
        spec = WorkloadSpec(name="x", footprint_pages=10)
        params = SyntheticParams(
            popularity=uniform_popularity(5),
            word_density=WordDensityProfile.dense(),
        )
        with pytest.raises(ValueError):
            SyntheticWorkload(spec, params)

    def test_uniform_workload_helper(self):
        wl = uniform_workload(footprint_pages=64, seed=1)
        pa = wl.trace(1000)
        assert (pa >> np.uint64(12)).max() < 64
