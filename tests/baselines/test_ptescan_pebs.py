"""Tests for the PTE-scan and PEBS-sampling baselines."""

import numpy as np
import pytest

from repro.baselines.base import NoMigration
from repro.baselines.pebs import PebsSampler
from repro.baselines.ptescan import PteScanner
from repro.memory.page_table import PageTable
from repro.memory.tiers import NodeKind, TieredMemory
from repro.memory.tlb import Tlb


def memory(pages=128):
    mem = TieredMemory(ddr_pages=32, cxl_pages=pages, num_logical_pages=pages)
    mem.allocate_all(NodeKind.CXL)
    return mem


class TestPteScanner:
    def make(self, pages=128, **kw):
        mem = memory(pages)
        pt = PageTable(pages, tlb=Tlb(pages, capacity=4, decay=1.0))
        defaults = dict(scan_period_s=1.0, hot_epochs=2, window_epochs=4)
        defaults.update(kw)
        return mem, PteScanner(mem, page_table=pt, **defaults)

    def test_persistent_pages_identified(self):
        _, scanner = self.make()
        for t in range(1, 5):
            scanner.observe(np.array([7, 9]), now_s=float(t))
        assert {7, 9} <= set(scanner.hot_pages)

    def test_one_epoch_pages_not_identified(self):
        _, scanner = self.make()
        scanner.observe(np.array([7]), now_s=1.0)
        scanner.observe(np.array([50]), now_s=2.0)
        assert 7 not in scanner.hot_pages

    def test_intensity_blind(self):
        """The access bit is Boolean: 1000 touches look like 1."""
        _, scanner = self.make()
        for t in range(1, 4):
            scanner.observe(np.array([7] * 1000 + [9]), now_s=float(t))
        assert 7 in scanner.hot_pages
        assert 9 in scanner.hot_pages

    def test_scan_cost_proportional_to_footprint(self):
        _, small = self.make(pages=128)
        mem_l = memory(1024)
        large = PteScanner(mem_l, scan_period_s=1.0)
        small.observe(np.array([0]), now_s=1.0)
        large.observe(np.array([0]), now_s=1.0)
        assert sum(large.costs.events.values()) > sum(small.costs.events.values())

    def test_window_resets(self):
        _, scanner = self.make(hot_epochs=2, window_epochs=2)
        scanner.observe(np.array([7]), now_s=1.0)
        scanner.observe(np.array([7]), now_s=2.0)
        assert scanner._epochs_in_window == 0  # window rolled over

    def test_validation(self):
        mem = memory(16)
        with pytest.raises(ValueError):
            PteScanner(mem, hot_epochs=0)
        with pytest.raises(ValueError):
            PteScanner(mem, hot_epochs=5, window_epochs=2)


class TestPebsSampler:
    def make(self, **kw):
        mem = memory(256)
        defaults = dict(sample_period=10, buffer_records=64,
                        hot_threshold=3, seed=0)
        defaults.update(kw)
        return mem, PebsSampler(mem, **defaults)

    def test_hot_pages_found_by_sampling(self):
        _, pebs = self.make()
        rng = np.random.default_rng(1)
        stream = np.concatenate([np.full(5000, 7), rng.integers(0, 256, 5000)])
        rng.shuffle(stream)
        pebs.observe(stream, now_s=0.0)
        assert 7 in pebs.hot_pages

    def test_sampling_rate_thins_stream(self):
        _, pebs = self.make(sample_period=100)
        pebs.observe(np.zeros(10_000, dtype=np.int64), now_s=0.0)
        assert 50 < pebs.samples_taken < 200

    def test_interrupt_cost_scales_with_rate(self):
        _, aggressive = self.make(sample_period=10)
        _, relaxed = self.make(sample_period=1000)
        stream = np.arange(20_000) % 256
        aggressive.observe(stream, now_s=0.0)
        relaxed.observe(stream, now_s=0.0)
        assert (sum(aggressive.costs.events.values())
                > sum(relaxed.costs.events.values()))
        assert aggressive.interrupts > relaxed.interrupts

    def test_cooling_halves_counts(self):
        _, pebs = self.make(cooling_interval_s=0.5)
        pebs.observe(np.full(1000, 5), now_s=0.0)
        before = pebs._sample_counts[5]
        pebs.observe(np.array([0]), now_s=1.0)
        assert pebs._sample_counts[5] == before // 2

    def test_validation(self):
        mem = memory(16)
        with pytest.raises(ValueError):
            PebsSampler(mem, sample_period=0)


class TestNoMigration:
    def test_never_identifies(self):
        mem = memory(64)
        none = NoMigration(mem)
        none.observe(np.arange(64), now_s=0.0)
        assert not none.hot_pages
        assert none.epoch_overhead_us == 0.0

    def test_cost_scale_applies(self):
        mem = memory(64)
        policy = NoMigration(mem)
        policy.costs.scale = 256.0
        policy.costs.charge(1.0, "x")
        assert sum(policy.costs.events.values()) == 256.0
