"""Tests for the ANB (hinting page fault) baseline."""

import numpy as np
import pytest

from repro.baselines.anb import (
    FAULT_COST_US,
    MAX_SCAN_PERIOD_S,
    AutoNumaBalancing,
)
from repro.memory.page_table import PageTable
from repro.memory.tiers import NodeKind, TieredMemory
from repro.memory.tlb import Tlb


def make(pages=64, ddr=16):
    mem = TieredMemory(ddr_pages=ddr, cxl_pages=pages, num_logical_pages=pages)
    mem.allocate_all(NodeKind.CXL)
    pt = PageTable(pages, tlb=Tlb(pages, capacity=pages, decay=0.0))
    return mem, AutoNumaBalancing(
        mem, page_table=pt, scan_window_pages=8, scan_period_s=1.0,
        adaptive=False, seed=0,
    )


class TestScanning:
    def test_scan_unmaps_window(self):
        _, anb = make()
        anb.observe(np.array([0]), now_s=0.0)
        assert anb.pages_unmapped == 8
        assert anb.scan_windows == 1

    def test_scan_cursor_advances(self):
        _, anb = make()
        anb.observe(np.array([0]), now_s=0.0)
        anb.observe(np.array([0]), now_s=1.0)
        assert anb.pages_unmapped == 16

    def test_multiple_due_windows_caught_up(self):
        _, anb = make()
        anb.observe(np.array([0]), now_s=3.5)
        assert anb.scan_windows == 4  # t=0,1,2,3

    def test_only_cxl_pages_unmapped(self):
        mem, anb = make()
        window0 = list(range(anb._scan_cursor, anb._scan_cursor + 8))
        on_ddr = window0[0] % mem.num_logical_pages
        mem.move_page(on_ddr, NodeKind.DDR)
        anb.observe(np.array([0]), now_s=0.0)
        assert anb.pages_unmapped == 7

    def test_scan_costs_charged(self):
        _, anb = make()
        anb.observe(np.array([0]), now_s=0.0)
        assert anb.costs.events.get("unmap", 0) > 0
        assert anb.costs.events.get("tlb_shootdown", 0) > 0


class TestFaultPromotion:
    def test_faulting_page_identified(self):
        _, anb = make()
        anb.observe(np.array([0]), now_s=0.0)  # unmap window
        window = np.nonzero(~anb.page_table.present)[0]
        anb.observe(window[:2], now_s=0.5)
        assert set(window[:2]) <= set(anb.hot_pages)
        assert anb.faults_handled == 2

    def test_untouched_unmapped_pages_not_identified(self):
        _, anb = make()
        anb.observe(np.array([0]), now_s=0.0)
        window = np.nonzero(~anb.page_table.present)[0]
        untouched = window[-1]
        anb.observe(window[:1], now_s=0.5)
        assert untouched not in anb.hot_pages

    def test_one_bit_of_recency(self):
        """Observation 1: a page touched once and a page touched 1000
        times after unmapping are indistinguishable to ANB."""
        _, anb = make()
        anb.observe(np.array([0]), now_s=0.0)
        window = np.nonzero(~anb.page_table.present)[0]
        warm, hot = window[0], window[1]
        anb.observe(np.concatenate([[warm], [hot] * 1000]), now_s=0.5)
        # Both identified, in page order — no intensity signal.
        assert warm in anb.hot_pages
        assert hot in anb.hot_pages

    def test_fault_cost_charged(self):
        _, anb = make()
        anb.observe(np.array([0]), now_s=0.0)
        window = np.nonzero(~anb.page_table.present)[0]
        anb.costs.begin_epoch()
        anb.observe(window[:3], now_s=0.5)
        assert anb.costs.events["hinting_fault"] == pytest.approx(
            3 * FAULT_COST_US
        )

    def test_two_touch_requires_second_fault(self):
        mem = TieredMemory(ddr_pages=16, cxl_pages=64, num_logical_pages=64)
        mem.allocate_all(NodeKind.CXL)
        pt = PageTable(64, tlb=Tlb(64, capacity=64, decay=0.0))
        anb = AutoNumaBalancing(
            mem, page_table=pt, scan_window_pages=64, scan_period_s=1.0,
            two_touch=True, adaptive=False, seed=0,
        )
        anb.observe(np.array([]), now_s=0.0)
        anb.observe(np.array([5]), now_s=0.1)  # first fault
        assert 5 not in anb.hot_pages
        anb.observe(np.array([]), now_s=1.0)   # re-unmap (window = all)
        anb.observe(np.array([5]), now_s=1.1)  # second fault
        assert 5 in anb.hot_pages


class TestAdaptivity:
    def test_period_backs_off_without_novelty(self):
        """§7.2: ANB rarely unmaps pages at equilibrium."""
        mem = TieredMemory(ddr_pages=16, cxl_pages=64, num_logical_pages=64)
        mem.allocate_all(NodeKind.CXL)
        anb = AutoNumaBalancing(mem, scan_window_pages=8, scan_period_s=1.0,
                                adaptive=True, seed=0)
        initial = anb.scan_period_s
        # Never touch anything: no faults, no novelty -> back off.
        for t in range(60):
            anb.observe(np.array([0]), now_s=float(t))
        assert anb.scan_period_s > initial
        assert anb.scan_period_s <= MAX_SCAN_PERIOD_S

    def test_migration_candidates_fifo(self):
        _, anb = make()
        anb.observe(np.array([0]), now_s=0.0)
        window = np.nonzero(~anb.page_table.present)[0]
        anb.observe(window, now_s=0.5)
        first = anb.migration_candidates(2)
        second = anb.migration_candidates(100)
        assert len(first) == 2
        assert not (set(first) & set(second))
