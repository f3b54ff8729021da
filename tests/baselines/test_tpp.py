"""Tests for the TPP baseline."""

import numpy as np
import pytest

from repro.baselines.tpp import Tpp
from repro.memory.page_table import PageTable
from repro.memory.tiers import NodeKind, TieredMemory
from repro.memory.tlb import Tlb


def make(pages=64, ddr=16, **kw):
    mem = TieredMemory(ddr_pages=ddr, cxl_pages=pages, num_logical_pages=pages)
    mem.allocate_all(NodeKind.CXL)
    pt = PageTable(pages, tlb=Tlb(pages, capacity=pages, decay=0.0))
    defaults = dict(scan_window_pages=64, scan_period_s=1.0, seed=0,
                    refault_window_s=2.0, promotion_rate_pages_s=1000.0)
    defaults.update(kw)
    return mem, Tpp(mem, page_table=pt, **defaults)


class TestTwoTouch:
    def test_cold_first_fault_not_promoted(self):
        _, tpp = make()
        tpp.observe(np.array([]), now_s=0.0)      # unmap all
        tpp.observe(np.array([5]), now_s=10.0)    # idle page faults
        assert 5 not in tpp.hot_pages

    def test_active_page_fault_promoted(self):
        _, tpp = make()
        tpp.observe(np.array([5]), now_s=0.0)     # page is active
        tpp.observe(np.array([]), now_s=1.0)      # unmap all
        tpp.observe(np.array([5]), now_s=1.5)     # fault on active page
        assert 5 in tpp.hot_pages
        assert tpp.refault_promotions == 1

    def test_stale_activity_not_promoted(self):
        _, tpp = make(refault_window_s=0.5)
        tpp.observe(np.array([5]), now_s=0.0)     # active long ago
        tpp.observe(np.array([]), now_s=10.0)     # unmap all
        tpp.observe(np.array([5]), now_s=10.3)    # fault, activity stale
        assert 5 not in tpp.hot_pages


class TestRateLimit:
    def test_promotions_bounded_by_budget(self):
        _, tpp = make(promotion_rate_pages_s=2.0)
        tpp.observe(np.arange(32), now_s=0.0)      # pages active
        tpp.observe(np.array([]), now_s=1.0)       # unmap all
        tpp.observe(np.arange(32), now_s=1.5)      # 32 active faults, budget ~4
        assert 0 < len(tpp.hot_pages) <= 5


class TestWatermarks:
    def test_demotion_candidates_when_below_watermark(self):
        mem, tpp = make(ddr=10, demotion_watermark=0.2)
        # Fill DDR completely.
        for p in range(10):
            mem.move_page(p, NodeKind.DDR)
        assert tpp.demotion_candidates() == 2

    def test_no_demotion_needed_with_headroom(self):
        _, tpp = make(ddr=10, demotion_watermark=0.2)
        assert tpp.demotion_candidates() == 0


class TestValidation:
    def test_rejects_bad_parameters(self):
        mem = TieredMemory(ddr_pages=4, cxl_pages=8, num_logical_pages=8)
        mem.allocate_all(NodeKind.CXL)
        with pytest.raises(ValueError):
            Tpp(mem, demotion_watermark=1.5)
        with pytest.raises(ValueError):
            Tpp(mem, promotion_rate_pages_s=0)


class TestEngineIntegration:
    def test_tpp_policy_runs_end_to_end(self):
        from repro.sim import SimConfig, run_policy
        from repro.workloads import build

        cfg = SimConfig(total_accesses=200_000, chunk_size=50_000,
                        ddr_pages=1024, checkpoints=1)
        result = run_policy(build("mcf", seed=0), "tpp", cfg)
        assert result.policy == "tpp"
        assert result.promoted > 0
        # Watermark keeps headroom: DDR never packed solid.
        assert result.nr_pages_ddr <= 1024
