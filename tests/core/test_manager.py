"""Tests for M5-manager: Monitor, Nominator, Elector, Promoter."""

import numpy as np
import pytest

from repro.core.manager import (
    HPT_DRIVEN,
    HPT_ONLY,
    HWT_DRIVEN,
    Elector,
    M5Manager,
    Monitor,
    MonitorSample,
    Nominator,
    Promoter,
    exp_fscale,
    power_fscale,
)
from repro.core.manager.promoter import PROC_FILE_CAPACITY, ProcFile
from repro.core.trackers import make_hpt, make_hwt
from repro.memory.migration import MigrationEngine, PinReason
from repro.memory.tiers import NodeKind, TieredMemory
from repro.sim import SimConfig


def sample(nd=10, nc=10, bd=1000.0, bc=1000.0):
    return MonitorSample(nr_pages_ddr=nd, nr_pages_cxl=nc, bw_ddr=bd, bw_cxl=bc)


class TestMonitorSample:
    def test_bw_tot(self):
        assert sample(bd=3.0, bc=4.0).bw_tot == 7.0

    def test_bw_den(self):
        s = sample(nd=2, nc=4, bd=10.0, bc=10.0)
        assert s.bw_den(NodeKind.DDR) == 5.0
        assert s.bw_den(NodeKind.CXL) == 2.5

    def test_bw_den_empty_node(self):
        s = sample(nd=0, bd=0.0)
        assert s.bw_den(NodeKind.DDR) == 0.0

    def test_rel_bw_den(self):
        s = sample(nd=2, nc=4, bd=10.0, bc=10.0)
        assert s.rel_bw_den(NodeKind.DDR) == pytest.approx(5.0 / 20.0)

    def test_bw_den_ratio_cold_start_infinite(self):
        s = sample(nd=0, bd=0.0, nc=4, bc=10.0)
        assert s.bw_den_ratio() == float("inf")

    def test_bw_den_ratio_idle_is_one(self):
        s = sample(nd=0, bd=0.0, nc=4, bc=0.0)
        assert s.bw_den_ratio() == 1.0


class TestMonitor:
    def test_sample_reads_memory(self, tiered):
        mon = Monitor(tiered)
        tiered.begin_epoch(1.0)
        tiered.record_epoch_accesses(np.array([0, 1]))
        s = mon.sample()
        assert s.nr_pages_cxl == 32
        assert s.bw_cxl == pytest.approx(128.0)
        assert mon.bw(NodeKind.CXL) == s.bw_cxl

    def test_last_requires_history(self, tiered):
        mon = Monitor(tiered)
        with pytest.raises(RuntimeError):
            _ = mon.last


class TestFscale:
    def test_power_monotone(self):
        f = power_fscale(4.0)
        assert f(2.0) > f(1.0) > f(0.5)
        assert f(2.0) == pytest.approx(16.0)

    def test_power_edge_cases(self):
        f = power_fscale(3.0)
        assert f(0.0) == 0.0
        assert f(float("inf")) == float("inf")

    def test_exp_scale(self):
        f = exp_fscale(2.0)
        assert f(1.0) == pytest.approx(2.0 * np.e)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_fscale(0)
        with pytest.raises(ValueError):
            exp_fscale(-1)


class TestElector:
    def test_first_step_migrates(self):
        e = Elector()
        d = e.step(0.0, sample())
        assert d is not None and d.migrate

    def test_not_due_returns_none(self):
        e = Elector(f_default=1.0)
        e.step(0.0, sample())
        assert e.step(1e-9, sample()) is None

    def test_migrates_when_rel_bw_den_rises(self):
        e = Elector(min_period_s=0.0 + 1e-6)
        e.step(0.0, sample(bd=10.0, bc=100.0))
        d = e.step(100.0, sample(bd=50.0, bc=60.0))
        assert d.migrate  # DDR's share rose

    def test_skips_when_rel_bw_den_falls(self):
        e = Elector()
        e.step(0.0, sample(bd=100.0, bc=10.0))
        # DDR's share fell AND DDR is already the denser node
        # (bw_den_ratio < 1), so neither Guideline fires.
        d = e.step(100.0, sample(bd=90.0, bc=20.0))
        assert not d.migrate

    def test_guideline1_overrides_flat_rel(self):
        """Guideline 1: keep migrating while CXL is denser, even when
        rel_bw_den(DDR) did not rise."""
        e = Elector()
        e.step(0.0, sample(bd=10.0, bc=100.0))
        d = e.step(100.0, sample(bd=10.0, bc=100.0))  # rel flat, ratio 10
        assert d.migrate

    def test_period_scales_with_bw_den_ratio(self):
        """Guideline 1: hotter CXL -> faster migration."""
        e = Elector(f_default=1.0, fscale=power_fscale(2.0),
                    min_period_s=1e-4, max_period_s=100.0)
        hot_cxl = sample(nd=10, nc=10, bd=10.0, bc=100.0)   # ratio 10
        cold_cxl = sample(nd=10, nc=10, bd=100.0, bc=10.0)  # ratio 0.1
        assert e.period_for(hot_cxl) < e.period_for(cold_cxl)

    def test_period_clamped(self):
        e = Elector(min_period_s=0.5, max_period_s=2.0)
        assert e.period_for(sample(nd=0, bd=0.0)) == 0.5   # inf ratio
        assert e.period_for(sample(bd=1e12, bc=0.0)) == 2.0

    def test_reset(self):
        e = Elector()
        e.step(0.0, sample())
        e.reset()
        assert e.evaluations == 0
        assert e.due(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Elector(f_default=0)
        with pytest.raises(ValueError):
            Elector(min_period_s=2.0, max_period_s=1.0)


class TestNominatorHptOnly:
    def test_nominates_hpt_pages_by_count(self):
        nom = Nominator(HPT_ONLY)
        nom.update_from_hpt([(10, 5), (20, 9)])
        result = nom.nominate()
        assert result.pfns == [20, 10]

    def test_hwt_input_ignored(self):
        nom = Nominator(HPT_ONLY)
        nom.update_from_hwt([(10 * 64 + 3, 7)])
        assert nom.nominate().pfns == []

    def test_nominate_consumes_state(self):
        nom = Nominator(HPT_ONLY)
        nom.update_from_hpt([(10, 5)])
        nom.nominate()
        assert nom.nominate().pfns == []

    def test_limit(self):
        nom = Nominator(HPT_ONLY)
        nom.update_from_hpt([(1, 5), (2, 9), (3, 7)])
        assert len(nom.nominate(limit=2).pfns) == 2

    def test_repeat_updates_keep_max_count(self):
        nom = Nominator(HPT_ONLY)
        nom.update_from_hpt([(1, 5)])
        nom.update_from_hpt([(1, 3)])
        assert nom.hpa[1].count == 5


class TestNominatorHptDriven:
    def test_mask_bits_set_from_hot_words(self):
        nom = Nominator(HPT_DRIVEN)
        nom.update_from_hpt([(10, 5)])
        line = 10 * 64 + 7
        nom.update_from_hwt([(line, 3)])
        assert nom.hpa[10].mask == (1 << 7)
        assert nom.density_of(10) == 1

    def test_words_of_unknown_page_dropped(self):
        nom = Nominator(HPT_DRIVEN)
        nom.update_from_hwt([(99 * 64, 3)])
        assert 99 not in nom.hpa

    def test_dense_pages_rank_first(self):
        """Guideline 3: prefer dense hot pages at similar hotness."""
        nom = Nominator(HPT_DRIVEN, min_hot_words=2)
        nom.update_from_hpt([(1, 10), (2, 10)])
        nom.update_from_hwt([(2 * 64 + w, 1) for w in range(4)])
        result = nom.nominate()
        assert result.pfns[0] == 2

    def test_requires_valid_min_words(self):
        with pytest.raises(ValueError):
            Nominator(HPT_DRIVEN, min_hot_words=100)


class TestNominatorHwtDriven:
    def test_builds_hpa_from_words_alone(self):
        nom = Nominator(HWT_DRIVEN)
        nom.update_from_hwt([(5 * 64 + 1, 4), (5 * 64 + 2, 3), (9 * 64, 1)])
        result = nom.nominate()
        assert result.pfns[0] == 5
        assert set(result.pfns) == {5, 9}

    def test_hpt_input_ignored(self):
        nom = Nominator(HWT_DRIVEN)
        nom.update_from_hpt([(77, 100)])
        assert 77 not in nom.hpa

    def test_mask_accumulates_as_count(self):
        nom = Nominator(HWT_DRIVEN)
        nom.update_from_hwt([(5 * 64, 4)])
        nom.update_from_hwt([(5 * 64 + 1, 2)])
        assert nom.hpa[5].count == 6
        assert nom.hpa[5].hot_words == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Nominator("magic")


class TestPromoter:
    def make(self):
        mem = TieredMemory(ddr_pages=8, cxl_pages=32, num_logical_pages=16)
        mem.allocate_all(NodeKind.CXL)
        return mem, Promoter(mem, MigrationEngine(mem))

    def test_promote_via_proc_file(self):
        mem, prom = self.make()
        pfn = mem.frame_of_page(3)
        report = prom.promote([pfn])
        assert report.promoted == 1
        assert mem.node_of_page(3) is NodeKind.DDR
        assert prom.proc_file.writes == 1

    def test_unknown_pfn_counted(self):
        _, prom = self.make()
        report = prom.promote([123456789])
        assert report.unknown_pfn == 1
        assert report.promoted == 0

    def test_pinned_page_rejected(self):
        mem, prom = self.make()
        prom.engine.pin(np.array([3]), PinReason.DMA)
        report = prom.promote([mem.frame_of_page(3)])
        assert report.rejected == 1
        assert mem.node_of_page(3) is NodeKind.CXL

    def test_kernel_worker_drains(self):
        mem, prom = self.make()
        prom.request([mem.frame_of_page(1)])
        prom.request([mem.frame_of_page(2)])
        report = prom.run_kernel_worker()
        assert report.requested == 2
        assert not prom.proc_file.pending

    def test_promote_of_a_full_batch_drops_nothing(self):
        """``promote`` drains the proc file in the call that fills it,
        so one migration batch can never overflow the default file."""
        assert SimConfig().migration_batch <= PROC_FILE_CAPACITY
        mem = TieredMemory(ddr_pages=8, cxl_pages=1024, num_logical_pages=512)
        mem.allocate_all(NodeKind.CXL)
        prom = Promoter(mem, MigrationEngine(mem))
        batch = [mem.frame_of_page(p) for p in range(SimConfig().migration_batch)]
        for _ in range(3):
            assert prom.promote(batch).requested == len(batch)
            assert not prom.proc_file.pending
        assert prom.proc_file.dropped == 0

    def test_totals_accumulate(self):
        mem, prom = self.make()
        prom.promote([mem.frame_of_page(1)])
        prom.promote([mem.frame_of_page(2)])
        assert prom.total.promoted == 2


class TestProcFileBound:
    def test_write_within_capacity_accepts_all(self):
        pf = ProcFile(capacity=4)
        assert pf.write([1, 2, 3]) == 3
        assert pf.pending == [1, 2, 3]
        assert pf.dropped == 0

    def test_write_truncates_at_capacity(self):
        pf = ProcFile(capacity=4)
        pf.write([1, 2, 3])
        assert pf.write([4, 5, 6]) == 1
        assert pf.pending == [1, 2, 3, 4]
        assert pf.dropped == 2

    def test_full_buffer_drops_everything(self):
        pf = ProcFile(capacity=2)
        pf.write([1, 2])
        assert pf.write([3, 4, 5]) == 0
        assert pf.dropped == 3
        assert pf.writes == 2

    def test_drain_frees_capacity(self):
        pf = ProcFile(capacity=2)
        pf.write([1, 2])
        assert pf.drain() == [1, 2]
        assert pf.write([3, 4]) == 2
        assert pf.dropped == 0

    def test_default_capacity_is_module_constant(self):
        assert ProcFile().capacity == PROC_FILE_CAPACITY

    def test_promoter_counts_drops(self):
        mem = TieredMemory(ddr_pages=8, cxl_pages=32, num_logical_pages=16)
        mem.allocate_all(NodeKind.CXL)
        prom = Promoter(mem, MigrationEngine(mem))
        prom.proc_file = ProcFile(capacity=3)
        prom.request([mem.frame_of_page(p) for p in range(5)])
        assert prom.proc_file.dropped == 2
        report = prom.run_kernel_worker()
        assert report.requested == 3


class TestM5Manager:
    def make(self, mode=HPT_ONLY, dry_run=False):
        mem = TieredMemory(ddr_pages=8, cxl_pages=64, num_logical_pages=32)
        mem.allocate_all(NodeKind.CXL)
        engine = MigrationEngine(mem)
        hpt = make_hpt(k=4, algorithm="exact")
        hwt = make_hwt(k=8, algorithm="exact") if mode != HPT_ONLY else None
        mgr = M5Manager(
            mem, engine, hpt=hpt, hwt=hwt,
            nominator=Nominator(mode),
            elector=Elector(min_period_s=1e-6),
            dry_run=dry_run,
        )
        return mem, mgr

    def feed(self, mem, mgr, pages):
        """Simulate one epoch of traffic through the trackers."""
        pfns = np.array([mem.frame_of_page(p) for p in pages], dtype=np.uint64)
        pa = pfns << np.uint64(12)
        mgr.hpt.observe(pa)
        if mgr.hwt is not None:
            mgr.hwt.observe(pa)
        mem.begin_epoch(1.0)
        mem.record_epoch_accesses(np.array(pages))

    def test_first_step_promotes_hot_pages(self):
        mem, mgr = self.make()
        self.feed(mem, mgr, [5] * 10 + [6] * 3)
        result = mgr.step(0.0)
        assert result.decision is not None
        assert result.promoted >= 1
        assert mem.node_of_page(5) is NodeKind.DDR

    def test_dry_run_nominates_without_moving(self):
        mem, mgr = self.make(dry_run=True)
        self.feed(mem, mgr, [5] * 10)
        result = mgr.step(0.0)
        assert result.nominated >= 1
        assert result.promoted == 0
        assert mem.node_of_page(5) is NodeKind.CXL
        assert mgr.nominated_history

    def test_hwt_mode_requires_hwt(self):
        mem = TieredMemory(ddr_pages=8, cxl_pages=64, num_logical_pages=32)
        mem.allocate_all(NodeKind.CXL)
        with pytest.raises(ValueError):
            M5Manager(mem, MigrationEngine(mem), hpt=make_hpt(k=4),
                      nominator=Nominator(HWT_DRIVEN))

    def test_hwt_driven_promotes_from_words(self):
        mem, mgr = self.make(mode=HWT_DRIVEN)
        self.feed(mem, mgr, [3] * 12)
        result = mgr.step(0.0)
        assert result.promoted >= 1
        assert mem.node_of_page(3) is NodeKind.DDR

    def test_overhead_charged_per_activation(self):
        mem, mgr = self.make()
        self.feed(mem, mgr, [1])
        result = mgr.step(0.0)
        assert result.overhead_us > 0
        assert mgr.cpu_overhead_us == result.overhead_us

    def test_trackers_reset_after_query(self):
        mem, mgr = self.make()
        self.feed(mem, mgr, [5] * 10)
        mgr.step(0.0)
        assert mgr.hpt.peek() == []
