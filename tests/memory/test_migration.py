"""Tests for the migration engine (Promoter's kernel half)."""

import numpy as np
import pytest

from repro.analysis import breakeven_migration_accesses
from repro.memory.migration import (
    MigrationCostModel,
    MigrationEngine,
    PinReason,
)
from repro.memory.tiers import (
    CXL_LATENCY_NS,
    DDR_LATENCY_NS,
    NodeKind,
    TieredMemory,
)


def make_engine(ddr=4, cxl=16, pages=8):
    mem = TieredMemory(ddr_pages=ddr, cxl_pages=cxl, num_logical_pages=pages)
    mem.allocate_all(NodeKind.CXL)
    return mem, MigrationEngine(mem)


class TestCostModel:
    def test_cost_linear(self):
        assert MigrationCostModel().cost_us(10) == pytest.approx(540.0)


class TestBreakeven:
    def test_matches_paper(self):
        """§7.2: 54us / (270ns - 100ns) ≈ 318 accesses."""
        assert breakeven_migration_accesses(54.0, 270.0, 100.0) == (
            pytest.approx(317.6, abs=0.1)
        )

    def test_defaults_are_the_paper_testbed(self):
        """No-arg call uses the 54us cost and the 270/100ns pair."""
        assert breakeven_migration_accesses() == (
            breakeven_migration_accesses(54.0, 270.0, 100.0)
        )

    def test_infinite_when_no_gain(self):
        assert breakeven_migration_accesses(54.0, 100.0, 100.0) == float("inf")

    def test_inverted_tiers(self):
        """Fast tier slower than slow tier: migration never pays off."""
        assert breakeven_migration_accesses(54.0, 100.0, 270.0) == float("inf")

    def test_zero_cost(self):
        """A free migration breaks even immediately."""
        assert breakeven_migration_accesses(0.0, 270.0, 100.0) == 0.0

    def test_cost_over_latency_gap(self):
        """Twice the cost needs twice the accesses; a slower CXL tier
        (370ns, a 270ns gap) repays sooner."""
        paper = breakeven_migration_accesses(54.0, 270.0, 100.0)
        assert breakeven_migration_accesses(108.0, 270.0, 100.0) == (
            pytest.approx(2 * paper))
        assert breakeven_migration_accesses(54.0, 370.0, 100.0) == (
            pytest.approx(200.0))

    def test_amortises_the_cost_model_default(self):
        """The break-even amortises the page cost the engine charges."""
        page_us = MigrationCostModel().cost_us(1)
        assert breakeven_migration_accesses() * (
            CXL_LATENCY_NS - DDR_LATENCY_NS
        ) / 1000.0 == pytest.approx(page_us)


class TestPromotion:
    def test_promote_moves_pages(self):
        mem, eng = make_engine()
        assert eng.promote(np.array([0, 1])) == 2
        assert mem.node_of_page(0) is NodeKind.DDR
        assert eng.stats.promoted == 2
        assert eng.stats.time_us == pytest.approx(2 * 54.0)

    def test_promote_skips_already_on_ddr(self):
        mem, eng = make_engine()
        eng.promote(np.array([0]))
        assert eng.promote(np.array([0])) == 0

    def test_promote_demotes_when_full(self):
        mem, eng = make_engine(ddr=2)
        eng.promote(np.array([0, 1]))
        eng.mglru.age()
        # 2 and 3 must evict 0 and 1 (older generation).
        promoted = eng.promote(np.array([2, 3]))
        assert promoted == 2
        assert eng.stats.demoted == 2
        assert mem.node_of_page(2) is NodeKind.DDR
        assert mem.node_of_page(0) is NodeKind.CXL

    def test_promote_never_demotes_batch_member(self):
        mem, eng = make_engine(ddr=2)
        eng.promote(np.array([0, 1]))
        # Promoting [0, 2]: 0 already on DDR; victim for 2 must be 1.
        eng.promote(np.array([0, 2]))
        assert mem.node_of_page(0) is NodeKind.DDR
        assert mem.node_of_page(2) is NodeKind.DDR

    def test_ddr_reserve_respected(self):
        mem, _ = make_engine(ddr=4)
        eng = MigrationEngine(mem, ddr_reserve_pages=2)
        eng.promote(np.array([0, 1, 2, 3]))
        assert mem.nr_pages(NodeKind.DDR) <= 2 + 0  # 2 free reserved

    def test_mglru_tracks_promoted(self):
        _, eng = make_engine()
        eng.promote(np.array([0]))
        assert eng.mglru.generation_of(0) >= 0


class TestDemotion:
    def test_demote_moves_back(self):
        mem, eng = make_engine()
        eng.promote(np.array([0]))
        assert eng.demote(np.array([0])) == 1
        assert mem.node_of_page(0) is NodeKind.CXL
        assert eng.mglru.generation_of(0) == -1

    def test_demote_skips_cxl_resident(self):
        _, eng = make_engine()
        assert eng.demote(np.array([0])) == 0


class TestPinning:
    def test_pinned_pages_rejected(self):
        mem, eng = make_engine()
        eng.pin(np.array([0]), PinReason.DMA)
        assert eng.promote(np.array([0, 1])) == 1
        assert mem.node_of_page(0) is NodeKind.CXL
        assert eng.stats.rejected == 1
        assert eng.stats.rejected_by_reason[PinReason.DMA] == 1

    def test_unpin_restores_migratability(self):
        mem, eng = make_engine()
        eng.pin(np.array([0]), PinReason.NODE_BOUND)
        eng.unpin(np.array([0]))
        assert eng.promote(np.array([0])) == 1

    def test_pin_reason_query(self):
        _, eng = make_engine()
        eng.pin(np.array([0]), PinReason.NODE_BOUND)
        assert eng.pin_reason(0) is PinReason.NODE_BOUND
        assert eng.pin_reason(1) is PinReason.NONE

    def test_pin_none_rejected(self):
        _, eng = make_engine()
        with pytest.raises(ValueError):
            eng.pin(np.array([0]), PinReason.NONE)

    def test_pin_empty_array_noop(self):
        _, eng = make_engine()
        eng.pin(np.array([], dtype=np.int64), PinReason.DMA)
        assert all(eng.pin_reason(p) is PinReason.NONE for p in range(8))

    def test_unpin_empty_array_noop(self):
        _, eng = make_engine()
        eng.unpin(np.array([], dtype=np.int64))
        assert eng.promote(np.array([0])) == 1

    def test_reject_pinned_empty_batch(self):
        _, eng = make_engine()
        out = eng._reject_pinned(np.array([], dtype=np.int64))
        assert out.size == 0
        assert eng.stats.rejected == 0
        assert eng.stats.rejected_by_reason == {}

    def test_double_pin_last_reason_wins(self):
        _, eng = make_engine()
        eng.pin(np.array([0]), PinReason.DMA)
        eng.pin(np.array([0]), PinReason.NODE_BOUND)
        assert eng.pin_reason(0) is PinReason.NODE_BOUND
        assert eng.promote(np.array([0])) == 0
        assert eng.stats.rejected_by_reason == {PinReason.NODE_BOUND: 1}

    def test_unpin_never_pinned_is_noop(self):
        mem, eng = make_engine()
        eng.unpin(np.array([3]))
        assert eng.pin_reason(3) is PinReason.NONE
        assert eng.promote(np.array([3])) == 1
        assert mem.node_of_page(3) is NodeKind.DDR

    def test_reject_pinned_mixed_reasons_accounting(self):
        _, eng = make_engine()
        eng.pin(np.array([0, 1]), PinReason.DMA)
        eng.pin(np.array([2]), PinReason.NODE_BOUND)
        survivors = eng._reject_pinned(np.array([0, 1, 2, 3]))
        assert survivors.tolist() == [3]
        assert eng.stats.rejected == 3
        assert eng.stats.rejected_by_reason == {
            PinReason.DMA: 2,
            PinReason.NODE_BOUND: 1,
        }


class TestPinnedVictims:
    """A full DDR pays for a promotion with the coldest *demotable*
    page: a pinned DDR page is passed over as a victim, not rejected
    on behalf of a request that never named it."""

    def full_ddr_pinned_coldest(self, reserve=0):
        mem = TieredMemory(ddr_pages=2 + reserve, cxl_pages=16,
                           num_logical_pages=8)
        mem.allocate_all(NodeKind.CXL)
        eng = MigrationEngine(mem, ddr_reserve_pages=reserve)
        eng.promote(np.array([0, 1]))
        eng.mglru.age()
        eng.mglru.record_accesses(np.array([1]))  # page 0 is the coldest
        eng.pin(np.array([0]), PinReason.DMA)
        return mem, eng

    def test_pinned_coldest_page_skipped(self):
        mem, eng = self.full_ddr_pinned_coldest()
        assert eng.promote(np.array([2])) == 1
        assert mem.node_of_page(0) is NodeKind.DDR
        assert mem.node_of_page(1) is NodeKind.CXL
        assert mem.node_of_page(2) is NodeKind.DDR
        assert eng.stats.demoted == 1
        assert eng.stats.rejected == 0
        assert eng.stats.rejected_by_reason == {}

    def test_pinned_victim_leaves_reserve_alone(self):
        mem, eng = self.full_ddr_pinned_coldest(reserve=1)
        assert eng.promote(np.array([2])) == 1
        assert mem.nr_pages(NodeKind.DDR) == 2
        assert mem.node_of_page(1) is NodeKind.CXL
        assert eng.stats.rejected == 0

    def test_every_ddr_page_pinned_promotes_nothing(self):
        mem, eng = self.full_ddr_pinned_coldest()
        eng.pin(np.array([1]), PinReason.NODE_BOUND)
        assert eng.promote(np.array([2])) == 0
        assert mem.node_of_page(2) is NodeKind.CXL
        assert eng.stats.demoted == 0
        assert eng.stats.rejected == 0


class TestStats:
    def test_frame_conservation_through_churn(self):
        """Frames stay unique through heavy promote/demote churn."""
        mem, eng = make_engine(ddr=4, cxl=16, pages=12)
        rng = np.random.default_rng(0)
        for _ in range(50):
            eng.promote(rng.choice(12, size=3, replace=False))
            eng.mglru.age()
        frames = mem.frame_map[:12]
        assert len(np.unique(frames)) == 12
        assert mem.ddr.used_pages + mem.cxl.used_pages == 12
