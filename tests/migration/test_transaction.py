"""Tests for the transactional copier and the async engine state machine."""

import numpy as np
import pytest

from repro.memory.migration import MigrationEngine, PinReason
from repro.memory.tiers import NodeKind, TieredMemory
from repro.migration import (
    AsyncMigrationConfig,
    AsyncMigrationEngine,
    Direction,
    FailureInjector,
    MigrationRequest,
    Outcome,
    TransactionalCopier,
)


def make_engine(ddr=4, cxl=16, pages=8, **cfg):
    mem = TieredMemory(ddr_pages=ddr, cxl_pages=cxl, num_logical_pages=pages)
    mem.allocate_all(NodeKind.CXL)
    sync = MigrationEngine(mem)
    return mem, sync, AsyncMigrationEngine(sync, AsyncMigrationConfig(**cfg))


def promote_req(lpage):
    return MigrationRequest(lpage, Direction.PROMOTE)


class TestCopierOutcomes:
    def test_clean_commit(self):
        mem, sync, _ = make_engine()
        copier = TransactionalCopier(sync)
        result = copier.execute(promote_req(0), dirty=set())
        assert result.outcome is Outcome.COMMITTED
        assert result.copies == 1
        assert mem.node_of_page(0) is NodeKind.DDR
        assert sync.stats.promoted == 1
        assert sync.stats.time_us == pytest.approx(copier.remap_us)

    def test_dirty_recheck_aborts(self):
        mem, sync, _ = make_engine()
        copier = TransactionalCopier(sync)
        result = copier.execute(promote_req(0), dirty={0})
        assert result.outcome is Outcome.ABORT_DIRTY
        assert result.copies == 1  # copy bandwidth was wasted
        assert mem.node_of_page(0) is NodeKind.CXL

    def test_injected_dirty_aborts(self):
        _, sync, _ = make_engine()
        copier = TransactionalCopier(
            sync, injector=FailureInjector(dirty_pages=[0])
        )
        result = copier.execute(promote_req(0), dirty=set())
        assert result.outcome is Outcome.ABORT_DIRTY

    def test_injected_copy_abort(self):
        mem, sync, _ = make_engine()
        copier = TransactionalCopier(sync, injector=FailureInjector(abort_rate=1.0))
        result = copier.execute(promote_req(0), dirty=set())
        assert result.outcome is Outcome.ABORT_INJECTED
        assert result.copies == 1
        assert mem.node_of_page(0) is NodeKind.CXL
        assert copier.injector.injected_aborts == 1

    def test_pinned_rejected_before_copy(self):
        _, sync, _ = make_engine()
        sync.pin(np.array([0]), PinReason.DMA)
        copier = TransactionalCopier(sync)
        result = copier.execute(promote_req(0), dirty=set())
        assert result.outcome is Outcome.REJECT_PINNED
        assert result.copies == 0
        assert sync.stats.rejected == 1
        assert sync.stats.rejected_by_reason[PinReason.DMA] == 1

    def test_already_resident_noop(self):
        _, sync, _ = make_engine()
        copier = TransactionalCopier(sync)
        copier.execute(promote_req(0), dirty=set())
        result = copier.execute(promote_req(0), dirty=set())
        assert result.outcome is Outcome.NOOP
        assert result.copies == 0

    def test_demote_direction(self):
        mem, sync, _ = make_engine()
        copier = TransactionalCopier(sync)
        copier.execute(promote_req(0), dirty=set())
        result = copier.execute(
            MigrationRequest(0, Direction.DEMOTE), dirty=set()
        )
        assert result.outcome is Outcome.COMMITTED
        assert mem.node_of_page(0) is NodeKind.CXL


class TestEnomem:
    def fill_ddr(self, copier, n):
        for p in range(n):
            assert copier.execute(promote_req(p), dirty=set()).outcome is (
                Outcome.COMMITTED
            )

    def test_demote_first_fallback(self):
        mem, sync, _ = make_engine(ddr=2)
        copier = TransactionalCopier(sync, enomem_fallback=True)
        self.fill_ddr(copier, 2)
        sync.mglru.age()
        result = copier.execute(promote_req(5), dirty=set())
        assert result.outcome is Outcome.COMMITTED
        assert result.fallback_victim in (0, 1)
        assert result.copies == 2  # victim demotion + promotion copy
        assert mem.node_of_page(5) is NodeKind.DDR
        assert mem.node_of_page(result.fallback_victim) is NodeKind.CXL

    def test_abort_policy_raises_enomem(self):
        mem, sync, _ = make_engine(ddr=2)
        copier = TransactionalCopier(sync, enomem_fallback=False)
        self.fill_ddr(copier, 2)
        result = copier.execute(promote_req(5), dirty=set())
        assert result.outcome is Outcome.ABORT_ENOMEM
        assert result.copies == 0  # failed before any copy work
        assert mem.node_of_page(5) is NodeKind.CXL

    def test_forced_frame_denial(self):
        _, sync, _ = make_engine()
        copier = TransactionalCopier(
            sync, injector=FailureInjector(force_enomem=True)
        )
        result = copier.execute(promote_req(0), dirty=set())
        assert result.outcome is Outcome.ABORT_ENOMEM

    def test_fallback_never_demotes_pinned_victim(self):
        mem, sync, _ = make_engine(ddr=2)
        copier = TransactionalCopier(sync, enomem_fallback=True)
        self.fill_ddr(copier, 2)
        sync.pin(np.array([0]), PinReason.DMA)
        sync.mglru.age()
        result = copier.execute(promote_req(5), dirty=set())
        assert result.fallback_victim == 1
        assert mem.node_of_page(0) is NodeKind.DDR


class TestEngineTick:
    def test_commit_flow(self):
        mem, _, eng = make_engine()
        assert eng.enqueue_promotions([0, 1]) == 2
        report = eng.tick(epoch=1)
        assert report.committed == 2
        assert report.promoted == 2
        assert eng.stats.committed == 2
        assert eng.pending == 0
        assert mem.node_of_page(0) is NodeKind.DDR

    def test_budget_limits_attempts_per_tick(self):
        _, _, eng = make_engine(ddr=8, pages=8, inflight_budget=2)
        eng.enqueue_promotions([0, 1, 2, 3])
        report = eng.tick(epoch=1)
        assert report.committed == 2
        assert eng.pending == 2
        report = eng.tick(epoch=2)
        assert report.committed == 2
        assert eng.pending == 0

    def test_bandwidth_throttle(self):
        # 1 page = 4096 B; 4096 B/s * 2 s = 2 pages per tick.
        _, _, eng = make_engine(ddr=8, copy_gbps=4096 / 1e9)
        eng.enqueue_promotions([0, 1, 2, 3])
        report = eng.tick(epoch=1, epoch_s=2.0)
        assert report.committed == 2
        assert eng.pending == 2

    def test_retry_then_drop(self):
        _, sync, eng = make_engine(max_retries=2, backoff_epochs=0)
        eng.injector.dirty_pages.add(0)  # perpetually dirty page
        eng.enqueue_promotions([0])
        epoch = 1
        while eng.pending and epoch < 50:
            eng.tick(epoch=epoch)
            epoch += 1
        assert eng.stats.aborted == 3  # initial + 2 retries
        assert eng.stats.retries == 2
        assert eng.stats.dropped_retries == 1
        assert eng.stats.committed == 0

    def test_dropped_page_is_renominatable(self):
        _, _, eng = make_engine(max_retries=0, backoff_epochs=0)
        eng.injector.dirty_pages.add(0)
        eng.enqueue_promotions([0])
        eng.tick(epoch=1)
        assert eng.stats.dropped_retries == 1
        eng.injector.dirty_pages.clear()
        assert eng.enqueue_promotions([0]) == 1
        report = eng.tick(epoch=2)
        assert report.committed == 1

    def test_backoff_delays_retry(self):
        _, _, eng = make_engine(max_retries=3, backoff_epochs=2)
        eng.injector.dirty_pages.add(0)
        eng.enqueue_promotions([0])
        eng.tick(epoch=1)  # abort; gated until epoch 1 + 2
        assert eng.tick(epoch=2).attempted == 0
        assert eng.tick(epoch=3).attempted == 1

    def test_backoff_grows_exponentially(self):
        _, _, eng = make_engine(backoff_epochs=1)
        assert eng._backoff_gate(10, retries=1) == 11
        assert eng._backoff_gate(10, retries=2) == 12
        assert eng._backoff_gate(10, retries=3) == 14
        assert eng._backoff_gate(10, retries=4) == 18

    def test_backoff_zero_still_advances(self):
        """Zero backoff must still gate to the *next* epoch, or a
        zero-copy abort (ENOMEM before copy) would loop forever."""
        _, _, eng = make_engine(backoff_epochs=0)
        assert eng._backoff_gate(10, retries=1) == 11

    def test_fallback_charges_double_budget(self):
        _, sync, eng = make_engine(ddr=2, inflight_budget=3)
        eng.enqueue_promotions([0, 1])
        eng.tick(epoch=1)
        sync.mglru.age()
        # DDR full: next promotion costs 2 copies (victim + page);
        # budget 3 admits exactly one such promotion.
        eng.enqueue_promotions([2, 3])
        report = eng.tick(epoch=2)
        assert report.pages_copied <= 3
        assert report.committed == 2  # fallback victim + the promotion
        assert eng.pending == 1

    def test_duplicate_enqueue_counted(self):
        _, _, eng = make_engine()
        eng.enqueue_promotions([0])
        eng.enqueue_promotions([0])
        assert eng.stats.enqueued == 1
        assert eng.stats.duplicates == 1

    def test_queue_overflow_counted(self):
        _, _, eng = make_engine(queue_capacity=2)
        eng.enqueue_promotions([0, 1, 2, 3])
        assert eng.stats.enqueued == 2
        assert eng.stats.dropped_queue_full == 2

    def test_pinned_page_rejected_through_tick(self):
        _, sync, eng = make_engine()
        sync.pin(np.array([0]), PinReason.NODE_BOUND)
        eng.enqueue_promotions([0])
        report = eng.tick(epoch=1)
        assert report.rejected_pinned == 1
        assert eng.stats.rejected_pinned == 1
        # Rejected pages leave the dedupe set (re-nominatable).
        sync.unpin(np.array([0]))
        assert eng.enqueue_promotions([0]) == 1

    def test_stats_flatten_for_run_result(self):
        _, _, eng = make_engine()
        eng.enqueue_promotions([0])
        eng.tick(epoch=1)
        extra = eng.stats.as_extra()
        assert extra["mig_enqueued"] == 1.0
        assert extra["mig_committed"] == 1.0
        assert "mig_pages_copied" in extra

    def test_stats_and_outcome_metric_are_the_folded_tick_reports(self):
        """Each tick's report is folded once into the run totals and
        the outcome counter; series appear in first-occurrence order."""
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        mem = TieredMemory(ddr_pages=3, cxl_pages=16, num_logical_pages=12)
        mem.allocate_all(NodeKind.CXL)
        sync = MigrationEngine(mem)
        eng = AsyncMigrationEngine(
            sync,
            AsyncMigrationConfig(inflight_budget=4, abort_rate=0.4,
                                 max_retries=1, seed=3),
            metrics=reg,
        )
        reports = []
        for epoch in range(1, 9):
            eng.enqueue_promotions([(epoch * 5 + i) % 12 for i in range(3)])
            sync.mglru.age()
            reports.append(eng.tick(epoch, dirty_pages=[epoch * 5 % 12]))
        total = {}
        first_seen = []
        for report in reports:
            for outcome, n in report.outcomes.items():
                total[outcome.value] = total.get(outcome.value, 0) + n
                if outcome.value not in first_seen:
                    first_seen.append(outcome.value)
        assert len(first_seen) >= 3  # commits, injected and dirty aborts
        family = reg.get("migration_outcomes_total")
        assert [labels["outcome"] for labels, _ in family.series()] == first_seen
        assert {labels["outcome"]: m.value
                for labels, m in family.series()} == total
        report_fields = {
            "committed": "committed", "promoted": "promoted",
            "demoted": "demoted", "aborted": "aborted",
            "aborted_dirty": "aborted_dirty",
            "aborted_injected": "aborted_injected",
            "aborted_enomem": "aborted_enomem", "retries": "retried",
            "dropped_retries": "dropped_retries",
            "rejected_pinned": "rejected_pinned", "noop": "noop",
            "pages_copied": "pages_copied", "copy_bytes": "copy_bytes",
        }
        for stat, field in report_fields.items():
            assert getattr(eng.stats, stat) == sum(
                getattr(r, field) for r in reports
            ), stat
        assert reg.get("migration_copy_bytes_total").labels().value == (
            eng.stats.copy_bytes
        )


class TestConfigValidation:
    def test_bad_budget(self):
        with pytest.raises(ValueError):
            AsyncMigrationConfig(inflight_budget=0)

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            AsyncMigrationConfig(max_retries=-1)

    def test_bad_copy_gbps(self):
        with pytest.raises(ValueError):
            AsyncMigrationConfig(copy_gbps=-1.0)

    def test_from_sim_config(self):
        from repro.sim.config import SimConfig

        cfg = SimConfig(
            migration_mode="async",
            migration_inflight_budget=7,
            migration_abort_rate=0.25,
            migration_enomem_policy="abort",
        )
        acfg = AsyncMigrationConfig.from_sim_config(cfg)
        assert acfg.inflight_budget == 7
        assert acfg.abort_rate == 0.25
        assert acfg.enomem_fallback is False
