"""End-to-end tests of the async migration subsystem inside Simulation."""

import copy

import numpy as np
import pytest

from repro.analysis.timeline import migration_outcomes
from repro.sim.config import SimConfig
from repro.sim.engine import DIRTY_WINDOW_FRAC, Simulation, _EpochState, run_policy
from repro.sim.telemetry import RingBufferSink, TelemetryBus
from repro.workloads import build, uniform_workload


def async_config(**kw):
    defaults = dict(
        total_accesses=120_000,
        chunk_size=30_000,
        ddr_pages=512,
        cxl_pages=4096,
        checkpoints=3,
        pages_per_gb=1024,
        migration_mode="async",
    )
    defaults.update(kw)
    return SimConfig(**defaults)


#: The transactional queue's fields on every async ``epoch`` record.
ASYNC_RECORD_FIELDS = (
    "mig_enqueued",
    "mig_dropped_queue_full",
    "mig_aborted_dirty",
    "mig_aborted_injected",
    "mig_aborted_enomem",
    "mig_retries",
    "mig_dropped_retries",
    "migration_pending",
)


def num_epochs(cfg):
    return (cfg.total_accesses + cfg.chunk_size - 1) // cfg.chunk_size


class TestWiring:
    def test_instant_mode_has_no_async_engine(self):
        sim = Simulation(
            uniform_workload(footprint_pages=1024, seed=0),
            async_config(migration_mode="instant"),
            policy="anb",
        )
        assert sim.async_engine is None

    def test_async_mode_builds_engine(self):
        sim = Simulation(
            uniform_workload(footprint_pages=1024, seed=0),
            async_config(),
            policy="anb",
        )
        assert sim.async_engine is not None
        assert sim.async_engine.config.inflight_budget == (
            sim.config.migration_inflight_budget
        )

    def test_extra_carries_async_stats(self):
        r = run_policy(build("mcf", seed=0), "anb", async_config())
        assert r.extra["mig_enqueued"] > 0
        assert r.extra["mig_committed"] > 0
        assert "mig_pending" in r.extra

    def test_instant_extra_has_no_async_stats(self):
        r = run_policy(build("mcf", seed=0), "anb",
                       async_config(migration_mode="instant"))
        assert "mig_enqueued" not in r.extra


class TestDirtyPages:
    def test_dirty_set_is_the_sorted_distinct_draw(self):
        """The epoch's dirty pages are the distinct pages of the
        accesses drawn dirty, ascending int64 (what ``np.unique``
        returns), from the same draw of the write RNG."""
        sim = Simulation(build("mcf", seed=0),
                         async_config(write_fraction=1.0))
        lpages = np.random.default_rng(3).integers(0, 1024, size=20_000)
        drawn = lpages[
            copy.deepcopy(sim._write_rng).random(lpages.size) < DIRTY_WINDOW_FRAC
        ]
        dirty = sim._epoch_dirty_pages(_EpochState(lpages=lpages))
        assert dirty.dtype == np.int64
        np.testing.assert_array_equal(dirty, np.unique(drawn))
        assert 0 < dirty.size < drawn.size  # some page was drawn twice


class TestAbortInjection:
    def run_injected(self, policy="anb", **kw):
        cfg = async_config(migration_abort_rate=0.3, **kw)
        return run_policy(build("mcf", seed=0), policy, cfg), cfg

    def test_run_completes_with_aborts_and_retries(self):
        r, _ = self.run_injected()
        assert r.extra["mig_aborted"] > 0
        assert r.extra["mig_aborted_injected"] > 0
        assert r.extra["mig_retries"] > 0
        assert r.extra["mig_committed"] > 0

    def test_aborted_totals_decompose(self):
        r, _ = self.run_injected()
        assert r.extra["mig_aborted"] == (
            r.extra["mig_aborted_dirty"]
            + r.extra["mig_aborted_injected"]
            + r.extra["mig_aborted_enomem"]
        )

    def test_committed_bounded_by_budget(self):
        r, cfg = self.run_injected(migration_inflight_budget=32)
        assert r.extra["mig_committed"] <= (
            cfg.migration_inflight_budget * num_epochs(cfg)
        )
        # Copies (the thing the budget actually meters) obey it too.
        assert r.extra["mig_pages_copied"] <= (
            cfg.migration_inflight_budget * num_epochs(cfg)
        )

    def test_m5_promoter_feeds_queue(self):
        r, _ = self.run_injected(policy="m5-hpt")
        assert r.extra["mig_enqueued"] > 0
        assert r.extra["mig_committed"] > 0

    def test_deterministic_across_runs(self):
        a, _ = self.run_injected()
        b, _ = self.run_injected()
        assert a.extra == b.extra


class TestTelemetryIntegration:
    def test_migration_events_published(self):
        """The queue's outcomes ride the ``epoch`` record; no separate
        ``migration.*`` event kind exists."""
        bus = TelemetryBus([RingBufferSink()])
        cfg = async_config(migration_abort_rate=0.3)
        r = run_policy(build("mcf", seed=0), "anb", cfg, telemetry=bus)
        assert not any(e["stage"].startswith("migration.") for e in r.timeline)
        records = [e for e in r.timeline if e["stage"] == "epoch"]
        assert len(records) == num_epochs(cfg)
        assert all(set(ASYNC_RECORD_FIELDS) <= set(e) for e in records)
        frame = migration_outcomes(r.timeline)
        assert r.extra["mig_aborted_injected"] > 0
        assert sum(frame["mig_aborted_injected"]) == (
            r.extra["mig_aborted_injected"]
        )

    def test_no_tick_reads_zero(self):
        """Identification-only runs never tick: every outcome is 0."""
        cfg = async_config(migrate=False)
        r = run_policy(build("mcf", seed=0), "m5-hpt", cfg)
        records = [e for e in r.timeline if e["stage"] == "epoch"]
        assert len(records) == num_epochs(cfg)
        assert all(e[f] == 0 for e in records for f in ASYNC_RECORD_FIELDS)

    def test_long_run_keeps_one_record_per_epoch(self):
        """1,500 async epochs fit the 4,096-row ring: one row each."""
        bus = TelemetryBus([RingBufferSink()])
        cfg = async_config(total_accesses=384_000, chunk_size=256,
                           migration_abort_rate=0.3, checkpoints=1)
        r = run_policy(build("mcf", seed=0), "anb", cfg, telemetry=bus)
        assert r.timeline_dropped == 0
        records = [e for e in r.timeline if e["stage"] == "epoch"]
        assert [e["epoch"] for e in records] == list(
            range(1, num_epochs(cfg) + 1)
        )

    def test_instant_mode_publishes_no_migration_events(self):
        bus = TelemetryBus([RingBufferSink()])
        r = run_policy(build("mcf", seed=0), "anb",
                       async_config(migration_mode="instant"), telemetry=bus)
        assert migration_outcomes(r.timeline) == {}


class TestPerfAccounting:
    def test_copy_traffic_charged_as_contention(self):
        """Migration copy bytes make an epoch strictly slower than the
        same demand traffic without them."""
        from repro.sim.perf import PerformanceModel

        spec = build("mcf", seed=0).spec
        cfg = async_config()
        free = PerformanceModel(cfg, spec)
        charged = PerformanceModel(cfg, spec)
        base = free.record_epoch(10_000, 10_000, 0.0, 0.0)
        loaded = charged.record_epoch(
            10_000, 10_000, 0.0, 0.0, migration_bytes=64 * 4096.0
        )
        assert loaded.memory_s > base.memory_s

    def test_async_run_carries_copy_traffic(self):
        r = run_policy(build("mcf", seed=0), "anb", async_config())
        assert r.extra["mig_pages_copied"] > 0
        assert r.extra["mig_copy_bytes"] == pytest.approx(
            r.extra["mig_pages_copied"] * 4096.0
        )
