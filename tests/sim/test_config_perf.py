"""Tests for SimConfig and the performance model."""

import pytest

from repro.sim.config import SimConfig
from repro.sim.perf import MIGRATION_OVERLAP, PerformanceModel
from repro.workloads.base import WorkloadSpec


def spec(mpki=20.0, cores=1, latency_sensitive=False):
    return WorkloadSpec(name="t", footprint_pages=100, mpki=mpki, cores=cores,
                        latency_sensitive=latency_sensitive)


class TestSimConfig:
    def test_derived_scales(self):
        cfg = SimConfig(pages_per_gb=1024, trace_subsample=16)
        assert cfg.footprint_scale == 256
        assert cfg.time_dilation == 256 * 16

    def test_explicit_dilation_respected(self):
        cfg = SimConfig(time_dilation=10.0)
        assert cfg.time_dilation == 10.0

    def test_num_epochs(self):
        cfg = SimConfig(total_accesses=100, chunk_size=30)
        assert cfg.num_epochs == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(total_accesses=0)
        with pytest.raises(ValueError):
            SimConfig(mlp=0)
        with pytest.raises(ValueError):
            SimConfig(checkpoints=0)
        with pytest.raises(ValueError):
            SimConfig(trace_subsample=0.5)


class TestPerformanceModel:
    def cfg(self):
        return SimConfig(time_dilation=1.0, footprint_scale=1.0, mlp=1.0)

    def test_memory_time_uses_tier_latencies(self):
        perf = PerformanceModel(self.cfg(), spec())
        e = perf.record_epoch(n_ddr=1000, n_cxl=0, overhead_us=0,
                              migration_us=0)
        assert e.memory_s == pytest.approx(1000 * 100e-9)
        e2 = perf.record_epoch(n_ddr=0, n_cxl=1000, overhead_us=0,
                               migration_us=0)
        assert e2.memory_s == pytest.approx(1000 * 270e-9)

    def test_compute_time_runs_on_the_table2_core(self):
        """mpki 20 means 50 instructions per access, retired at the
        2.1 GHz core's IPC of 1.5."""
        perf = PerformanceModel(self.cfg(), spec(mpki=20.0))
        e = perf.record_epoch(n_ddr=600, n_cxl=400, overhead_us=0,
                              migration_us=0)
        assert e.compute_s == pytest.approx(1000 * 50 / (1.5 * 2.1e9))

    def test_node_params_price_a_third_tier(self):
        """A fleet's three-tier hierarchy: each node's accesses stall
        at that node's latency."""
        perf = PerformanceModel(self.cfg(), spec(),
                                node_params=[(100.0, 0.0), (270.0, 0.0),
                                             (600.0, 0.0)])
        e = perf.record_epoch(0, 0, 0, 0, node_counts=[10, 20, 30])
        assert e.memory_s == pytest.approx(
            (10 * 100 + 20 * 270 + 30 * 600) * 1e-9)

    def test_all_cxl_roughly_twice_all_ddr(self):
        """The no-migration gap the paper reports (~2x, Figure 9)."""
        cfg = SimConfig(time_dilation=1.0, footprint_scale=1.0, mlp=4.0)
        perf = PerformanceModel(cfg, spec(mpki=25.0))
        ddr = perf.record_epoch(100_000, 0, 0, 0).total_s
        cxl = perf.record_epoch(0, 100_000, 0, 0).total_s
        assert cxl / ddr == pytest.approx(2.0, abs=0.35)

    def test_cores_shrink_wall_time(self):
        solo = PerformanceModel(self.cfg(), spec(cores=1))
        multi = PerformanceModel(self.cfg(), spec(cores=8))
        a = solo.record_epoch(1000, 0, 0, 0).total_s
        b = multi.record_epoch(1000, 0, 0, 0).total_s
        assert a == pytest.approx(8 * b)

    def test_overhead_not_divided_by_cores(self):
        perf = PerformanceModel(self.cfg(), spec(cores=8))
        e = perf.record_epoch(0, 0, overhead_us=100.0, migration_us=0)
        assert e.overhead_s == pytest.approx(100e-6)

    def test_migration_scaled_by_page_grouping(self):
        cfg = SimConfig(time_dilation=1.0, footprint_scale=256.0)
        perf = PerformanceModel(cfg, spec())
        e = perf.record_epoch(0, 0, 0, migration_us=54.0)
        # One model page = 256 real pages; only the overlap fraction
        # lands on the critical path.
        assert e.migration_s == pytest.approx(
            54e-6 * 256 * MIGRATION_OVERLAP
        )

    def test_aggregates(self):
        perf = PerformanceModel(self.cfg(), spec())
        perf.record_epoch(1000, 1000, 10.0, 5.0)
        perf.record_epoch(1000, 1000, 10.0, 5.0)
        assert perf.execution_time_s == pytest.approx(
            perf.app_time_s + perf.overhead_time_s + perf.migration_time_s
        )
        assert perf.overhead_time_s == pytest.approx(20e-6)

    def test_p99_inflates_with_overhead(self):
        quiet = PerformanceModel(self.cfg(), spec(latency_sensitive=True))
        noisy = PerformanceModel(self.cfg(), spec(latency_sensitive=True))
        for _ in range(10):
            quiet.record_epoch(10_000, 10_000, 0.0, 0.0)
            noisy.record_epoch(10_000, 10_000, 400.0, 0.0)
        assert noisy.p99_latency_us() > quiet.p99_latency_us()

    def test_p99_empty(self):
        perf = PerformanceModel(self.cfg(), spec())
        assert perf.p99_latency_us() == 0.0

    def test_p99_scores_steady_state_not_warmup(self):
        """A heavy fill phase in the first half must not anchor the
        tail (YCSB measures after loading)."""
        warm = PerformanceModel(self.cfg(), spec(latency_sensitive=True))
        cold = PerformanceModel(self.cfg(), spec(latency_sensitive=True))
        for i in range(20):
            # warm: expensive first half, clean second half.
            ovh = 500.0 if i < 10 else 0.0
            warm.record_epoch(10_000, 10_000, ovh, ovh)
            cold.record_epoch(10_000, 10_000, 0.0, 0.0)
        assert warm.p99_latency_us() == pytest.approx(cold.p99_latency_us())

    def test_p99_penalises_persistent_interference(self):
        busy = PerformanceModel(self.cfg(), spec(latency_sensitive=True))
        idle = PerformanceModel(self.cfg(), spec(latency_sensitive=True))
        for _ in range(20):
            busy.record_epoch(10_000, 10_000, 300.0, 300.0)
            idle.record_epoch(10_000, 10_000, 0.0, 0.0)
        assert busy.p99_latency_us() > idle.p99_latency_us()


class TestBandwidthCeilings:
    def test_unlimited_by_default(self):
        cfg = SimConfig(time_dilation=1.0, footprint_scale=1.0, mlp=1.0)
        perf = PerformanceModel(cfg, spec())
        e = perf.record_epoch(1_000_000, 0, 0, 0)
        assert e.memory_s == pytest.approx(1_000_000 * 100e-9)

    def test_ceiling_binds_when_tight(self):
        cfg = SimConfig(time_dilation=1.0, footprint_scale=1.0, mlp=1.0,
                        ddr_bandwidth_gbps=0.1)
        perf = PerformanceModel(cfg, spec())
        n = 1_000_000
        e = perf.record_epoch(n, 0, 0, 0)
        assert e.memory_s == pytest.approx(n * 64 / 0.1e9)

    def test_latency_binds_when_bandwidth_ample(self):
        cfg = SimConfig(time_dilation=1.0, footprint_scale=1.0, mlp=1.0,
                        ddr_bandwidth_gbps=1000.0)
        perf = PerformanceModel(cfg, spec())
        e = perf.record_epoch(1_000_000, 0, 0, 0)
        assert e.memory_s == pytest.approx(1_000_000 * 100e-9)

    def test_bandwidth_shared_across_cores(self):
        """Latency divides by cores; bandwidth does not."""
        cfg = SimConfig(time_dilation=1.0, footprint_scale=1.0, mlp=1.0,
                        ddr_bandwidth_gbps=0.1)
        solo = PerformanceModel(cfg, spec(cores=1))
        multi = PerformanceModel(cfg, spec(cores=16))
        n = 1_000_000
        assert multi.record_epoch(n, 0, 0, 0).memory_s == pytest.approx(
            solo.record_epoch(n, 0, 0, 0).memory_s
        )
