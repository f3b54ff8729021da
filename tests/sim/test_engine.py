"""Tests for the simulation engine."""

import numpy as np
import pytest

from repro.cxl.pac import PageAccessCounter
from repro.memory.address import PAGE_SIZE, AddressRegion
from repro.memory.tiers import NodeKind
from repro.sim.config import SimConfig
from repro.sim.engine import (
    ALL_POLICIES,
    M5Options,
    Simulation,
    access_count_ratio,
    ratio_k_cap,
    run_policy,
)
from repro.workloads import build, uniform_workload


def small_config(**kw):
    defaults = dict(
        total_accesses=120_000,
        chunk_size=30_000,
        ddr_pages=512,
        cxl_pages=4096,
        checkpoints=3,
        pages_per_gb=1024,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def small_workload(seed=0):
    return uniform_workload(footprint_pages=1024, seed=seed)


class TestAccessCountRatio:
    def region_pac(self):
        region = AddressRegion(0, 64 * PAGE_SIZE)
        pac = PageAccessCounter(region)
        pages = np.repeat(np.arange(8), [50, 40, 30, 20, 10, 5, 2, 1])
        pac.observe((pages.astype(np.uint64) << np.uint64(12)))
        return pac

    def test_perfect_identification(self):
        pac = self.region_pac()
        assert access_count_ratio(pac, [0, 1, 2]) == pytest.approx(1.0)

    def test_warm_identification_below_one(self):
        pac = self.region_pac()
        assert access_count_ratio(pac, [5, 6, 7]) < 0.2

    def test_duplicates_collapsed(self):
        pac = self.region_pac()
        assert access_count_ratio(pac, [0, 0, 0]) == pytest.approx(1.0)

    def test_k_cap(self):
        pac = self.region_pac()
        capped = access_count_ratio(pac, [0, 5, 6], k_cap=1)
        assert capped == pytest.approx(1.0)  # only first identified scored

    def test_empty(self):
        pac = self.region_pac()
        assert access_count_ratio(pac, []) == 0.0

    def test_checkpoint_scores_the_k_capped_list(self):
        """The run's last checkpoint (the final epoch) scores the
        policy's hot list capped at the footprint's K."""
        cfg = small_config(migrate=False, checkpoints=2)
        sim = Simulation(build("mcf", seed=0, pages_per_gb=256), cfg,
                         policy="damon")
        result = sim.run()
        k = ratio_k_cap(sim.workload.spec.footprint_pages)
        assert len(set(sim.hot_pfns)) > k
        capped = access_count_ratio(sim.pac, sim.hot_pfns, k)
        assert result.ratio_checkpoints[-1] == capped
        assert capped != access_count_ratio(sim.pac, sim.hot_pfns)


class TestSimulationBasics:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Simulation(small_workload(), small_config(), policy="hemem")

    def test_all_pages_start_on_cxl(self):
        sim = Simulation(small_workload(), small_config(), policy="none")
        assert sim.memory.nr_pages(NodeKind.CXL) == 1024

    def test_cxl_capacity_grows_to_fit_footprint(self):
        wl = uniform_workload(footprint_pages=8192)
        sim = Simulation(wl, small_config(cxl_pages=64), policy="none")
        assert sim.memory.cxl.capacity_pages >= 8192

    def test_run_produces_result(self):
        r = run_policy(small_workload(), "none", small_config())
        assert r.execution_time_s > 0
        assert r.policy == "none"
        assert r.nr_pages_cxl == 1024

    def test_pac_sees_every_cxl_access(self):
        cfg = small_config(migrate=False)
        sim = Simulation(small_workload(), cfg, policy="none")
        sim.run()
        assert sim.pac.total_accesses == cfg.total_accesses

    def test_wac_optional(self):
        sim = Simulation(small_workload(), small_config(), policy="none",
                         enable_wac=True)
        sim.run()
        assert sim.wac is not None
        assert sim.wac.total_accesses > 0

    def test_identification_mode_moves_nothing(self):
        r = run_policy(small_workload(), "anb",
                       small_config(migrate=False))
        assert r.promoted == 0
        assert r.nr_pages_ddr == 0
        assert r.ratio_checkpoints  # ratios collected instead

    def test_migration_mode_moves_pages(self):
        wl = build("mcf", seed=0)
        r = run_policy(wl, "anb", small_config(total_accesses=240_000))
        assert r.promoted > 0
        assert r.nr_pages_ddr > 0

    def test_ddr_capacity_respected(self):
        wl = build("mcf", seed=0)
        cfg = small_config(total_accesses=240_000, ddr_pages=256)
        r = run_policy(wl, "anb", cfg)
        assert r.nr_pages_ddr <= 256


class TestPolicies:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_policy_runs(self, policy):
        wl = build("mcf", seed=0)
        r = run_policy(wl, policy, small_config(migrate=False))
        assert r.execution_time_s > 0

    def test_overhead_none_is_zero(self):
        r = run_policy(small_workload(), "none", small_config())
        assert r.overhead_time_s == 0.0

    def test_anb_overhead_positive(self):
        wl = build("mcf", seed=0)
        r = run_policy(wl, "anb", small_config(migrate=False))
        assert r.overhead_time_s > 0
        assert "hinting_fault" in r.overhead_events

    def test_m5_overhead_far_below_cpu_driven(self):
        """The headline M5 property: virtually no identification cost."""
        wl = build("mcf", seed=0)
        cfg = small_config(migrate=False)
        anb = run_policy(build("mcf", seed=0), "anb", cfg)
        m5 = run_policy(wl, "m5-hpt", cfg)
        assert m5.overhead_time_s < anb.overhead_time_s / 10

    def test_m5_identifies_hotter_pages_than_anb(self):
        wl_seed = 0
        cfg = small_config(migrate=False, total_accesses=240_000)
        anb = run_policy(build("roms", seed=wl_seed), "anb", cfg)
        m5 = run_policy(build("roms", seed=wl_seed), "m5-hpt", cfg)
        assert m5.access_count_ratio > anb.access_count_ratio

    def test_m5_hwt_policy_uses_word_tracker(self):
        wl = build("redis", seed=0)
        sim = Simulation(wl, small_config(migrate=False), policy="m5-hwt")
        assert sim._manager.hwt is not None
        sim.run()
        assert sim._manager.nominated_history

    def test_m5_options_respected(self):
        opts = M5Options(algorithm="space-saving", num_counters=64, k_hpt=8)
        sim = Simulation(small_workload(), small_config(), policy="m5-hpt",
                         m5_options=opts)
        assert sim._manager.hpt.capacity == 64
        assert sim._manager.hpt.k == 8


class TestEndToEndPerformance:
    def test_migration_beats_no_migration_on_skewed_workload(self):
        cfg = SimConfig(
            total_accesses=600_000, chunk_size=30_000,
            ddr_pages=2048, cxl_pages=8192, checkpoints=1,
        )
        base = run_policy(build("roms", seed=1), "none", cfg)
        m5 = run_policy(build("roms", seed=1), "m5-hpt", cfg)
        assert m5.execution_time_s < base.execution_time_s

    def test_p99_reported_only_for_latency_sensitive(self):
        cfg = small_config(migrate=False)
        redis = run_policy(build("redis", seed=0), "none", cfg)
        mcf = run_policy(build("mcf", seed=0), "none", cfg)
        assert redis.p99_latency_us is not None
        assert mcf.p99_latency_us is None
