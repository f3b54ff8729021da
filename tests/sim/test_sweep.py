"""Tests for the sweep utilities and M5Options plumbing."""

import copy
from types import SimpleNamespace

import pytest

from repro.core.manager import HPT_DRIVEN, HPT_ONLY, HWT_DRIVEN
from repro.sim import (
    M5Options,
    SimConfig,
    Simulation,
    cell_seed,
    collect_matrix,
    matrix_means,
    normalized,
    run_one,
)
from repro.workloads import build


def tiny_config():
    return SimConfig(total_accesses=60_000, chunk_size=30_000,
                     ddr_pages=512, cxl_pages=8192, checkpoints=1)


def scores(benches, policies, jobs=1):
    """The Fig. 9 matrix as ``repro sweep`` prints it."""
    results = collect_matrix(benches, policies, tiny_config, jobs=jobs)
    return {
        bench: {p: normalized(row["none"], row[p]) for p in policies}
        for bench, row in results.items()
    }


class TestRunOne:
    def test_runs(self):
        result = run_one("mcf", "none", tiny_config())
        assert result.benchmark == "mcf"
        assert result.policy == "none"

    def test_pages_per_gb_override(self):
        result = run_one("mcf", "none", tiny_config(), pages_per_gb=512)
        assert result.nr_pages_cxl < 4000  # half-size footprint


class TestMatrix:
    def test_matrix_shape_and_means(self):
        matrix = scores(["mcf"], ["anb", "m5-hpt"])
        assert set(matrix) == {"mcf"}
        assert set(matrix["mcf"]) == {"anb", "m5-hpt"}
        means = matrix_means(matrix)
        assert means["anb"] == matrix["mcf"]["anb"]

    def test_normalized_uses_p99_for_redis(self):
        base = run_one("redis", "none", tiny_config())
        same = run_one("redis", "none", tiny_config())
        assert normalized(base, same) == pytest.approx(1.0)

    def test_none_cell_reuses_baseline_run(self):
        ran = []
        results = collect_matrix(
            ["mcf"], ["none", "anb"], tiny_config,
            on_result=lambda bench, policy, result: ran.append(policy),
        )
        assert set(results["mcf"]) == {"none", "anb"}
        # one baseline run, which normalises against itself: exactly 1.0
        assert ran == ["none", "anb"]
        assert scores(["mcf"], ["none"])["mcf"]["none"] == 1.0

    def test_normalized_raises_on_zero_p99_measurement(self):
        base = run_one("redis", "none", tiny_config())
        broken = copy.copy(base)
        broken.p99_latency_us = 0.0
        with pytest.raises(ValueError):
            normalized(base, broken)
        with pytest.raises(ValueError):
            normalized(broken, base)

    def test_normalized_higher_is_better(self):
        """Halving the p99 (or, without one, the execution time)
        scores 2: the baseline's figure over the policy's."""
        def run(p99, exec_s):
            return SimpleNamespace(p99_latency_us=p99, execution_time_s=exec_s)

        assert normalized(run(10.0, 1.0), run(5.0, 4.0)) == 2.0
        assert normalized(run(None, 4.0), run(None, 2.0)) == 2.0

    def test_means_skip_benches_without_the_policy(self):
        matrix = {"mcf": {"anb": 1.0, "m5-hpt": 3.0}, "roms": {"anb": 2.0}}
        assert matrix_means(matrix) == {"anb": 1.5, "m5-hpt": 3.0}

    def test_normalized_falls_back_when_p99_missing(self):
        base = run_one("redis", "none", tiny_config())
        no_p99 = copy.copy(base)
        no_p99.p99_latency_us = None
        assert normalized(base, no_p99) == pytest.approx(1.0)


class TestParallelMatrix:
    def test_cell_seed_deterministic_and_policy_independent(self):
        assert cell_seed(1, "mcf") == cell_seed(1, "mcf")
        assert cell_seed(1, "mcf") != cell_seed(2, "mcf")
        assert cell_seed(1, "mcf") != cell_seed(1, "roms")

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            collect_matrix(["mcf"], ["anb"], tiny_config, jobs=0)

    def test_parallel_matches_serial(self):
        benches = ["mcf", "roms"]
        policies = ["none", "anb", "m5-hpt"]
        serial = scores(benches, policies, jobs=1)
        parallel = scores(benches, policies, jobs=4)
        assert serial == parallel

    def test_parallel_results_identical_to_serial(self):
        serial = collect_matrix(["mcf"], ["anb"], tiny_config, jobs=1)
        parallel = collect_matrix(["mcf"], ["anb"], tiny_config, jobs=2)
        for bench in serial:
            for policy in serial[bench]:
                s, p = serial[bench][policy], parallel[bench][policy]
                assert s.execution_time_s == p.execution_time_s
                assert s.promoted == p.promoted
                assert s.demoted == p.demoted
                assert s.hot_pfns == p.hot_pfns
                assert s.ratio_checkpoints == p.ratio_checkpoints


class TestM5OptionsPlumbing:
    def test_mode_map(self):
        for policy, mode in (
            ("m5-hpt", HPT_ONLY),
            ("m5-hwt", HWT_DRIVEN),
            ("m5-hpt+hwt", HPT_DRIVEN),
        ):
            sim = Simulation(build("mcf", seed=0), tiny_config(),
                             policy=policy)
            assert sim._manager.nominator.mode == mode

    def test_nominator_mode_override_on_m5_hpt(self):
        opts = M5Options(nominator_mode=HWT_DRIVEN)
        sim = Simulation(build("mcf", seed=0), tiny_config(),
                         policy="m5-hpt", m5_options=opts)
        assert sim._manager.nominator.mode == HWT_DRIVEN
        assert sim._manager.hwt is not None

    def test_space_saving_algorithm_option(self):
        opts = M5Options(algorithm="space-saving", num_counters=50, k_hpt=16)
        sim = Simulation(build("mcf", seed=0), tiny_config(),
                         policy="m5-hpt", m5_options=opts)
        assert sim._manager.hpt.capacity == 50
