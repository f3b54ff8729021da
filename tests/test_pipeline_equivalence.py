"""Equivalence proof for the epoch-pipeline refactor.

The goldens in ``tests/data/pipeline_goldens.json`` were captured by
running the *pre-refactor* engine (the seed's special-cased
``_baseline`` / ``_manager`` loop) for every policy in
``ALL_POLICIES`` under a fixed seed, in both identification-only and
migration mode.  The refactored pipeline must reproduce every
``RunResult`` field bit-for-bit: execution-time decomposition,
promoted/demoted counts, tier occupancy, the ratio checkpoints, and
the hot-page-list length.

Each policy is checked twice: on the production pipeline, and on the
per-access reference models (``repro.verify.as_reference``) the
vectorized kernels are verified against.
"""

import json
import os

import numpy as np
import pytest

from repro.baselines import EpochPolicy, MigrationPolicy
from repro.sim import SimConfig, Simulation
from repro.sim.engine import ALL_POLICIES
from repro.verify import as_reference
from repro.workloads import build

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "data", "pipeline_goldens.json")

with open(GOLDENS_PATH) as fh:
    GOLDENS = json.load(fh)


def golden_config(migrate: bool) -> SimConfig:
    """The exact configuration the goldens were captured under."""
    return SimConfig(
        total_accesses=120_000,
        chunk_size=30_000,
        ddr_pages=512,
        cxl_pages=4096,
        checkpoints=3,
        pages_per_gb=1024,
        migrate=migrate,
    )


def golden_run(policy: str, migrate: bool, engine: str):
    """One golden-config run on the production pipeline ("batched") or
    on the per-access reference models ("reference")."""
    sim = Simulation(build("mcf", seed=0), golden_config(migrate), policy=policy)
    if engine == "reference":
        as_reference(sim)
    return sim.run()


def result_fields(result) -> dict:
    return dict(
        execution_time_s=result.execution_time_s,
        overhead_time_s=result.overhead_time_s,
        migration_time_s=result.migration_time_s,
        promoted=result.promoted,
        demoted=result.demoted,
        nr_pages_ddr=result.nr_pages_ddr,
        nr_pages_cxl=result.nr_pages_cxl,
        ratio_checkpoints=result.ratio_checkpoints,
        n_hot=len(result.hot_pfns),
    )


class TestPipelineEquivalence:
    """Both implementations must reproduce the frozen goldens: the
    production pipeline because it is what runs, and the per-access
    reference models because they are the differential oracle."""

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_identification_mode_matches_seed_engine(self, policy, engine):
        golden = GOLDENS[f"{policy}|ident"]
        assert result_fields(golden_run(policy, False, engine)) == golden

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_migration_mode_matches_seed_engine(self, policy, engine):
        golden = GOLDENS[f"{policy}|mig"]
        assert result_fields(golden_run(policy, True, engine)) == golden

    def test_goldens_cover_every_policy(self):
        covered = {key.split("|")[0] for key in GOLDENS}
        assert covered == set(ALL_POLICIES)


class TouchHottest(MigrationPolicy):
    """Minimal one-file policy: promote the epoch's most-touched pages."""

    name = "touch-hottest"

    def _detect(self, pages, now_s, epoch_s):
        self.page_table.touch(pages)
        uniq, counts = np.unique(pages, return_counts=True)
        self.record_hot(uniq[np.argsort(counts)[::-1][:8]])
        self.costs.charge(1.0, "rank")


class TestPluggablePolicies:
    """The pipeline drives any EpochPolicy, not just the built-ins."""

    def test_builtin_policies_satisfy_protocol(self):
        for policy, mode in (("anb", "_baseline"), ("m5-hpt", "_manager")):
            sim = Simulation(build("mcf", seed=0), golden_config(True), policy=policy)
            assert isinstance(sim.epoch_policy, EpochPolicy)
            assert getattr(sim, mode) is sim.epoch_policy

    def test_custom_policy_flows_through_pipeline(self):
        sim = Simulation(build("mcf", seed=0), golden_config(True), policy="none")
        sim._baseline = TouchHottest(sim.memory)
        result = sim.run()
        assert result.promoted > 0
        assert result.nr_pages_ddr > 0
        assert "rank" in result.overhead_events
        assert len(result.hot_pfns) > 0
