"""Invariant-checker tests: clean runs pass, corruption is caught,
and checking never perturbs the simulation itself."""

import dataclasses

import pytest

from repro.migration.request import Direction, MigrationRequest
from repro.obs import Observability, flatten_snapshot
from repro.sim import SimConfig, Simulation
from repro.verify import InvariantViolation
from repro.workloads import registry


def small_config(**overrides):
    base = dict(
        total_accesses=90_000,
        chunk_size=15_000,
        checkpoints=1,
        check_invariants=True,
    )
    base.update(overrides)
    return SimConfig(**base)


def run_sim(policy="m5-hpt", bench="mcf", seed=0, **overrides):
    sim = Simulation(
        registry.build(bench, seed=seed), small_config(**overrides),
        policy=policy,
    )
    result = sim.run()
    return sim, result


class TestCleanRuns:
    """A healthy pipeline raises nothing and reports its check count."""

    def test_instant_run_is_clean(self):
        sim, result = run_sim()
        assert sim.checker is not None
        assert result.extra["invariant_checks"] == sim.checker.checks_run > 0
        assert "invariant_violations" not in result.extra

    def test_checks_metric_counts_every_check(self):
        """``invariant_checks_total``, summed over its invariants, is
        the checker's own count, and every checked kind has a series."""
        sim = Simulation(
            registry.build("mcf", seed=0), small_config(), policy="m5-hpt",
            obs=Observability(metrics=True, tracing=False),
        )
        sim.run()
        checks = {
            key: value
            for key, value in flatten_snapshot(sim.obs.snapshot()).items()
            if key.startswith("invariant_checks_total{")
        }
        assert sum(checks.values()) == sim.checker.checks_run > 0
        assert any('invariant="pac_conservation"' in key for key in checks)

    def test_async_run_is_clean(self):
        _, result = run_sim(
            migration_mode="async",
            migration_inflight_budget=64,
            migration_queue_capacity=256,
        )
        # The queue-bounds checks only exist in async mode.
        assert result.extra["invariant_checks"] > 0

    @pytest.mark.parametrize("policy", ["anb", "damon", "m5-hpt+hwt"])
    def test_other_policies_are_clean(self, policy):
        _, result = run_sim(policy=policy, total_accesses=45_000)
        assert result.extra["invariant_checks"] > 0

    def test_checking_does_not_perturb_results(self):
        """check_invariants only *observes*: every result field must be
        bit-identical to an unchecked run of the same config."""
        _, checked = run_sim(check_invariants=True)
        _, plain = run_sim(check_invariants=False)
        for f in dataclasses.fields(plain):
            if f.name in ("extra", "timeline"):
                continue
            a = getattr(plain, f.name)
            b = getattr(checked, f.name)
            if isinstance(a, float):
                assert a == b, f"{f.name} drifted: {a} vs {b}"
            else:
                assert a == b, f"{f.name} drifted"


class TestCorruptionDetection:
    """Each tampering below simulates a tracker-state bug the checker
    exists to catch: the check passes on the finished run, then raises
    naming its invariant once the state is corrupted."""

    def test_lost_access_is_caught(self):
        sim, _ = run_sim()
        sim.checker.check_pac_conservation(epoch=99)  # clean first
        sim.pac.total_accesses += 1  # one access the counters never saw
        with pytest.raises(InvariantViolation,
                           match=r"\[epoch 99\] pac_conservation: "):
            sim.checker.check_pac_conservation(epoch=99)

    def test_oversize_cam_is_caught(self):
        sim, _ = run_sim()
        cam = sim._manager.hpt.cam
        sim.checker.check_tracker_bounds(epoch=99)
        for extra in range(10_000_000, 10_000_000 + cam.k + 1):
            cam._entries[extra] = 1  # grow past K without bookkeeping
        with pytest.raises(InvariantViolation, match="tracker_bounds"):
            sim.checker.check_tracker_bounds(epoch=99)

    def test_lost_page_is_caught(self):
        sim, _ = run_sim()
        sim.checker.check_tier_conservation(epoch=99)
        sim.memory.node_map[0] = -1  # page 0 falls off both tiers
        with pytest.raises(InvariantViolation, match="tier_conservation"):
            sim.checker.check_tier_conservation(epoch=99)

    def test_duplicate_queue_entry_is_caught(self):
        sim, _ = run_sim(
            migration_mode="async",
            migration_inflight_budget=64,
            migration_queue_capacity=256,
        )
        queue = sim.async_engine.queue
        sim.checker.check_queue_bounds(epoch=99)
        # Two requests for one page, bypassing push()'s dedup.
        queue._queue.append(MigrationRequest(7, Direction.PROMOTE))
        queue._queue.append(MigrationRequest(7, Direction.PROMOTE))
        queue._queued_pages.add(7)
        with pytest.raises(InvariantViolation, match="queue_bounds"):
            sim.checker.check_queue_bounds(epoch=99)
