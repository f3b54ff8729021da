"""One channel per fact: the per-epoch ``epoch`` events, the metrics
registry and ``RunResult`` report the same totals.

Each run here is short enough that the timeline ring keeps every
event, so summing the events is exact; the runs cover instant mode,
async mode, and a 3-tier fleet tenant (deep-tier keys, demotion
chain), all with metrics on.
"""

import pytest

from repro.fleet import FleetConfig, FleetSimulation
from repro.obs import Observability
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.workloads import build


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


def single_run(**kw):
    sim = Simulation(
        build("mcf", seed=0), small_config(**kw), policy="anb",
        obs=Observability(metrics=True, tracing=False),
    )
    if sim.async_engine is not None:
        # Keep each tick's report, to check the record per epoch.
        sim.recorded_ticks = []
        tick = sim.async_engine.tick

        def recording_tick(*args, **kwargs):
            report = tick(*args, **kwargs)
            sim.recorded_ticks.append(report)
            return report

        sim.async_engine.tick = recording_tick
    return sim.run(), sim


def fleet_tenant_run():
    fleet = FleetSimulation(
        FleetConfig(tenants=1, tiers=3, bench="mcf"),
        SimConfig(total_accesses=60_000, chunk_size=15_000, seed=1),
        tenant_metrics=True,
    )
    fleet.run()
    sim = fleet.sims[0]
    return sim.result, sim


RUNS = {
    "instant": lambda: single_run(),
    "async": lambda: single_run(migration_mode="async",
                                migration_abort_rate=0.3),
    "fleet-3tier": fleet_tenant_run,
}


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, make in RUNS.items():
        result, sim = make()
        assert result.timeline_dropped == 0  # sums below are exact
        out[name] = (result, sim)
    return out


@pytest.fixture(params=sorted(RUNS))
def run(runs, request):
    return runs[request.param]


@pytest.fixture
def async_run(runs):
    return runs["async"][0]


@pytest.fixture
def fleet_run(runs):
    return runs["fleet-3tier"]


def series(result, name):
    """``{label value: value}`` of a metric family with at most one
    label, in series order ("" keys the unlabelled series)."""
    for family in result.metrics["metrics"]:
        if family["name"] == name:
            return {
                next(iter(s["labels"].values()), ""): s["value"]
                for s in family["series"]
            }
    return {}


def stage_events(result, stage):
    return [e for e in result.timeline if e["stage"] == stage]


def epoch_sum(result, key):
    return sum(e[key] for e in stage_events(result, "epoch"))


def test_one_epoch_event_per_epoch_and_no_duplicate_kinds(run):
    result, sim = run
    assert len(stage_events(result, "epoch")) == sim.config.num_epochs
    stages = {e["stage"] for e in result.timeline}
    assert not stages & {"migrate", "policy"}
    assert all("nominated" in e for e in stage_events(result, "epoch"))


def test_epoch_traffic_equals_access_counters(run):
    result, sim = run
    accesses = series(result, "sim_accesses_total")
    assert list(accesses) == [node.name for node in sim.memory.nodes]
    for tier, total in accesses.items():
        assert epoch_sum(result, f"n_{tier}") == total


def test_epoch_migrations_equal_counters_and_run_result(run):
    result, _ = run
    assert epoch_sum(result, "promoted") == result.promoted
    assert epoch_sum(result, "demoted") == result.demoted
    assert series(result, "sim_migrated_pages_total") == {
        "promote": float(result.promoted),
        "demote": float(result.demoted),
    }


def test_deep_tier_keys_match_counters_and_final_occupancy(fleet_run):
    result, sim = fleet_run
    deep = [node.name for node in sim.memory.nodes[2:]]
    assert deep
    last = stage_events(result, "epoch")[-1]
    resident = series(result, "tier_resident_pages")
    for tier in deep:
        assert epoch_sum(result, f"n_{tier}") == (
            series(result, "sim_accesses_total")[tier]
        )
        assert last[f"nr_pages_{tier}"] == result.extra[f"nr_pages_{tier}"]
        assert resident[tier] == result.extra[f"nr_pages_{tier}"]
    assert last["nr_pages_ddr"] == result.nr_pages_ddr
    assert last["nr_pages_cxl"] == result.nr_pages_cxl


def test_epoch_nominations_equal_manager_counter(fleet_run):
    result, _ = fleet_run
    nominated = epoch_sum(result, "nominated")
    assert nominated > 0
    assert series(result, "manager_nominations_total")[""] == nominated


#: Async ``epoch`` record fields; each is named as its run total in
#: ``RunResult.extra``.
MIGRATION_FIELDS = (
    "mig_enqueued",
    "mig_dropped_queue_full",
    "mig_aborted_dirty",
    "mig_aborted_injected",
    "mig_aborted_enomem",
    "mig_retries",
    "mig_dropped_retries",
)


def test_migration_record_fields_equal_extra(async_run):
    for key in MIGRATION_FIELDS:
        assert epoch_sum(async_run, key) == async_run.extra[key], key
    assert epoch_sum(async_run, "promoted") == async_run.extra["mig_promoted"]
    assert epoch_sum(async_run, "demoted") == async_run.extra["mig_demoted"]
    assert sum(
        epoch_sum(async_run, f"mig_aborted_{cause}")
        for cause in ("dirty", "injected", "enomem")
    ) == async_run.extra["mig_aborted"] > 0


def test_epoch_commits_are_promoted_plus_demoted(runs):
    """The record carries no ``committed``: every epoch's tick commits
    exactly its promotions plus demotions."""
    result, sim = runs["async"]
    ticks = {report.epoch: report for report in sim.recorded_ticks}
    records = stage_events(result, "epoch")
    assert sum(t.committed for t in ticks.values()) > 0
    for e in records:
        tick = ticks[e["epoch"]]
        assert tick.committed == e["promoted"] + e["demoted"], e["epoch"]
        assert tick.committed == tick.promoted + tick.demoted
    assert sum(t.committed for t in ticks.values()) == (
        result.extra["mig_committed"]
    )


def test_migration_record_fields_equal_outcome_counter(async_run):
    outcomes = series(async_run, "migration_outcomes_total")
    for outcome, key in (
        ("abort_dirty", "mig_aborted_dirty"),
        ("abort_injected", "mig_aborted_injected"),
        ("abort_enomem", "mig_aborted_enomem"),
    ):
        assert outcomes.get(outcome, 0.0) == epoch_sum(async_run, key), outcome
    # An epoch's commits also count demote-first victims, which commit
    # alongside a promotion's transaction rather than as an outcome.
    demoted = epoch_sum(async_run, "demoted")
    victims = epoch_sum(async_run, "promoted") + demoted - outcomes["committed"]
    assert 0 <= victims <= demoted
    assert series(async_run, "migration_enqueued_total")[""] == (
        async_run.extra["mig_enqueued"]
    )
    assert series(async_run, "migration_copy_bytes_total")[""] == (
        async_run.extra["mig_copy_bytes"]
    )
