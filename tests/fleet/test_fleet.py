"""Fleet end-to-end contracts: golden single-run equivalence, tenant
isolation, and the noisy-neighbor model."""

import numpy as np

from repro.fleet import FleetConfig, FleetSimulation
from repro.obs import Observability, flatten_snapshot
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.sweep import cell_seed
from repro.verify.differential import (
    _metric_mismatches,
    diff_run_results,
    fleet_oracle,
)
from repro.workloads import registry

ACCESSES = 60_000
CHUNK = 15_000


def small_config(**overrides):
    base = dict(total_accesses=ACCESSES, chunk_size=CHUNK, seed=1)
    base.update(overrides)
    return SimConfig(**base)


def run_fleet(fleet, config, with_metrics=False):
    """One lockstep fleet run; ``with_metrics`` turns on the fleet and
    per-tenant registries, as ``repro fleet --out`` does."""
    obs = Observability(metrics=True, tracing=False) if with_metrics else None
    return FleetSimulation(
        fleet, config, obs=obs, tenant_metrics=with_metrics
    ).run()


# ----------------------------------------------------------------------
# golden: 1-tenant / 2-tier fleet == single-run engine, bit for bit


def test_one_tenant_two_tier_fleet_matches_single_run():
    config = small_config()
    fleet_sim = FleetSimulation(
        FleetConfig(tenants=1, tiers=2, bench="mcf"), config
    )
    fleet_result = fleet_sim.run()

    workload = registry.build("mcf", seed=cell_seed(config.seed, "mcf"))
    single_sim = Simulation(workload, small_config(), policy="m5-hpt")
    single = single_sim.run()

    tenant = fleet_result.results[0]
    rows = diff_run_results(tenant.result, single, tolerances={})
    assert all(r.ok for r in rows), [r.field for r in rows if not r.ok]
    assert tenant.result.execution_time_s == single.execution_time_s
    assert tenant.result.migration_time_s == single.migration_time_s
    # Same frames in the same places: the fleet topology with one
    # tenant reproduces the historic address layout exactly.
    assert np.array_equal(
        fleet_sim.sims[0].memory.frame_map, single_sim.memory.frame_map
    )
    assert np.array_equal(
        fleet_sim.sims[0].memory.node_map, single_sim.memory.node_map
    )
    # And the fleet accounting is the no-interference identity.
    assert tenant.slowdown_vs_isolated == 1.0
    assert all(v == 1.0 for v in tenant.bandwidth_share.values())


def test_fleet_oracle_is_green():
    report = fleet_oracle(accesses=ACCESSES, chunk=CHUNK)
    assert report.ok, report.format()


# ----------------------------------------------------------------------
# tenant isolation


def test_tenant_seeds_derive_per_tenant_and_keep_single_run_seed():
    fleet_sim = FleetSimulation(
        FleetConfig(tenants=3, tiers=2, bench="mcf"), small_config()
    )
    seeds = fleet_sim.tenant_seeds
    assert len(set(seeds)) == 3
    # Tenant 0 reuses the single-run derivation, so existing sweep
    # seeds are unchanged by the fleet feature.
    assert seeds[0] == cell_seed(1, "mcf")
    assert seeds[1] == cell_seed(1, "mcf", tenant=1)


def test_no_frame_mapped_by_two_tenants():
    fleet_sim = FleetSimulation(
        FleetConfig(tenants=3, tiers=3, bench="mcf,roms"), small_config()
    )
    fleet_sim.run()
    # frame_map holds absolute PFNs (node base embedded), so
    # cross-tenant disjointness is a global-uniqueness check.
    frames = np.concatenate(
        [sim.memory.frame_map for sim in fleet_sim.sims]
    )
    assert len(np.unique(frames)) == len(frames)


# ----------------------------------------------------------------------
# 3-tier fleet behaviour


def test_three_tier_fleet_passes_invariants_with_chain_traffic():
    fleet = FleetConfig(tenants=3, tiers=3, bench="mcf")
    config = small_config(
        total_accesses=120_000, check_invariants=True
    )
    result = run_fleet(fleet, config)
    chain_moves = 0.0
    for t in result.results:
        assert t.result.extra.get("invariant_checks", 0.0) > 0
        chain_moves += t.chain["demoted_to_pooled"]
        chain_moves += t.chain["pulled_from_pooled"]
    assert chain_moves > 0, "demotion chain never fired"


def test_noisy_neighbor_slows_tenants_down():
    fleet = FleetConfig(tenants=2, tiers=2, bench="mcf")
    contended = run_fleet(fleet, small_config(cxl_bandwidth_gbps=0.5))
    assert any(
        t.slowdown_vs_isolated > 1.0 for t in contended.results
    ), "tight channel ceiling produced no interference"
    for t in contended.results:
        assert t.result.execution_time_s > 0.0
        assert t.slowdown_vs_isolated >= 1.0


def test_fleet_metrics_snapshot_has_tenant_labels():
    fleet = FleetConfig(tenants=2, tiers=2, bench="mcf")
    result = run_fleet(fleet, small_config(), with_metrics=True)
    assert result.metrics, "with_metrics=True produced no snapshot"
    families = {m["name"] for m in result.metrics["metrics"]}
    assert "fleet_tenant_slowdown" in families
    assert "fleet_tenant_bandwidth_share" in families
    assert "fleet_tenant_migrated_pages_total" in families


# ----------------------------------------------------------------------
# live observability: merged per-tenant snapshots, tracing, SLO rules


def test_merged_snapshot_carries_per_tenant_labels():
    fleet = FleetConfig(tenants=2, tiers=2, bench="mcf,roms")
    fsim = FleetSimulation(
        fleet, small_config(),
        obs=Observability(metrics=True, tracing=False),
        tenant_metrics=True,
    )
    fsim.run()
    flat = flatten_snapshot(fsim.merged_snapshot())
    tenants = {
        key.split('tenant="', 1)[1].split('"', 1)[0]
        for key in flat if 'tenant="' in key
    }
    assert {"0", "1"} <= tenants
    # tenant-scope engine series exist next to the fleet-scope gauges
    assert any(key.startswith("sim_accesses_total{") for key in flat)
    assert any(
        key.startswith("fleet_tenant_slowdown{") for key in flat
    )


def test_served_fleet_final_snapshot_matches_unserved():
    from repro.obs.live import ObsServer

    fleet = FleetConfig(tenants=2, tiers=2, bench="mcf")
    config = small_config()

    def final_snapshot(serve):
        fsim = FleetSimulation(
            fleet, config,
            obs=Observability(metrics=True, tracing=False),
            tenant_metrics=True,
        )
        if serve:
            with ObsServer(fsim.merged_snapshot):
                fsim.run()
        else:
            fsim.run()
        return fsim.merged_snapshot()

    assert _metric_mismatches(final_snapshot(True), final_snapshot(False)) == 0


def test_tenant_spans_one_group_per_traced_tenant():
    from repro.obs.exporters import merged_chrome_trace

    fleet = FleetConfig(tenants=2, tiers=2, bench="mcf")
    fsim = FleetSimulation(
        fleet, small_config(),
        obs=Observability(metrics=True, tracing=False),
        tenant_tracing=True,
    )
    fsim.run()
    groups = fsim.tenant_spans()
    assert [pid for pid, _ in groups] == [0, 1]
    assert all(spans for _, spans in groups)
    trace = merged_chrome_trace(groups)
    assert {e["pid"] for e in trace["traceEvents"]} == {0, 1}
    assert any(e["name"] == "stage.snoop" for e in trace["traceEvents"])


def test_fleet_watchdog_row_is_keyed_as_the_gauges():
    fleet = FleetConfig(tenants=2, tiers=2, bench="mcf")
    config = small_config(slo_rules="default")
    fsim = FleetSimulation(
        fleet, config,
        obs=Observability(metrics=True, tracing=False),
        tenant_metrics=True,
    )
    fsim.run()
    rows = [row for _, row in fsim.watchdog._rows]
    assert len(rows) == ACCESSES // CHUNK
    flat = flatten_snapshot(fsim.obs.snapshot())
    assert set(rows[-1]) == {
        key for key in flat
        if key.startswith(("fleet_tenant_slowdown{",
                           "fleet_tenant_bandwidth_share{"))
    }
    # a tiny uncontended fleet must not breach anything
    assert fsim.watchdog.breaches_total == 0


def test_fleet_result_without_rules_has_no_alerts():
    result = run_fleet(FleetConfig(tenants=2, tiers=2, bench="mcf"),
                       small_config())
    assert result.alerts == []
    assert result.as_dict()["alerts"] == []


# ----------------------------------------------------------------------
# one epoch loop: tenants time their stages exactly like a plain run


def stage_counts(snapshot, **labels):
    """``pipeline_stage_seconds`` count per stage for matching series."""
    family = next(
        m for m in snapshot["metrics"] if m["name"] == "pipeline_stage_seconds"
    )
    return {
        s["labels"]["stage"]: s["count"]
        for s in family["series"]
        if all(s["labels"].get(k) == v for k, v in labels.items())
    }


def test_lockstep_tenant_times_every_epoch():
    fsim = FleetSimulation(
        FleetConfig(tenants=2, tiers=2, bench="mcf"), small_config(),
        obs=Observability(metrics=True, tracing=False),
        tenant_metrics=True,
    )
    fsim.run()
    epochs = ACCESSES // CHUNK
    for tenant in ("0", "1"):
        counts = stage_counts(fsim.merged_snapshot(), tenant=tenant)
        assert counts and set(counts.values()) == {epochs}, counts


def test_three_tier_tenant_times_its_chain_stage():
    fsim = FleetSimulation(
        FleetConfig(tenants=2, tiers=3, bench="mcf"), small_config(),
        obs=Observability(metrics=True, tracing=False),
        tenant_metrics=True,
    )
    result = fsim.run()
    names = [name for name, _ in fsim.sims[0].stage_table]
    assert names[names.index("migrate") + 1] == "chain"
    assert stage_counts(result.metrics, tenant="0")["chain"] == result.epochs


def test_tenant_trace_nests_the_tick_under_the_migrate_stage():
    fsim = FleetSimulation(
        FleetConfig(tenants=2, tiers=2, bench="mcf"),
        small_config(migration_mode="async"),
        obs=Observability(metrics=False, tracing=False),
        tenant_tracing=True,
    )
    fsim.run()
    for _, spans in fsim.tenant_spans():
        ticks = [r for r in spans if r.name == "migrate.tick"]
        assert ticks and all(r.depth == 1 for r in ticks)
        migrates = {r.epoch for r in spans if r.name == "stage.migrate"}
        assert {r.epoch for r in ticks} <= migrates
        assert all(r.depth == 0 for r in spans if r.name.startswith("stage."))
