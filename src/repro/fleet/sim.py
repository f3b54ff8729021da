"""The fleet simulation: N tenants in lockstep on a shared hierarchy.

One :class:`FleetSimulation` owns one :class:`Simulation` per tenant
(its own workload trace, seed, page table, and capacity-partitioned
tier shares — see :mod:`repro.fleet.topology`) and advances them in
lockstep, one epoch each per round, through the *unchanged* per-tenant
epoch pipeline (``Simulation.step_epoch``).  Three fleet-level
mechanisms couple the tenants:

* **bandwidth arbitration** — after every round, each tenant's demand
  rate per tier is measured; before the next round, the QoS arbiter
  (:func:`repro.sim.perf.bandwidth_shares`) turns the demand vector
  into per-tenant shares of each tier's channel, and the resulting
  ≥1 contention factors stretch each tenant's memory time (the
  noisy-neighbor model).  Demands lag one epoch — the fleet arbitrates
  on what tenants just did, as a real QoS controller would.
* **demotion chains** — 3-tier tenants get a
  :class:`~repro.fleet.chain.DemotionChain` stage spliced into their
  pipeline right after ``migrate``, cascading cold pages
  DRAM → CXL → pooled and pulling re-accessed pooled pages back up.
* **per-tenant accounting** — slowdown vs the isolated run (computed
  from the perf model's shadow uncontended clock, no second run
  needed), mean bandwidth share per tier, and migration/chain traffic,
  exported per tenant and (optionally) as labelled fleet metrics.

A 1-tenant fleet never arbitrates (the factors path is skipped
entirely, not computed-then-ignored), so a 1-tenant, 2-tier fleet is
bit-identical to the single-run engine — enforced by the ``fleet``
differential oracle in :mod:`repro.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import NULL_OBS, Observability, build_watchdog, series_key
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanRecord
from repro.sim.config import FleetConfig, SimConfig
from repro.sim.engine import M5Options, RunResult, Simulation
from repro.sim.perf import bandwidth_shares, contention_factors
from repro.sim.sweep import cell_seed
from repro.workloads import registry

from repro.fleet.chain import ChainStats, DemotionChain
from repro.fleet.topology import POOLED_BANDWIDTH_GBPS, tenant_node_specs


@dataclass
class TenantResult:
    """One tenant's outcome plus its fleet-level accounting."""

    tenant: int
    bench: str
    seed: int
    weight: float
    result: RunResult
    #: Contended / uncontended execution time (1.0 = no interference).
    slowdown_vs_isolated: float
    #: Mean granted share of each tier's channel, by tier name, over
    #: the arbitrated epochs (1.0 throughout for a 1-tenant fleet).
    bandwidth_share: Dict[str, float]
    #: Demotion-chain traffic (zeros for 2-tier fleets).
    chain: Dict[str, float]

    def metrics_row(self) -> Dict[str, object]:
        """Flat per-tenant row for the metrics snapshot artifact."""
        row: Dict[str, object] = {
            "tenant": self.tenant,
            "bench": self.bench,
            "seed": self.seed,
            "weight": self.weight,
            "execution_time_s": self.result.execution_time_s,
            "slowdown_vs_isolated": self.slowdown_vs_isolated,
            "promoted": self.result.promoted,
            "demoted": self.result.demoted,
            "migration_time_s": self.result.migration_time_s,
            "nr_pages_ddr": self.result.nr_pages_ddr,
            "nr_pages_cxl": self.result.nr_pages_cxl,
        }
        for tier, share in self.bandwidth_share.items():
            row[f"bw_share_{tier}"] = share
        for key, value in self.chain.items():
            row[f"chain_{key}"] = value
        for key, value in self.result.extra.items():
            row[key] = value
        return row


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    tenants: int
    tiers: int
    policy: str
    qos: bool
    epochs: int
    results: List[TenantResult]
    #: Fleet-level metrics-registry snapshot (when obs metrics are on).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: The fleet-scope watchdog's fired breaches, in order (``[]``
    #: without ``slo_rules``).  Tenant alerts ride the tenant timelines.
    alerts: List[Dict[str, object]] = field(default_factory=list)

    def tenant_metrics(self) -> List[Dict[str, object]]:
        """Per-tenant metric rows (the CI snapshot artifact body)."""
        return [t.metrics_row() for t in self.results]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary for ``repro fleet --out``."""
        return {
            "tenants": self.tenants,
            "tiers": self.tiers,
            "policy": self.policy,
            "qos": self.qos,
            "epochs": self.epochs,
            "tenant_metrics": self.tenant_metrics(),
            "alerts": self.alerts,
        }


def epoch_demands_gbps(sim: Simulation, epoch_s: float) -> List[float]:
    """One tenant's channel demand per tier for the epoch just run
    (GB/s of 64B-line traffic, dilation-corrected)."""
    if epoch_s <= 0.0:
        return [0.0] * len(sim.memory.nodes)
    scale = 64.0 * sim.perf.dilation / (epoch_s * 1e9)
    return [node.accesses_this_epoch * scale for node in sim.memory.nodes]


class FleetSimulation:
    """N tenants × one shared tier hierarchy, stepped in lockstep.

    Args:
        fleet: the fleet shape (tenants, tiers, QoS policy, chain
            knobs).
        config: per-run engine knobs shared by every tenant (trace
            length, seed, bandwidth ceilings, ...).
        m5_options: M5 stack configuration (M5 policies only).
        obs: fleet-level observability; when metrics are on, the
            per-tenant gauges/counters (slowdown, bandwidth share,
            migration and chain traffic) are registered here with a
            ``tenant`` label and snapshotted onto
            ``FleetResult.metrics``.
        tenant_metrics: give every tenant its own metrics registry;
            tenant snapshots are merged into ``FleetResult.metrics``
            (and :meth:`merged_snapshot`) under a ``tenant`` label.
        tenant_tracing: give every tenant a tracer; each tenant's
            stages record ``stage.*`` spans (with the async migration
            tick nested under ``stage.migrate``), collected by
            :meth:`tenant_spans` for the per-tenant Chrome trace.
    """

    def __init__(
        self,
        fleet: FleetConfig,
        config: Optional[SimConfig] = None,
        m5_options: Optional[M5Options] = None,
        obs: Optional[Observability] = None,
        tenant_metrics: bool = False,
        tenant_tracing: bool = False,
    ) -> None:
        self.fleet = fleet
        self.config = config = config if config is not None else SimConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.benches = fleet.bench_list()
        self.sims: List[Simulation] = []
        self.chains: List[Optional[DemotionChain]] = []
        self.tenant_seeds: List[int] = []
        #: Per-tenant observability bundles (None when both concerns
        #: are off, so the default fleet builds the seed pipeline).
        self.tenant_obs: List[Optional[Observability]] = []
        for t, bench in enumerate(self.benches):
            obs_t: Optional[Observability] = None
            if tenant_metrics or tenant_tracing:
                obs_t = Observability(
                    metrics=tenant_metrics, tracing=tenant_tracing
                )
            seed = cell_seed(config.seed, bench, tenant=t)
            workload = registry.build(
                bench, seed=seed, pages_per_gb=config.pages_per_gb
            )
            sim = Simulation(
                workload,
                config,
                policy=fleet.policy,
                m5_options=m5_options,
                obs=obs_t,
                nodes=tenant_node_specs(
                    config, fleet, t, workload.spec.footprint_pages
                ),
                tenant=t,
            )
            chain: Optional[DemotionChain] = None
            if fleet.tiers == 3:
                chain = DemotionChain(
                    sim.memory,
                    sim.engine,
                    headroom_frac=fleet.chain_headroom_frac,
                    pull_budget=fleet.chain_pull_budget,
                )
                # Right after migrate, so chain time lands in the same
                # epoch's migration accounting.
                sim.insert_stage("chain", chain.stage, after="migrate")
            self.tenant_obs.append(obs_t)
            self.tenant_seeds.append(seed)
            self.sims.append(sim)
            self.chains.append(chain)
        self.weights = fleet.weight_list()
        #: Fleet channel capacities per tier position (GB/s, 0 =
        #: unlimited): what the arbiter divides among tenants.
        self.tier_capacity_gbps = [
            config.ddr_bandwidth_gbps, config.cxl_bandwidth_gbps
        ]
        if fleet.tiers == 3:
            self.tier_capacity_gbps.append(POOLED_BANDWIDTH_GBPS)
        self.tier_names = [n.name for n in self.sims[0].memory.nodes]
        # Mean-share accumulators, filled by the per-epoch arbiter.
        self._share_sums = [
            [0.0] * fleet.tiers for _ in range(fleet.tenants)
        ]
        self._share_epochs = 0
        reg = self.obs.registry
        self._gauges = {
            "fleet_tenant_slowdown": reg.gauge(
                "fleet_tenant_slowdown",
                "Per-tenant slowdown vs isolated run",
                labels=("tenant",),
            ),
            "fleet_tenant_bandwidth_share": reg.gauge(
                "fleet_tenant_bandwidth_share",
                "Mean granted channel share per tenant and tier",
                labels=("tenant", "tier"),
            ),
        }
        self._mx_traffic = reg.counter(
            "fleet_tenant_migrated_pages_total",
            "Per-tenant migration traffic by direction",
            labels=("tenant", "direction"),
        )
        #: The fleet-scope watchdog judges one row per epoch: each
        #: tenant's slowdown and mean share, keyed as the gauges'
        #: series and set at each arbitration (empty before the first).
        #: The tenant engines judge their own ``epoch`` records.
        self.watchdog = build_watchdog(config, reg)
        self._row: Dict[str, float] = {}
        self.result: Optional[FleetResult] = None

    def _arbitrate(self, demands: List[List[float]]) -> List[List[float]]:
        """One QoS arbitration round: turn last epoch's per-tenant
        demand matrix into per-tenant contention-factor vectors, and
        accumulate each tenant's granted-share fraction of every
        tier's traffic."""
        self._share_epochs += 1
        tenants = len(demands)
        factors = [[1.0] * len(self.tier_names) for _ in range(tenants)]
        for tier, capacity in enumerate(self.tier_capacity_gbps):
            tier_demands = [d[tier] for d in demands]
            total = sum(tier_demands)
            shares = bandwidth_shares(
                tier_demands, self.weights, capacity, qos=self.fleet.qos
            )
            tier_factors = contention_factors(tier_demands, shares)
            for t in range(tenants):
                factors[t][tier] = tier_factors[t]
                granted = min(tier_demands[t], shares[t])
                self._share_sums[t][tier] += (
                    granted / total if total > 0.0 else 1.0 / tenants
                )
        if self.watchdog is not None:
            self._row = {series_key(name, labels): value
                         for name, labels, value in self._tenant_values()}
        if self.obs.metrics_on:
            self._refresh_tenant_gauges()
        return factors

    def _mean_shares(self, t: int) -> Dict[str, float]:
        """Tenant ``t``'s mean granted share of each tier's channel
        (1.0 before the first arbitration, so always for one tenant)."""
        if self._share_epochs == 0:
            return {name: 1.0 for name in self.tier_names}
        return {
            name: self._share_sums[t][k] / self._share_epochs
            for k, name in enumerate(self.tier_names)
        }

    def _tenant_values(self):
        """``(gauge name, labels, value)`` for each tenant's slowdown
        and mean share of each tier."""
        for t, sim in enumerate(self.sims):
            tenant = str(t)
            yield ("fleet_tenant_slowdown", {"tenant": tenant},
                   sim.perf.slowdown_vs_isolated())
            for tier, share in self._mean_shares(t).items():
                yield ("fleet_tenant_bandwidth_share",
                       {"tenant": tenant, "tier": tier}, share)

    def _refresh_tenant_gauges(self) -> None:
        """Set the per-tenant slowdown and share gauges: live mid-run
        for ``--serve``, and once more when the run is assembled, so a
        served run's final snapshot is identical to an unserved one's."""
        for name, labels, value in self._tenant_values():
            self._gauges[name].labels(**labels).set(value)

    def run(self) -> FleetResult:
        """Advance every tenant to trace exhaustion, then finalize."""
        sims = self.sims
        states = [sim._initial_state() for sim in sims]
        policies = [sim.epoch_policy for sim in sims]
        multi = self.fleet.tenants > 1
        demands: Optional[List[List[float]]] = None
        epoch = 0
        while any(st.remaining > 0 for st in states):
            epoch += 1
            factors = (
                self._arbitrate(demands)
                if (multi and demands is not None)
                else None
            )
            new_demands: List[List[float]] = []
            for t, (sim, st) in enumerate(zip(sims, states)):
                if st.remaining <= 0:
                    new_demands.append([0.0] * len(sim.memory.nodes))
                    continue
                if factors is not None:
                    sim.perf.contention = factors[t]
                sim.step_epoch(st, policies[t])
                new_demands.append(
                    epoch_demands_gbps(sim, st.perf.total_s)
                    if multi
                    else []
                )
            demands = new_demands
            if self.watchdog is not None:
                self.watchdog.observe(
                    epoch, max(st.now_s for st in states), self._row
                )
        results = [sim.finalize(st) for sim, st in zip(sims, states)]
        return self._assemble(results, epoch)

    def _assemble(
        self, results: List[RunResult], epochs: int
    ) -> FleetResult:
        tenant_results: List[TenantResult] = []
        for t, (sim, res) in enumerate(zip(self.sims, results)):
            chain = self.chains[t]
            chain_stats = chain.stats if chain is not None else ChainStats()
            tenant_results.append(TenantResult(
                tenant=t,
                bench=self.benches[t],
                seed=self.tenant_seeds[t],
                weight=self.weights[t],
                result=res,
                slowdown_vs_isolated=sim.perf.slowdown_vs_isolated(),
                bandwidth_share=self._mean_shares(t),
                chain=chain_stats.as_dict(),
            ))
        if self.obs.metrics_on:
            self._refresh_tenant_gauges()
            for tr in tenant_results:
                label = str(tr.tenant)
                for direction, value in (
                    ("promote", tr.result.promoted),
                    ("demote", tr.result.demoted),
                    ("demote_pooled", tr.chain["demoted_to_pooled"]),
                    ("pull_up", tr.chain["pulled_from_pooled"]),
                ):
                    self._mx_traffic.labels(
                        tenant=label, direction=direction
                    ).inc(value)
        self.result = FleetResult(
            tenants=self.fleet.tenants,
            tiers=self.fleet.tiers,
            policy=self.fleet.policy,
            qos=self.fleet.qos,
            epochs=epochs,
            results=tenant_results,
            metrics=self.merged_snapshot() if self.obs.metrics_on else {},
            alerts=(
                list(self.watchdog.alerts) if self.watchdog is not None else []
            ),
        )
        return self.result

    def merged_snapshot(self) -> Dict[str, object]:
        """One fleet-wide snapshot: the fleet-level families plus every
        tenant registry merged in under a ``tenant`` label.

        Safe to call mid-run from the :class:`~repro.obs.live.ObsServer`
        scrape thread — a torn read raises ``RuntimeError`` and the
        server retries.  Without per-tenant registries this is exactly
        the fleet registry's own snapshot.
        """
        if not self.obs.metrics_on:
            return {}
        tenant_regs = [
            (t, obs_t)
            for t, obs_t in enumerate(self.tenant_obs)
            if obs_t is not None and obs_t.metrics_on
        ]
        if not tenant_regs:
            return self.obs.snapshot()
        merged = MetricsRegistry(enabled=True)
        merged.merge(self.obs.registry.snapshot())
        for t, obs_t in tenant_regs:
            merged.merge(
                obs_t.registry.snapshot(), extra_labels={"tenant": str(t)}
            )
        return merged.snapshot()

    def tenant_spans(self) -> List[Tuple[int, List[SpanRecord]]]:
        """Per-tenant completed spans (tenants with tracing on only),
        for the merged per-tenant Chrome trace export."""
        return [
            (t, obs_t.tracer.spans)
            for t, obs_t in enumerate(self.tenant_obs)
            if obs_t is not None and obs_t.tracing_on
        ]
