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

Sharding: tenants are only *coupled* through bandwidth arbitration,
and the arbiter's input — each tenant's demand trace — is a pure
per-tenant quantity.  When every channel ceiling is unlimited (the
default latency-only model) the contention factors are identically
1.0, so each tenant can run to completion in its own worker process
(:func:`run_tenant_shard`) and the fleet be reassembled afterwards
(:func:`assemble_fleet`) by replaying the arbiter over the recorded
demand traces — bit-identical to the lockstep run.  The sweep layer
(:func:`repro.sim.sweep.collect_fleet`) picks the path automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import NULL_OBS, Observability, live_stack
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.tracing import SpanRecord
from repro.sim.config import FleetConfig, SimConfig
from repro.sim.engine import M5Options, RunResult, Simulation
from repro.sim.perf import bandwidth_shares, contention_factors
from repro.sim.sweep import cell_seed
from repro.workloads import registry

from repro.fleet.chain import ChainStats, DemotionChain
from repro.fleet.topology import tenant_node_specs


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
        }


@dataclass
class TenantShard:
    """One tenant's run plus the demand trace the arbiter replays.

    The picklable unit of work for process-sharded fleets: everything
    :func:`assemble_fleet` needs to rebuild the tenant's fleet-level
    accounting without re-running it.
    """

    tenant: int
    bench: str
    seed: int
    result: RunResult
    #: Per-epoch, per-tier channel demand (GB/s), in epoch order.
    demands: List[List[float]]
    chain: Dict[str, float]
    slowdown_vs_isolated: float
    tier_names: List[str]
    epochs: int
    #: The tenant's own metrics-registry snapshot (picklable; empty
    #: unless the shard ran with ``with_metrics``).  The parent merges
    #: it into the fleet snapshot under a ``tenant`` label.
    metrics: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared fleet mechanics (used by both the lockstep and sharded paths)


def fleet_tier_capacities(fleet: FleetConfig, config: SimConfig) -> List[float]:
    """Channel capacity per tier position (GB/s, 0 = unlimited)."""
    caps = [config.ddr_bandwidth_gbps, config.cxl_bandwidth_gbps]
    if fleet.tiers == 3:
        caps.append(fleet.pooled_bandwidth_gbps)
    return caps


def is_coupled(fleet: FleetConfig, config: SimConfig) -> bool:
    """True when bandwidth ceilings couple the tenants' epochs.

    A coupled fleet must run in lockstep — each epoch's contention
    factors depend on every tenant's previous epoch.  Uncoupled fleets
    (every ceiling unlimited, or a single tenant) produce factors that
    are identically 1.0, so tenants can be sharded across processes.
    """
    if fleet.tenants <= 1:
        return False
    return any(c > 0.0 for c in fleet_tier_capacities(fleet, config))


def epoch_demands_gbps(sim: Simulation, epoch_s: float) -> List[float]:
    """One tenant's channel demand per tier for the epoch just run
    (GB/s of 64B-line traffic, dilation-corrected)."""
    if epoch_s <= 0.0:
        return [0.0] * len(sim.memory.nodes)
    scale = 64.0 * sim.perf.dilation / (epoch_s * 1e9)
    return [node.accesses_this_epoch * scale for node in sim.memory.nodes]


def arbitrate_epoch(
    demands: List[List[float]],
    weights: List[float],
    capacities: List[float],
    qos: bool,
    share_sums: List[List[float]],
) -> List[List[float]]:
    """One QoS arbitration round over a per-tenant demand matrix.

    Returns the per-tenant contention-factor vectors and accumulates
    each tenant's granted-share fraction of every tier's traffic into
    ``share_sums`` (the mean-share accounting both fleet paths report).
    """
    tenants = len(demands)
    tiers = len(capacities)
    factors = [[1.0] * tiers for _ in range(tenants)]
    for tier in range(tiers):
        tier_demands = [d[tier] for d in demands]
        total = sum(tier_demands)
        shares = bandwidth_shares(
            tier_demands, weights, capacities[tier], qos=qos
        )
        tier_factors = contention_factors(tier_demands, shares)
        for t in range(tenants):
            factors[t][tier] = tier_factors[t]
            granted = min(tier_demands[t], shares[t])
            share_sums[t][tier] += (
                granted / total if total > 0.0 else 1.0 / tenants
            )
    return factors


#: The fleet recorder's ``"default"`` series: the cross-tenant signals
#: that only exist at fleet scope.
FLEET_RECORD_SERIES = (
    "fleet_tenant_slowdown",
    "fleet_tenant_bandwidth_share",
    "slo_breaches_total",
)


def _build_tenant(
    fleet: FleetConfig,
    config: SimConfig,
    tenant: int,
    m5_options: Optional[M5Options] = None,
    obs: Optional[Observability] = None,
) -> Tuple[str, int, Simulation, Optional[DemotionChain]]:
    """One tenant's fully wired simulation (plus its chain, if any)."""
    bench = fleet.bench_list()[tenant]
    seed = cell_seed(config.seed, bench, tenant=tenant)
    workload = registry.build(
        bench, seed=seed, pages_per_gb=config.pages_per_gb
    )
    nodes = tenant_node_specs(
        config, fleet, tenant, workload.spec.footprint_pages
    )
    sim = Simulation(
        workload,
        config,
        policy=fleet.policy,
        m5_options=m5_options,
        obs=obs,
        nodes=nodes,
        tenant=tenant,
    )
    chain: Optional[DemotionChain] = None
    if fleet.tiers == 3:
        chain = DemotionChain(
            sim.memory,
            sim.engine,
            headroom_frac=fleet.chain_headroom_frac,
            pull_budget=fleet.chain_pull_budget,
        )
        # Right after migrate, so chain time lands in the same epoch's
        # migration accounting.
        sim.insert_stage("chain", chain.stage, after="migrate")
    return bench, seed, sim, chain


_FleetInstruments = Tuple[Gauge, Gauge, Counter]


def _register_fleet_metrics(obs: Observability) -> _FleetInstruments:
    reg = obs.registry
    return (
        reg.gauge(
            "fleet_tenant_slowdown",
            "Per-tenant slowdown vs isolated run",
            labels=("tenant",),
        ),
        reg.gauge(
            "fleet_tenant_bandwidth_share",
            "Mean granted channel share per tenant and tier",
            labels=("tenant", "tier"),
        ),
        reg.counter(
            "fleet_tenant_migrated_pages_total",
            "Per-tenant migration traffic by direction",
            labels=("tenant", "direction"),
        ),
    )


def _emit_tenant_metrics(mx: _FleetInstruments, t: TenantResult) -> None:
    mx_slowdown, mx_share, mx_traffic = mx
    label = str(t.tenant)
    mx_slowdown.labels(tenant=label).set(t.slowdown_vs_isolated)
    for name, share in t.bandwidth_share.items():
        mx_share.labels(tenant=label, tier=name).set(share)
    for direction, value in (
        ("promote", t.result.promoted),
        ("demote", t.result.demoted),
        ("demote_pooled", t.chain.get("demoted_to_pooled", 0.0)),
        ("pull_up", t.chain.get("pulled_from_pooled", 0.0)),
    ):
        mx_traffic.labels(tenant=label, direction=direction).inc(value)


# ----------------------------------------------------------------------
# the lockstep fleet


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
        self.config = config if config is not None else SimConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.sims: List[Simulation] = []
        self.chains: List[Optional[DemotionChain]] = []
        self.tenant_seeds: List[int] = []
        #: Per-tenant observability bundles (None when both concerns
        #: are off, so the default fleet builds the seed pipeline).
        self.tenant_obs: List[Optional[Observability]] = []
        for t in range(fleet.tenants):
            obs_t: Optional[Observability] = None
            if tenant_metrics or tenant_tracing:
                obs_t = Observability(
                    metrics=tenant_metrics, tracing=tenant_tracing
                )
            self.tenant_obs.append(obs_t)
            bench, seed, sim, chain = _build_tenant(
                fleet, self.config, t, m5_options, obs=obs_t
            )
            self.tenant_seeds.append(seed)
            self.sims.append(sim)
            self.chains.append(chain)
        self.weights = fleet.weight_list()
        #: Fleet channel capacities per tier position (GB/s, 0 =
        #: unlimited): what the arbiter divides among tenants.
        self.tier_capacity_gbps = fleet_tier_capacities(fleet, self.config)
        self.tier_names = [n.name for n in self.sims[0].memory.nodes]
        # Mean-share accumulators, filled by the per-epoch arbiter.
        self._share_sums = [
            [0.0] * fleet.tiers for _ in range(fleet.tenants)
        ]
        self._share_epochs = 0
        self._mx = _register_fleet_metrics(self.obs)
        # Fleet-level recorder + watchdog over the fleet gauges; the
        # tenant engines own their own (wired by SimConfig).
        self.recorder, self.watchdog = live_stack(
            self.obs.registry, self.config, FLEET_RECORD_SERIES
        )
        self.result: Optional[FleetResult] = None

    def _arbitrate(self, demands: List[List[float]]) -> List[List[float]]:
        """Turn last epoch's demand matrix into per-tenant contention
        factor vectors, accumulating granted-share fractions."""
        self._share_epochs += 1
        factors = arbitrate_epoch(
            demands,
            self.weights,
            self.tier_capacity_gbps,
            self.fleet.qos,
            self._share_sums,
        )
        if self.obs.metrics_on:
            self._refresh_tenant_gauges()
        return factors

    def _refresh_tenant_gauges(self) -> None:
        """Keep the per-tenant gauges live mid-run for ``--serve``.

        Series are touched per tenant in the same order as the final
        :func:`_emit_tenant_metrics` pass (slowdown, then shares in
        tier order), so a served run's final snapshot is identical to
        an unserved one's.
        """
        mx_slowdown, mx_share, _ = self._mx
        for t, sim in enumerate(self.sims):
            label = str(t)
            mx_slowdown.labels(tenant=label).set(
                sim.perf.slowdown_vs_isolated()
            )
            for k, name in enumerate(self.tier_names):
                mx_share.labels(tenant=label, tier=name).set(
                    self._share_sums[t][k] / self._share_epochs
                )

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
            if self.recorder is not None:
                t_now = max(st.now_s for st in states)
                self.recorder.sample(epoch, t_now)
                if self.watchdog is not None:
                    self.watchdog.evaluate(epoch, t_now)
        results = [sim.finalize(st) for sim, st in zip(sims, states)]
        return self._assemble(results, epoch)

    def _assemble(
        self, results: List[RunResult], epochs: int
    ) -> FleetResult:
        benches = self.fleet.bench_list()
        tenant_results: List[TenantResult] = []
        for t, (sim, res) in enumerate(zip(self.sims, results)):
            if self._share_epochs > 0:
                shares = {
                    name: self._share_sums[t][k] / self._share_epochs
                    for k, name in enumerate(self.tier_names)
                }
            else:
                shares = {name: 1.0 for name in self.tier_names}
            chain = self.chains[t]
            chain_stats = chain.stats if chain is not None else ChainStats()
            tenant_result = TenantResult(
                tenant=t,
                bench=benches[t],
                seed=self.tenant_seeds[t],
                weight=self.weights[t],
                result=res,
                slowdown_vs_isolated=sim.perf.slowdown_vs_isolated(),
                bandwidth_share=shares,
                chain=chain_stats.as_dict(),
            )
            tenant_results.append(tenant_result)
            if self.obs.metrics_on:
                _emit_tenant_metrics(self._mx, tenant_result)
        self.result = FleetResult(
            tenants=self.fleet.tenants,
            tiers=self.fleet.tiers,
            policy=self.fleet.policy,
            qos=self.fleet.qos,
            epochs=epochs,
            results=tenant_results,
            metrics=self.merged_snapshot() if self.obs.metrics_on else {},
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


# ----------------------------------------------------------------------
# the sharded fleet (uncoupled tenants, one worker process each)


def run_tenant_shard(
    fleet: FleetConfig,
    config: Optional[SimConfig] = None,
    tenant: int = 0,
    m5_options: Optional[M5Options] = None,
    with_metrics: bool = False,
) -> TenantShard:
    """Run one tenant of an *uncoupled* fleet to completion.

    The process-pool work unit behind
    :func:`repro.sim.sweep.collect_fleet`: the tenant steps its own
    epochs alone (contention factors would be identically 1.0) while
    recording the per-epoch demand trace the arbiter needs, so
    :func:`assemble_fleet` can rebuild the exact lockstep accounting.
    With ``with_metrics`` the tenant gets its own registry and ships
    the (picklable) snapshot back on :attr:`TenantShard.metrics`.
    """
    config = config if config is not None else SimConfig()
    if is_coupled(fleet, config):
        raise ValueError(
            "bandwidth-coupled fleets must run in lockstep: a tenant "
            "shard cannot see its neighbors' demands"
        )
    obs_t = (
        Observability(metrics=True, tracing=False) if with_metrics else None
    )
    bench, seed, sim, chain = _build_tenant(
        fleet, config, tenant, m5_options, obs=obs_t
    )
    st = sim._initial_state()
    policy = sim.epoch_policy
    demands: List[List[float]] = []
    epochs = 0
    while st.remaining > 0:
        epochs += 1
        sim.step_epoch(st, policy)
        demands.append(epoch_demands_gbps(sim, st.perf.total_s))
    result = sim.finalize(st)
    chain_stats = chain.stats if chain is not None else ChainStats()
    return TenantShard(
        tenant=tenant,
        bench=bench,
        seed=seed,
        result=result,
        demands=demands,
        chain=chain_stats.as_dict(),
        slowdown_vs_isolated=sim.perf.slowdown_vs_isolated(),
        tier_names=[n.name for n in sim.memory.nodes],
        epochs=epochs,
        metrics=obs_t.snapshot() if obs_t is not None else {},
    )


def assemble_fleet(
    fleet: FleetConfig,
    config: Optional[SimConfig],
    shards: List[TenantShard],
    with_metrics: bool = False,
) -> FleetResult:
    """Reassemble a sharded fleet into the lockstep's FleetResult.

    Replays the QoS arbiter over the shards' recorded demand traces —
    epoch ``e``'s demands are arbitrated before epoch ``e+1``, exactly
    the lockstep lag, and the final epoch's demands are never
    arbitrated — so the granted-share accounting matches the lockstep
    run bit for bit.
    """
    config = config if config is not None else SimConfig()
    shards = sorted(shards, key=lambda s: s.tenant)
    if [s.tenant for s in shards] != list(range(fleet.tenants)):
        raise ValueError(
            f"need exactly one shard per tenant 0..{fleet.tenants - 1}, "
            f"got {[s.tenant for s in shards]}"
        )
    weights = fleet.weight_list()
    capacities = fleet_tier_capacities(fleet, config)
    tier_names = shards[0].tier_names
    epochs = max(s.epochs for s in shards)
    share_sums = [[0.0] * fleet.tiers for _ in range(fleet.tenants)]
    share_epochs = 0
    if fleet.tenants > 1:
        for e in range(epochs - 1):
            row = [
                s.demands[e] if e < len(s.demands) else [0.0] * fleet.tiers
                for s in shards
            ]
            arbitrate_epoch(row, weights, capacities, fleet.qos, share_sums)
            share_epochs += 1
    obs = (
        Observability(metrics=True, tracing=False) if with_metrics else NULL_OBS
    )
    mx = _register_fleet_metrics(obs)
    tenant_results: List[TenantResult] = []
    for s in shards:
        if share_epochs > 0:
            shares = {
                name: share_sums[s.tenant][k] / share_epochs
                for k, name in enumerate(tier_names)
            }
        else:
            shares = {name: 1.0 for name in tier_names}
        tenant_result = TenantResult(
            tenant=s.tenant,
            bench=s.bench,
            seed=s.seed,
            weight=weights[s.tenant],
            result=s.result,
            slowdown_vs_isolated=s.slowdown_vs_isolated,
            bandwidth_share=shares,
            chain=s.chain,
        )
        tenant_results.append(tenant_result)
        if obs.metrics_on:
            _emit_tenant_metrics(mx, tenant_result)
    metrics: Dict[str, object] = {}
    if obs.metrics_on:
        # Merge the shards' shipped registries under tenant labels —
        # the same shape FleetSimulation.merged_snapshot() builds for
        # the lockstep path, so sharded stays snapshot-identical.
        if any(s.metrics for s in shards):
            merged = MetricsRegistry(enabled=True)
            merged.merge(obs.registry.snapshot())
            for s in shards:
                if s.metrics:
                    merged.merge(
                        s.metrics, extra_labels={"tenant": str(s.tenant)}
                    )
            metrics = merged.snapshot()
        else:
            metrics = obs.snapshot()
    return FleetResult(
        tenants=fleet.tenants,
        tiers=fleet.tiers,
        policy=fleet.policy,
        qos=fleet.qos,
        epochs=epochs,
        results=tenant_results,
        metrics=metrics,
    )


def run_fleet(
    fleet: FleetConfig,
    config: Optional[SimConfig] = None,
    m5_options: Optional[M5Options] = None,
    with_metrics: bool = False,
) -> FleetResult:
    """Convenience one-shot lockstep fleet runner (picklable)."""
    obs = Observability(metrics=True, tracing=False) if with_metrics else None
    return FleetSimulation(
        fleet,
        config=config,
        m5_options=m5_options,
        obs=obs,
        tenant_metrics=with_metrics,
    ).run()
