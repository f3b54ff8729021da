"""Simulation configuration shared by the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.memory.tiers import CXL_LATENCY_NS
from repro.workloads.registry import (
    PAGES_PER_GB,
    cxl_capacity_pages,
    ddr_capacity_pages,
)


@dataclass
class SimConfig:
    """Knobs of one simulated run.

    The paper's fixed testbed numbers are module constants beside
    their one reader, not fields: the DDR latency
    (:data:`repro.memory.tiers.DDR_LATENCY_NS`), the 54 µs page
    migration (:data:`repro.memory.migration.MIGRATION_COST_US`), the
    core's frequency, IPC and migration overlap (:mod:`repro.sim.perf`)
    and the async engine's dirty window (:mod:`repro.sim.engine`).

    Attributes:
        total_accesses: DRAM accesses to simulate (the trace length).
        chunk_size: accesses per epoch (the engine's time step).
        ddr_pages / cxl_pages: tier capacities; defaults reproduce the
            paper's 3GB-DDR-cap / 8GB-CXL setup at the registry's
            scale factor.
        cxl_latency_ns: CXL load-to-use latency (§7.2: 270ns against
            DDR's 100ns); the latency-sensitivity study sweeps it.
        mlp: memory-level parallelism — outstanding-miss overlap
            dividing the per-access stall.
        migrate: False runs identification-only (the §4.1 S1 mode
            where policies record hot pages but never migrate).
        migration_batch: max pages migrated per epoch.
        migration_mode: "instant" (atomic flat-cost migration, the
            default) or "async" (the transactional subsystem — see the
            ``migration_*`` knobs below).
        seed: RNG seed.
        checkpoints: number of evenly spaced measurement points at
            which access-count ratios are snapshotted (the paper
            measures at 10 random execution points).
    """

    total_accesses: int = 2_000_000
    chunk_size: int = 65_536
    footprint_scale: float = 0.0  # 0 = derive from pages_per_gb
    trace_subsample: float = 16.0
    time_dilation: float = 0.0  # 0 = footprint_scale * trace_subsample
    ddr_pages: int = field(default_factory=ddr_capacity_pages)
    cxl_pages: int = field(default_factory=cxl_capacity_pages)
    cxl_latency_ns: float = CXL_LATENCY_NS
    mlp: float = 4.0
    #: Per-node bandwidth ceilings in GB/s (0 = unlimited, the default
    #: latency-only model).  Table 2's DDR side is 4x DDR5-4800
    #: (~153GB/s); a CXL x16 PCIe5 link is ~64GB/s.
    ddr_bandwidth_gbps: float = 0.0
    cxl_bandwidth_gbps: float = 0.0
    migrate: bool = True
    migration_batch: int = 512
    #: ``"instant"`` applies decisions atomically at the paper's flat
    #: 54 µs/page cost; ``"async"`` routes them through the
    #: transactional subsystem in ``repro.migration`` (bounded queue,
    #: in-flight budgets, dirty-recheck aborts, retry/backoff), with
    #: migration copy traffic charged as contention against demand
    #: traffic instead of a flat cost.
    migration_mode: str = "instant"
    #: Async mode: max page copies in flight per epoch.
    migration_inflight_budget: int = 128
    #: Async mode: bounded queue capacity (overflow drops + counts).
    migration_queue_capacity: int = 4096
    #: Async mode: injected mid-copy abort probability (robustness
    #: testing hook; 0 disables injection).
    migration_abort_rate: float = 0.0
    #: Async mode: aborted requests retry this many times, then drop.
    migration_max_retries: int = 3
    #: Async mode: migration copy-engine bandwidth in GB/s (0 = only
    #: the in-flight budget throttles the queue).
    migration_copy_gbps: float = 0.0
    #: Async mode: what a full fast tier does to a promotion —
    #: ``"demote-first"`` evicts an MGLRU victim to make room (TPP's
    #: discipline), ``"abort"`` fails the transaction with ENOMEM.
    migration_enomem_policy: str = "demote-first"
    #: Async mode: fraction of accesses that are stores (drives the
    #: dirty-page model behind the Nomad-style recheck).
    write_fraction: float = 0.3
    #: Run the :mod:`repro.verify` invariant catalogue after every
    #: epoch (counter conservation, tier conservation, tracker/queue
    #: bounds, non-negative perf times).  Off by default: the unchecked
    #: pipeline stays bit-identical to the frozen goldens; on, a
    #: violation aborts the run with an ``InvariantViolation``.
    check_invariants: bool = False
    #: SLO watchdog rules over the ``epoch`` record: empty disables
    #: the watchdog, ``"default"`` loads the built-in catalogue (queue
    #: saturation, epoch-duration p99, bandwidth starvation), else a
    #: path to a JSON rule file (see :mod:`repro.obs.slo`).
    slo_rules: str = ""
    #: Persist the full simulation state every this many epochs
    #: (0 disables checkpointing entirely — the seed pipeline).
    #: Resuming from a checkpoint reproduces the uninterrupted run
    #: bit-identically (the ``resume`` oracle in :mod:`repro.verify`).
    checkpoint_every: int = 0
    #: Destination file for periodic checkpoints (atomically replaced
    #: on every write).  Required when ``checkpoint_every > 0``.
    checkpoint_path: str = ""
    seed: int = 0
    checkpoints: int = 10
    pages_per_gb: int = PAGES_PER_GB

    def __post_init__(self) -> None:
        if self.total_accesses <= 0 or self.chunk_size <= 0:
            raise ValueError("trace sizes must be positive")
        if self.mlp <= 0:
            raise ValueError("mlp must be positive")
        if self.checkpoints < 1:
            raise ValueError("need at least one checkpoint")
        if self.time_dilation < 0 or self.footprint_scale < 0:
            raise ValueError("scale factors must be non-negative")
        if self.trace_subsample < 1:
            raise ValueError("trace_subsample must be >= 1")
        if self.migration_mode not in ("instant", "async"):
            raise ValueError(
                f"migration_mode must be 'instant' or 'async', "
                f"got {self.migration_mode!r}"
            )
        if self.migration_enomem_policy not in ("demote-first", "abort"):
            raise ValueError(
                "migration_enomem_policy must be 'demote-first' or 'abort'"
            )
        if self.migration_inflight_budget < 1:
            raise ValueError("migration_inflight_budget must be positive")
        if not 0.0 <= self.migration_abort_rate <= 1.0:
            raise ValueError("migration_abort_rate must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError(
                "checkpoint_every > 0 requires a checkpoint_path"
            )
        # Two scale-down factors relate the model to the real system:
        #
        # * footprint_scale — each model page groups this many real
        #   4KB pages (real pages per GB = 262144 vs the registry's
        #   scaled pages_per_gb), and carries their combined accesses;
        # * trace_subsample — the model trace keeps 1 of this many
        #   real accesses (systematic time sampling).
        #
        # time_dilation = footprint_scale * trace_subsample: each model
        # access stands for that many real accesses, so dilating time
        # by it preserves real wall-clock — every policy keeps its
        # real-world cadence (ANB scan periods, DAMON intervals,
        # Elector periods) and real per-event CPU costs.
        if self.footprint_scale == 0:
            self.footprint_scale = 262144 / self.pages_per_gb
        if self.time_dilation == 0:
            self.time_dilation = self.footprint_scale * self.trace_subsample

    @property
    def num_epochs(self) -> int:
        return -(-self.total_accesses // self.chunk_size)


@dataclass
class FleetConfig:
    """Knobs of one multi-tenant fleet run (see ``docs/fleet.md``).

    A fleet runs ``tenants`` independent workloads in lockstep epochs
    on a shared tier hierarchy: each tenant gets a weighted capacity
    share of every tier (carved into a private physical-address
    window), and the tiers' channel bandwidth is arbitrated each
    epoch by the QoS model in :mod:`repro.sim.perf`.  Per-run engine
    knobs (trace length, seed, bandwidth ceilings, ...) stay
    on :class:`SimConfig`; this object holds only the fleet shape.

    Attributes:
        tenants: number of co-located workloads.
        tiers: tier hierarchy depth — 2 (DDR + CXL) or 3 (DDR + CXL +
            pooled CXL behind a switch).
        bench: comma-separated benchmark names, assigned round-robin
            over tenants.
        policy: page-migration policy every tenant runs.
        weights: comma-separated per-tenant QoS weights (empty =
            equal); cycled over tenants like ``bench``.
        qos: True arbitrates bandwidth by weighted max-min fairness;
            False degrades to proportional sharing (every tenant slows
            by the same factor when the channel saturates).
        pooled_capacity_gb: size of the shared pooled tier (3-tier
            fleets only); its latency and (unlimited) channel ceiling
            are constants in :mod:`repro.fleet.topology`.
        chain_headroom_frac: fraction of each tenant's CXL share the
            demotion chain keeps free by demoting cold pages to the
            pooled tier (the DRAM→CXL→pooled chain's middle link).
        chain_pull_budget: max pooled pages pulled back up to CXL per
            tenant-epoch when they are re-accessed (0 disables
            pull-ups).
    """

    tenants: int = 3
    tiers: int = 3
    bench: str = "mcf"
    policy: str = "m5-hpt"
    weights: str = ""
    qos: bool = True
    pooled_capacity_gb: float = 16.0
    chain_headroom_frac: float = 0.02
    chain_pull_budget: int = 64

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("a fleet needs at least one tenant")
        if self.tiers not in (2, 3):
            raise ValueError("tiers must be 2 (DDR+CXL) or 3 (+pooled)")
        if not self.bench.strip():
            raise ValueError("bench must name at least one benchmark")
        if self.pooled_capacity_gb <= 0 and self.tiers == 3:
            raise ValueError("pooled_capacity_gb must be positive")
        if not 0.0 <= self.chain_headroom_frac < 1.0:
            raise ValueError("chain_headroom_frac must be in [0, 1)")
        if self.chain_pull_budget < 0:
            raise ValueError("chain_pull_budget must be non-negative")
        self.weight_list()  # validate eagerly

    def bench_list(self) -> List[str]:
        """Per-tenant benchmark names (round-robin over ``bench``)."""
        names = [b.strip() for b in self.bench.split(",") if b.strip()]
        return [names[t % len(names)] for t in range(self.tenants)]

    def weight_list(self) -> List[float]:
        """Per-tenant QoS weights (round-robin; empty = all 1.0)."""
        raw = [w.strip() for w in self.weights.split(",") if w.strip()]
        if not raw:
            return [1.0] * self.tenants
        vals = [float(w) for w in raw]
        if any(v <= 0 for v in vals):
            raise ValueError("tenant weights must be positive")
        return [vals[t % len(vals)] for t in range(self.tenants)]
