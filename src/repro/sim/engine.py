"""The simulation engine: a per-epoch pipeline over pluggable policies.

One :class:`Simulation` reproduces the paper's run methodology as a
fixed pipeline of stages executed once per epoch::

    trace → translate → snoop → policy → migrate → perf → checkpoint

1. **trace** — the workload emits the epoch's address chunk;
2. **translate** — addresses pass through the page map; the tiers
   count the epoch's traffic (all application pages start on CXL
   DRAM, the §4.1/§7 cgroup binding);
3. **snoop** — CXL-bound requests pass through the controller, where
   PAC (always), WAC (optionally), and the M5 trackers (when M5 is
   the policy) snoop every address; MGLRU records recency;
4. **policy** — the active page-migration policy observes the epoch
   through the uniform :class:`~repro.baselines.base.EpochPolicy`
   interface and returns a
   :class:`~repro.baselines.base.PolicyDecision`;
5. **migrate** — the engine applies the decision: promotions first
   (once DDR is full every promotion demotes an MGLRU victim), then
   the policy's proactive watermark demotions;
6. **perf** — the performance model converts tier hit counts, policy
   CPU overhead, and migration work into simulated time;
7. **checkpoint** — in identification-only mode, the access-count
   ratio is snapshotted at the configured measurement points.

CPU-driven baselines and the M5 manager flow through the *same*
policy stage — there is no per-family branching in the loop — so a
new policy only needs to implement ``EpochPolicy`` to plug in.

The perf stage publishes one ``epoch`` event per epoch (tier traffic
and occupancy, promotions and demotions, policy overhead and
nominations, migration time) to a
:class:`~repro.sim.telemetry.TelemetryBus` and feeds the per-epoch
counters from the same values, so the timeline and the metrics cannot
disagree; a ring-buffer sink of :data:`TIMELINE_CAPACITY` events is
attached by default and surfaces as ``RunResult.timeline``.

Passing an :class:`~repro.obs.Observability` bundle turns on the
observability layer: the engine, manager, async migration engine, and
CXL controller register counters/gauges/histograms into its metrics
registry (snapshotted onto ``RunResult.metrics``), and every stage is
wrapped once, when the stage tuple is built, in a
:class:`~repro.obs.tracing.TimedStage` that opens its tracing span
(wall + simulated time, with the async migration tick nested
underneath ``stage.migrate``) and observes ``pipeline_stage_seconds``.
Every epoch loop (``run``, fleet tenants, service streams) advances
through :meth:`Simulation.step_epoch`, so all of them get the same
stage timing.  Without the bundle, the shared disabled instance makes
every instrument a no-op and the stage tuple holds the bare bound
stage methods: the seed pipeline, with no wrapper and no clock read.

``config.migrate = False`` selects the identification-only mode
(§4.1 S1): policies build their hot-page lists but nothing moves, so
PAC's counts score them cleanly.

``config.migration_mode = "async"`` replaces the instantaneous
migrate stage with the transactional subsystem in
:mod:`repro.migration`: the decision's promotions (and the Promoter's
writes, for M5) *enqueue* into a bounded queue, and one engine tick
per epoch executes requests as Nomad-style transactions — shadow copy,
dirty recheck against the epoch's snooped writes, then commit or
abort with retry/backoff — under a per-epoch in-flight budget and an
optional copy-bandwidth throttle.  Copy traffic is charged into the
performance model as contention against demand traffic
(``migration.enqueue/commit/abort/retry`` telemetry events trace the
queue's behaviour).  Instant mode stays the default.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.baselines import (
    AutoNumaBalancing,
    Damon,
    EpochPolicy,
    EpochView,
    MigrationPolicy,
    NoMigration,
    PebsSampler,
    PolicyDecision,
    PteScanner,
    Tpp,
)
from repro.core.manager import (
    HPT_DRIVEN,
    HPT_ONLY,
    HWT_DRIVEN,
    Elector,
    M5Manager,
    Nominator,
    power_fscale,
)
from repro.core.trackers import make_hpt, make_hwt
from repro.cxl.controller import CxlController
from repro.cxl.pac import PageAccessCounter
from repro.cxl.wac import WordAccessCounter
from repro.memory.address import PAGE_SHIFT
from repro.memory.migration import MigrationCostModel, MigrationEngine
from repro.memory.mglru import MultiGenLru
from repro.memory.tiers import NodeKind, NodeSpec, TieredMemory
from repro.migration import AsyncMigrationConfig, AsyncMigrationEngine, TickReport
from repro.obs import NULL_OBS, Observability, live_stack
from repro.obs.tracing import SimClock, TimedStage
from repro.sim.config import SimConfig
from repro.sim.perf import EpochPerf, PerformanceModel
from repro.sim.telemetry import RingBufferSink, TelemetryBus
from repro.workloads.base import SyntheticWorkload

#: Registry-visible policy names.
BASELINE_POLICIES = ("none", "anb", "damon", "tpp", "pte-scan", "pebs")
M5_POLICIES = ("m5-hpt", "m5-hwt", "m5-hpt+hwt")
ALL_POLICIES = BASELINE_POLICIES + M5_POLICIES

#: A pipeline stage: called once per epoch with the active policy and
#: the epoch state.
Stage = Callable[[EpochPolicy, "_EpochState"], None]

#: On-disk checkpoint envelope format, shared by every checkpoint kind
#: (:meth:`Simulation.save_state`, the ``repro serve`` service
#: checkpoint).  Bumped whenever the pickled state's shape changes
#: incompatibly; :func:`read_checkpoint` refuses other versions rather
#: than resuming from state it would misinterpret.
CHECKPOINT_FORMAT_VERSION = 4

#: Events the default ring-buffer sink keeps (``RunResult.timeline``).
TIMELINE_CAPACITY = 4096


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read back."""


def write_checkpoint(
    path: "str | os.PathLike", kind: str, payload: Dict[str, object]
) -> None:
    """Publish one checkpoint envelope, atomically and durably.

    The envelope is ``payload`` plus its ``format`` and ``kind``,
    pickled to ``<path>.tmp``, fsynced, then ``os.replace``d onto
    ``path``.  A crash at any instant leaves either the previous
    checkpoint or this one, never a torn file, and power loss after
    the replace cannot publish an empty one.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    envelope = {"format": CHECKPOINT_FORMAT_VERSION, "kind": kind, **payload}
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except Exception:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_checkpoint(path: "str | os.PathLike", kind: str) -> Dict[str, object]:
    """Load one :func:`write_checkpoint` envelope of the given ``kind``.

    The format is checked before the kind, so a file from an older
    build reports its format.  Every failure (unreadable or truncated
    file, foreign pickle, other format or kind) raises
    :class:`CheckpointError`.
    """
    try:
        with open(os.fspath(path), "rb") as fh:
            envelope = pickle.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (EOFError, pickle.UnpicklingError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is truncated or corrupt: {exc}"
        ) from exc
    if not isinstance(envelope, dict):
        raise CheckpointError(f"{path} is not a checkpoint")
    version = envelope.get("format")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {version!r} is not supported "
            f"(this build reads format {CHECKPOINT_FORMAT_VERSION}); "
            "re-create the checkpoint with this version"
        )
    if envelope.get("kind") != kind:
        raise CheckpointError(
            f"{path} is a {envelope.get('kind')!r} checkpoint, "
            f"not a {kind!r} one"
        )
    return envelope


@dataclass
class M5Options:
    """Configuration of the M5 policy stack."""

    algorithm: str = "cm-sketch"
    num_counters: int = 32 * 1024
    k_hpt: int = 64
    k_hwt: int = 128
    nominator_mode: str = HPT_ONLY
    min_hot_words: int = 16
    fscale_n: float = 4.0
    f_default: float = 1.0
    min_period_s: float = 1e-3
    max_period_s: float = 2.0
    #: Elector's improvement dead band; negative values make every
    #: period migrate (maximally aggressive, churn included).
    improvement_epsilon: float = 1e-2


@dataclass
class RunResult:
    """Everything one simulated run produced."""

    benchmark: str
    policy: str
    execution_time_s: float
    app_time_s: float
    overhead_time_s: float
    migration_time_s: float
    p99_latency_us: Optional[float]
    hot_pfns: List[int]
    ratio_checkpoints: List[float]
    promoted: int
    demoted: int
    nr_pages_ddr: int
    nr_pages_cxl: int
    overhead_events: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Epoch-resolution telemetry events (from the run's ring-buffer
    #: sink): one ``epoch`` event per epoch, plus ratio checkpoints
    #: and, in async mode, the ``migration.*`` queue outcomes.
    timeline: List[Dict[str, float]] = field(default_factory=list)
    #: Events the ring-buffer sink evicted because it was full; a
    #: non-zero value means ``timeline`` is the *tail* of the run.
    timeline_dropped: int = 0
    #: Metrics-registry snapshot (see :mod:`repro.obs`); populated
    #: only when the run's :class:`~repro.obs.Observability` has
    #: metrics enabled.
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def access_count_ratio(self) -> Optional[float]:
        """Mean of the checkpointed access-count ratios (§4.1 S5)."""
        if not self.ratio_checkpoints:
            return None
        return float(np.mean(self.ratio_checkpoints))


def access_count_ratio(
    pac: PageAccessCounter, hot_pfns: ArrayLike, k_cap: Optional[int] = None
) -> float:
    """The §4.1 metric: Σ counts(identified) / Σ counts(true top-K).

    K equals the number of *distinct* identified pages (capped at
    ``k_cap``, the paper's 128K ≈ footprint/16); re-identifications of
    the same page across querying periods are collapsed, keeping first
    identification order.
    """
    pfns = np.asarray(list(hot_pfns), dtype=np.int64)
    if pfns.size:
        _, first = np.unique(pfns, return_index=True)
        pfns = pfns[np.sort(first)]
    if k_cap is not None and pfns.size > k_cap:
        pfns = pfns[:k_cap]
    if pfns.size == 0:
        return 0.0
    k_access = int(pac.counts_of_pages(pfns).sum())
    top = pac.top_k_access_count(int(pfns.size))
    return k_access / top if top > 0 else 0.0


@dataclass
class _EpochState:
    """Mutable pipeline state threaded through the stages.

    Cross-epoch fields (clock, trace budget, migration-time baseline,
    duration estimate, ratio list) persist for the whole run; the
    per-epoch fields are overwritten by each epoch's stages.
    """

    # run-scoped
    now_s: float = 0.0
    remaining: int = 0
    epoch: int = 0
    migration_us_prev: float = 0.0
    epoch_s_estimate: float = 0.0
    ratios: List[float] = field(default_factory=list)
    # epoch-scoped
    chunk: Optional[np.ndarray] = None
    lpages: Optional[np.ndarray] = None
    phys: Optional[np.ndarray] = None
    view: Optional[EpochView] = None
    decision: Optional[PolicyDecision] = None
    promoted_before: int = 0
    demoted_before: int = 0
    migration_us: float = 0.0
    perf: Optional[EpochPerf] = None
    # async-migration bookkeeping (None/0 in instant mode)
    tick: Optional[TickReport] = None
    enqueued_before: int = 0
    qdropped_before: int = 0


class Simulation:
    """One benchmark run under one page-migration policy.

    Args:
        workload: trace generator (typically from the registry).
        config: simulation parameters.
        policy: one of :data:`ALL_POLICIES`.
        m5_options: M5 stack configuration (M5 policies only).
        enable_wac: attach a WAC to the controller (needed for the
            sparsity experiments; off by default for speed).
        telemetry: a :class:`TelemetryBus` to publish per-epoch events
            to.  A fresh bus is created when omitted; either way a
            ring-buffer sink is attached so ``RunResult.timeline`` is
            always populated.
        obs: an :class:`~repro.obs.Observability` bundle (metrics
            registry + stage tracer).  Omitted, the shared disabled
            instance is used: every instrument is a no-op and the
            pipeline is bit-identical to the uninstrumented engine.
        nodes: optional ordered :class:`NodeSpec` hierarchy replacing
            the config's two-node DDR/CXL layout (the fleet passes
            per-tenant capacity shares here).  Pages cold-start by
            spilling down the sub-DRAM tiers in order; a two-node
            hierarchy whose CXL tier fits the footprint is
            bit-identical to the default layout.
    """

    def __init__(
        self,
        workload: SyntheticWorkload,
        config: Optional[SimConfig] = None,
        policy: str = "none",
        m5_options: Optional[M5Options] = None,
        enable_wac: bool = False,
        telemetry: Optional[TelemetryBus] = None,
        obs: Optional[Observability] = None,
        nodes: Optional[Sequence[NodeSpec]] = None,
        tenant: int = 0,
    ) -> None:
        self.workload = workload
        #: Owning fleet tenant; 0 for plain single runs.
        self.tenant = int(tenant)
        self.config = config if config is not None else SimConfig()
        if policy not in ALL_POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {ALL_POLICIES}")
        self.policy_name = policy
        self.m5_options = m5_options if m5_options is not None else M5Options()
        self.obs = obs if obs is not None else NULL_OBS
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        self._timeline = self.telemetry.attach(RingBufferSink(TIMELINE_CAPACITY))

        spec = workload.spec
        if nodes is None:
            self.memory = TieredMemory(
                ddr_pages=self.config.ddr_pages,
                cxl_pages=max(self.config.cxl_pages, spec.footprint_pages),
                num_logical_pages=spec.footprint_pages,
                ddr_latency_ns=self.config.ddr_latency_ns,
                cxl_latency_ns=self.config.cxl_latency_ns,
                tenant=tenant,
            )
            self.memory.allocate_all(NodeKind.CXL)
        else:
            self.memory = TieredMemory(
                num_logical_pages=spec.footprint_pages,
                nodes=nodes,
                tenant=tenant,
            )
            self.memory.allocate_spill()
        self.mglru = MultiGenLru(spec.footprint_pages)
        self.engine = MigrationEngine(
            self.memory,
            cost_model=MigrationCostModel(self.config.migration_cost_us),
            mglru=self.mglru,
        )
        #: The asynchronous transactional migration subsystem; None in
        #: instant mode (the default), where decisions apply atomically.
        self.async_engine: Optional[AsyncMigrationEngine] = None
        self._write_rng = None
        self._promoter_dropped_prev = 0
        #: Epoch state restored by :meth:`load_state`; ``run`` resumes
        #: from it instead of starting fresh.
        self._resume_state: Optional[_EpochState] = None
        #: Checkpoints written over the simulation's lifetime
        #: (survives resume — the count keeps climbing).
        self.checkpoints_written = 0
        if self.config.migration_mode == "async":
            self.async_engine = AsyncMigrationEngine(
                self.engine,
                AsyncMigrationConfig.from_sim_config(self.config),
                metrics=self.obs.registry,
            )
            # Dirty-page model RNG, independent of the workload's
            # stream so instant-mode traces are untouched.
            self._write_rng = np.random.default_rng(
                np.random.SeedSequence([self.config.seed, 0xD117])
            )
        self.controller = CxlController(
            self.memory.cxl.region,
            access_latency_ns=self.config.cxl_latency_ns,
            metrics=self.obs.registry,
        )
        self.pac = PageAccessCounter(self.memory.cxl.region)
        self.controller.attach(self.pac)
        self.wac: Optional[WordAccessCounter] = None
        if enable_wac:
            self.wac = WordAccessCounter(self.memory.cxl.region)
            self.controller.attach(self.wac)

        self._baseline: Optional[MigrationPolicy] = None
        self._manager: Optional[M5Manager] = None
        if policy in BASELINE_POLICIES:
            self._baseline = self._make_baseline(policy)
        else:
            self._manager = self._make_m5(policy)
        node_params = None
        if nodes is not None:
            node_params = [
                (s.resolved_latency_ns, s.bandwidth_gbps)
                for s in self.memory.node_specs
            ]
        self.perf = PerformanceModel(self.config, spec, node_params=node_params)
        table: List[Tuple[str, Stage]] = [
            ("trace", self._stage_trace),
            ("translate", self._stage_translate),
            ("snoop", self._stage_snoop),
            ("policy", self._stage_policy),
            ("migrate", self._stage_migrate),
            ("perf", self._stage_perf),
            ("checkpoint", self._stage_checkpoint),
        ]
        # The optional stages below are appended only when enabled, so
        # the default pipeline stays exactly the frozen-golden sequence.
        #: Per-epoch invariant checking (see :mod:`repro.verify`).
        self.checker = None
        if self.config.check_invariants:
            from repro.verify import InvariantChecker

            self.checker = InvariantChecker(self)
            table.append(("verify", self._stage_verify))
        #: The live-observability stack (see :mod:`repro.obs.live`): a
        #: per-epoch ring recorder and an optional SLO watchdog, riding
        #: the pipeline as one ``record`` stage.  Both need the metrics
        #: registry; with metrics off they stay None.
        self.recorder, self.watchdog = live_stack(
            self.obs.registry, self.config, bus=self.telemetry
        )
        if self.recorder is not None:
            table.append(("record", self._stage_record))
        #: Periodic state persistence (checkpoint/resume): every
        #: ``checkpoint_every`` epochs the full simulation state is
        #: pickled atomically to ``checkpoint_path``.  Appended last so
        #: a checkpoint always captures a fully-finished epoch.
        if self.config.checkpoint_every > 0 and self.config.checkpoint_path:
            table.append(("persist", self._stage_persist))
        self._register_engine_metrics()
        self._bind_stages(table)
        self.result: Optional[RunResult] = None

    def _bind_stages(self, table: Sequence[Tuple[str, Stage]]) -> None:
        """Install the ``(name, stage)`` table and the stage tuple that
        :meth:`step_epoch` runs.

        With observability off the tuple holds the bound stage methods
        themselves; with it on, each is wrapped in a
        :class:`~repro.obs.tracing.TimedStage`.  Stages are bound
        methods, so they look up their collaborators (controller,
        MGLRU, ...) at call time.
        """
        #: The pipeline as ``(name, stage)`` pairs, in execution order.
        self.stage_table = tuple(table)
        if self.obs.enabled:
            tracer = self.obs.tracer
            self.stages: Tuple[Stage, ...] = tuple(
                TimedStage(fn, name, tracer,
                           self._m_stage_seconds.labels(stage=name))
                for name, fn in self.stage_table
            )
        else:
            self.stages = tuple(fn for _, fn in self.stage_table)

    def insert_stage(self, name: str, stage: Stage, after: str) -> None:
        """Splice ``stage`` into the pipeline right after the stage
        named ``after``; it is timed like every other stage."""
        i = [n for n, _ in self.stage_table].index(after) + 1
        self._bind_stages(
            self.stage_table[:i] + ((name, stage),) + self.stage_table[i:]
        )

    def _register_engine_metrics(self) -> None:
        """Declare the engine's instruments (no-ops when obs is off).

        The labelled series are resolved once here so the per-epoch
        hot path does a plain attribute call, never a dict lookup.
        """
        reg = self.obs.registry
        self._m_epochs = reg.counter(
            "sim_epochs_total", "Pipeline epochs executed"
        )
        accesses = reg.counter(
            "sim_accesses_total", "Demand accesses by serving tier",
            labels=("tier",),
        )
        self._mx_acc = tuple(
            accesses.labels(tier=node.name) for node in self.memory.nodes
        )
        self._mx_acc_ddr = self._mx_acc[0]
        self._mx_acc_cxl = self._mx_acc[self.memory.node_index(NodeKind.CXL)]
        migrated = reg.counter(
            "sim_migrated_pages_total", "Pages moved by the migrate stage",
            labels=("direction",),
        )
        self._mx_promoted = migrated.labels(direction="promote")
        self._mx_demoted = migrated.labels(direction="demote")
        tier_pages = reg.gauge(
            "tier_resident_pages", "Resident pages per tier at run end",
            labels=("tier",),
        )
        self._mx_pages = tuple(
            tier_pages.labels(tier=node.name) for node in self.memory.nodes
        )
        self._mx_pages_ddr = self._mx_pages[0]
        self._mx_pages_cxl = self._mx_pages[self.memory.node_index(NodeKind.CXL)]
        self._m_sim_seconds = reg.gauge(
            "sim_time_seconds", "Simulated clock at run end"
        )
        self._m_ring_dropped = reg.gauge(
            "telemetry_ring_dropped_total",
            "Timeline events evicted from the ring-buffer sink",
        )
        self._m_stage_seconds = reg.histogram(
            "pipeline_stage_seconds", "Wall-clock spent per pipeline stage",
            labels=("stage",),
        )

    # ------------------------------------------------------------------
    # construction helpers

    def _make_baseline(self, name: str) -> MigrationPolicy:
        cfg = self.config
        if name == "none":
            return NoMigration(self.memory)
        if name == "anb":
            policy = AutoNumaBalancing(self.memory)
            # Unmap/fault volume scales with the page grouping: one
            # model-page fault stands for footprint_scale real faults.
            policy.costs.scale = cfg.footprint_scale
            return policy
        if name == "damon":
            # DAMON's sampling rate is footprint-independent, so its
            # costs stay unscaled.  Its statistical access-bit check
            # needs the real per-page rate: a model count undercounts
            # real accesses by the trace_subsample factor (the page
            # grouping cancels between count and group size).
            return Damon(self.memory, access_scale=cfg.trace_subsample)
        if name == "tpp":
            policy = Tpp(self.memory)
            policy.costs.scale = cfg.footprint_scale  # fault volume
            return policy
        if name == "pte-scan":
            policy = PteScanner(self.memory)
            policy.costs.scale = cfg.footprint_scale  # scans every PTE
            return policy
        if name == "pebs":
            policy = PebsSampler(self.memory)
            policy.costs.scale = cfg.time_dilation  # samples ∝ accesses
            return policy
        raise ValueError(name)

    def _make_m5(self, name: str) -> M5Manager:
        opts = self.m5_options
        hpt = make_hpt(
            k=opts.k_hpt,
            algorithm=opts.algorithm,
            num_counters=opts.num_counters,
        )
        self.controller.attach(hpt)
        hwt = None
        mode = {
            "m5-hpt": HPT_ONLY,
            "m5-hwt": HWT_DRIVEN,
            "m5-hpt+hwt": HPT_DRIVEN,
        }[name]
        if opts.nominator_mode != HPT_ONLY and name == "m5-hpt":
            mode = opts.nominator_mode
        if mode != HPT_ONLY:
            hwt = make_hwt(
                k=opts.k_hwt,
                algorithm=opts.algorithm,
                num_counters=opts.num_counters,
            )
            self.controller.attach(hwt)
        nominator = Nominator(mode=mode, min_hot_words=opts.min_hot_words)
        elector = Elector(
            f_default=opts.f_default,
            fscale=power_fscale(opts.fscale_n),
            min_period_s=opts.min_period_s,
            max_period_s=opts.max_period_s,
            improvement_epsilon=opts.improvement_epsilon,
        )
        manager = M5Manager(
            self.memory,
            self.engine,
            hpt=hpt,
            hwt=hwt,
            nominator=nominator,
            elector=elector,
            batch_limit=self.config.migration_batch,
            dry_run=not self.config.migrate,
            async_engine=self.async_engine,
            metrics=self.obs.registry,
        )
        manager.name = name
        return manager

    # ------------------------------------------------------------------

    @property
    def epoch_policy(self) -> EpochPolicy:
        """The active policy behind the pipeline's uniform interface.

        Resolved lazily so callers that swap ``_manager`` (custom M5
        stacks, e.g. ``examples/policy_design.py``) are honoured.
        """
        return self._manager if self._manager is not None else self._baseline

    @property
    def hot_pfns(self) -> List[int]:
        return list(self.epoch_policy.hot_pfns)

    def _k_cap(self) -> int:
        """The paper's K cap: ~1/16 of the footprint (§4.1)."""
        return max(1, self.workload.spec.footprint_pages // 16)

    # ------------------------------------------------------------------
    # pipeline stages (each runs once per epoch, in `self.stages` order)

    def _stage_trace(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Emit the epoch's address chunk from the workload."""
        take = min(st.remaining, self.config.chunk_size)
        st.remaining -= take
        st.chunk = self.workload.chunk(take)
        st.lpages = (st.chunk >> np.uint64(PAGE_SHIFT)).astype(np.int64)
        if self.async_engine is not None:
            # Later stages (Promoter, the tick) tag queue entries with
            # the current epoch; deltas feed the enqueue telemetry.
            self.async_engine.current_epoch = st.epoch
            st.tick = None
            st.enqueued_before = self.async_engine.stats.enqueued
            st.qdropped_before = self.async_engine.stats.dropped_queue_full

    def _stage_translate(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Translate virtual addresses; tiers count the traffic."""
        self.memory.begin_epoch(1.0)
        self.memory.record_epoch_accesses(st.lpages)
        st.phys = self.memory.translate(st.chunk)

    def _stage_snoop(self, policy: EpochPolicy, st: _EpochState) -> None:
        """CXL controller (PAC/WAC/trackers) and MGLRU observe."""
        self.controller.serve(st.phys)
        self.mglru.record_accesses(st.lpages)

    def _stage_policy(self, policy: EpochPolicy, st: _EpochState) -> None:
        """The policy observes the epoch and decides."""
        st.view = EpochView(
            epoch=st.epoch,
            lpages=st.lpages,
            now_s=st.now_s,
            epoch_s=st.epoch_s_estimate,
            migrate=self.config.migrate,
            batch_limit=self.config.migration_batch,
            memory=self.memory,
            mglru=self.mglru,
        )
        st.promoted_before = self.engine.stats.promoted
        st.demoted_before = self.engine.stats.demoted
        st.decision = policy.on_epoch(st.view)
        if self._manager is not None:
            dropped = self._manager.promoter.proc_file.dropped
            if dropped > self._promoter_dropped_prev:
                self.telemetry.publish(
                    "promoter.drop",
                    st.epoch,
                    st.now_s,
                    dropped=dropped - self._promoter_dropped_prev,
                    total_dropped=dropped,
                )
                self._promoter_dropped_prev = dropped

    def _epoch_dirty_pages(self, st: _EpochState) -> np.ndarray:
        """Pages written inside this epoch's migration copy windows.

        The dirty-recheck races only against stores concurrent with a
        copy, so each access is marked dirty-in-window with probability
        ``write_fraction * dirty_window_frac`` (see SimConfig).
        """
        p = self.config.write_fraction * self.config.dirty_window_frac
        if p <= 0.0 or st.lpages is None or st.lpages.size == 0:
            return np.empty(0, dtype=np.int64)
        mask = self._write_rng.random(st.lpages.size) < p
        return np.unique(st.lpages[mask])

    def _migrate_async(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Async mode: enqueue the decision, then run one queue tick."""
        eng = self.async_engine
        if st.decision.promotions.size:
            eng.enqueue_promotions(st.decision.promotions)
        victims = policy.demotion_victims(st.view)
        if victims.size:
            eng.enqueue_demotions(victims)
        # The transactional tick is a child span under stage.migrate,
        # so migration transactions show up nested in the flame table
        # and the Chrome trace.
        with self.obs.tracer.span("migrate.tick") as span:
            st.tick = eng.tick(
                st.epoch, self._epoch_dirty_pages(st),
                epoch_s=st.epoch_s_estimate,
            )
            span.set(
                attempted=st.tick.attempted,
                committed=st.tick.committed,
                aborted=st.tick.aborted,
            )
        report = st.tick
        enqueued = eng.stats.enqueued - st.enqueued_before
        dropped_full = eng.stats.dropped_queue_full - st.qdropped_before
        if enqueued or dropped_full:
            self.telemetry.publish(
                "migration.enqueue",
                st.epoch,
                st.now_s,
                enqueued=enqueued,
                dropped_full=dropped_full,
                pending=eng.pending,
            )
        if report.committed:
            self.telemetry.publish(
                "migration.commit",
                st.epoch,
                st.now_s,
                committed=report.committed,
                promoted=report.promoted,
                demoted=report.demoted,
            )
        if report.aborted:
            self.telemetry.publish(
                "migration.abort",
                st.epoch,
                st.now_s,
                aborted=report.aborted,
                dirty=report.aborted_dirty,
                injected=report.aborted_injected,
                enomem=report.aborted_enomem,
            )
        if report.retried or report.dropped_retries:
            self.telemetry.publish(
                "migration.retry",
                st.epoch,
                st.now_s,
                retried=report.retried,
                dropped=report.dropped_retries,
            )

    def _stage_migrate(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Apply the decision: promotions, then watermark demotions.

        Instant mode applies the decision atomically; async mode feeds
        the transactional subsystem's bounded queue and runs one tick.
        """
        if st.view.migrate:
            if self.async_engine is not None:
                self._migrate_async(policy, st)
            else:
                if st.decision.promotions.size:
                    self.engine.promote(st.decision.promotions)
                victims = policy.demotion_victims(st.view)
                if victims.size:
                    self.engine.demote(victims)
        self.mglru.age()

    def _stage_perf(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Convert the epoch's traffic and overheads into time, then
        publish the ``epoch`` event.

        The event is the epoch's one record: the per-epoch counters
        (``sim_accesses_total``, ``sim_migrated_pages_total``) are fed
        here from the same values, and nowhere else.
        """
        st.migration_us = self.engine.stats.time_us - st.migration_us_prev
        st.migration_us_prev = self.engine.stats.time_us
        n_ddr = self.memory.ddr.accesses_this_epoch
        n_cxl = self.memory.cxl.accesses_this_epoch
        deep = self.memory.num_nodes > 2
        if deep:
            node_counts = [n.accesses_this_epoch for n in self.memory.nodes]
            for mx, count in zip(self._mx_acc, node_counts):
                mx.inc(count)
        else:
            node_counts = None
            self._mx_acc_ddr.inc(n_ddr)
            self._mx_acc_cxl.inc(n_cxl)
        st.perf = self.perf.record_epoch(
            n_ddr,
            n_cxl,
            st.decision.overhead_us,
            st.migration_us,
            migration_bytes=(
                float(st.tick.copy_bytes) if st.tick is not None else 0.0
            ),
            node_counts=node_counts,
        )
        st.now_s += st.perf.total_s
        st.epoch_s_estimate = st.perf.total_s
        promoted = self.engine.stats.promoted - st.promoted_before
        demoted = self.engine.stats.demoted - st.demoted_before
        self._mx_promoted.inc(promoted)
        self._mx_demoted.inc(demoted)
        fields: Dict[str, float] = dict(
            epoch_s=st.perf.total_s,
            n_ddr=n_ddr,
            n_cxl=n_cxl,
            nr_pages_ddr=self.memory.nr_pages(NodeKind.DDR),
            nr_pages_cxl=self.memory.nr_pages(NodeKind.CXL),
            promoted=promoted,
            demoted=demoted,
            overhead_us=st.decision.overhead_us,
            nominated=st.decision.nominated,
            migration_us=st.migration_us,
        )
        if deep:
            # Extra tiers ride along under name-derived keys; the
            # two-node event shape stays frozen.
            for i, node in enumerate(self.memory.nodes[2:], start=2):
                fields[f"n_{node.name}"] = node.accesses_this_epoch
                fields[f"nr_pages_{node.name}"] = self.memory.nr_pages_at(i)
        self.telemetry.publish("epoch", st.epoch, st.now_s, **fields)

    def _stage_verify(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Run the invariant catalogue against the finished epoch."""
        self.checker.check_epoch(st)

    def _stage_record(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Sample the selected metric families into the ring recorder
        and let the SLO watchdog judge the fresh row."""
        self.recorder.sample(
            st.epoch,
            st.now_s,
            extra={
                "epoch_s": st.perf.total_s if st.perf is not None else 0.0
            },
        )
        if self.watchdog is not None:
            self.watchdog.evaluate(st.epoch, st.now_s)

    def _stage_checkpoint(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Snapshot the access-count ratio at measurement points."""
        if st.epoch not in self._checkpoint_epochs or self.config.migrate:
            return
        ratio = access_count_ratio(self.pac, policy.hot_pfns, self._k_cap())
        st.ratios.append(ratio)
        self.telemetry.publish("ratio", st.epoch, st.now_s, ratio=ratio)

    def _stage_persist(self, policy: EpochPolicy, st: _EpochState) -> None:
        """Checkpoint the full simulation state every K epochs."""
        if st.epoch % self.config.checkpoint_every != 0:
            return
        self.save_state(self.config.checkpoint_path, st)

    # ------------------------------------------------------------------
    # checkpoint / resume

    def save_state(self, path: "str | os.PathLike", st: _EpochState) -> None:
        """Serialise the complete run state for a later bit-identical
        resume.

        One pickle captures the whole object graph — workload RNGs,
        tiers and page maps, trackers, MGLRU, the async migration
        queue, the performance model's running totals, the telemetry
        ring, the metrics registry, and the epoch state — so every
        cross-reference (the policy's view of the tiers, the
        controller's attached trackers) survives intact.  The write is
        atomic and durable (:func:`write_checkpoint`).

        Checkpointing a run with *tracing* enabled is refused: spans
        hold wall-clock state that cannot meaningfully resume.  The
        metrics registry, by contrast, checkpoints fine — counters
        continue exactly where they stopped.
        """
        if self.obs.tracing_on:
            raise CheckpointError(
                "cannot checkpoint a run with tracing enabled; spans "
                "hold wall-clock state that does not resume (metrics "
                "and telemetry checkpoint fine)"
            )
        # Deliberately no telemetry event: checkpointing must leave
        # the run's observable results (timeline, metrics, RunResult)
        # bit-identical to a run without it, so a resumed run can be
        # compared against *any* uninterrupted twin.  Cadence is
        # visible via :attr:`checkpoints_written` instead.
        self.checkpoints_written += 1
        write_checkpoint(path, "simulation", {
            "benchmark": self.workload.spec.name,
            "policy": self.policy_name,
            "epoch": st.epoch,
            "sim": self,
            "epoch_state": st,
        })

    @classmethod
    def load_state(cls, path: "str | os.PathLike") -> "Simulation":
        """Rehydrate a checkpointed simulation, ready to :meth:`run`.

        The returned simulation continues from the checkpointed epoch;
        running it to completion produces a ``RunResult`` (timeline
        and metrics included) bit-identical to the uninterrupted run
        — the ``resume`` oracle in ``repro verify`` enforces exactly
        this.
        """
        payload = read_checkpoint(path, "simulation")
        sim: "Simulation" = payload["sim"]
        sim._resume_state = payload["epoch_state"]
        return sim

    @property
    def resumed_epoch(self) -> Optional[int]:
        """Epoch the pending resume starts after (None = fresh run)."""
        if self._resume_state is None:
            return None
        return self._resume_state.epoch

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Step epochs until the trace budget is spent, then
        :meth:`finalize`.  Resumes a loaded checkpoint if there is one.

        The ``run`` span is the root of the trace; the stage spans
        nest under it.
        """
        policy = self.epoch_policy
        if self._resume_state is not None:
            st, self._resume_state = self._resume_state, None
        else:
            st = self._initial_state()
        with self.obs.tracer.span("run"):
            while st.remaining > 0:
                self.step_epoch(st, policy)
        return self.finalize(st)

    def _initial_state(self) -> _EpochState:
        """Fresh run-scoped pipeline state (one per run); a live
        tracer's simulated clock and span bus are bound to it."""
        cfg = self.config
        self._checkpoint_epochs = set(
            np.linspace(1, cfg.num_epochs, cfg.checkpoints, dtype=int).tolist()
        )
        st = _EpochState(
            remaining=cfg.total_accesses,
            # Nominal epoch duration estimate for the first epoch;
            # later epochs use the previous epoch's measured duration.
            epoch_s_estimate=(
                cfg.chunk_size
                * (self.perf.compute_per_access_s + self.perf.cxl_stall_s)
                * self.perf.dilation
                / self.perf.cores
            ),
        )
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.sim_clock = SimClock(st)
            if tracer.bus is None:
                tracer.bus = self.telemetry
        return st

    def step_epoch(
        self, st: _EpochState, policy: Optional[EpochPolicy] = None
    ) -> None:
        """Advance the pipeline by exactly one epoch.

        The only code that runs :attr:`stages`.  Every epoch loop goes
        through it: ``run`` (until the trace budget is spent, then
        :meth:`finalize`), the fleet's lockstep tenants, and the
        service's streams.
        """
        if policy is None:
            policy = self.epoch_policy
        st.epoch += 1
        self.obs.tracer.current_epoch = st.epoch
        self._m_epochs.inc()
        for stage in self.stages:
            stage(policy, st)

    def finalize(self, st: _EpochState) -> RunResult:
        """Assemble the RunResult after the epoch loop finishes."""
        spec = self.workload.spec
        policy = self.epoch_policy
        for i, mx in enumerate(self._mx_pages):
            mx.set(self.memory.nr_pages_at(i))
        self._m_sim_seconds.set(st.now_s)
        self._m_ring_dropped.set(self._timeline.dropped)
        self.result = RunResult(
            benchmark=spec.name,
            policy=self.policy_name,
            execution_time_s=self.perf.execution_time_s,
            app_time_s=self.perf.app_time_s,
            overhead_time_s=self.perf.overhead_time_s,
            migration_time_s=self.perf.migration_time_s,
            p99_latency_us=(
                self.perf.p99_latency_us() if spec.latency_sensitive else None
            ),
            hot_pfns=self.hot_pfns,
            ratio_checkpoints=st.ratios,
            promoted=self.engine.stats.promoted,
            demoted=self.engine.stats.demoted,
            nr_pages_ddr=self.memory.nr_pages(NodeKind.DDR),
            nr_pages_cxl=self.memory.nr_pages(NodeKind.CXL),
            overhead_events=policy.overhead_events(),
            timeline=self._timeline.events,
            timeline_dropped=self._timeline.dropped,
        )
        if self.memory.num_nodes > 2:
            for i, node in enumerate(self.memory.nodes[2:], start=2):
                self.result.extra[f"nr_pages_{node.name}"] = float(
                    self.memory.nr_pages_at(i)
                )
        if self.async_engine is not None:
            self.result.extra.update(self.async_engine.stats.as_extra())
            self.result.extra["mig_pending"] = float(self.async_engine.pending)
        if self.checker is not None:
            self.result.extra["invariant_checks"] = float(self.checker.checks_run)
            self.result.extra["invariant_violations"] = float(
                len(self.checker.violations)
            )
        if self.recorder is not None:
            self.result.extra["recorded_epochs"] = float(self.recorder.rows)
        if self.watchdog is not None:
            self.result.extra["slo_breaches"] = float(
                self.watchdog.breaches_total
            )
        if self.obs.metrics_on:
            self.result.metrics = self.obs.snapshot()
        return self.result


def run_policy(
    workload: SyntheticWorkload,
    policy: str,
    config: Optional[SimConfig] = None,
    m5_options: Optional[M5Options] = None,
    enable_wac: bool = False,
    telemetry: Optional[TelemetryBus] = None,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Convenience one-shot runner."""
    sim = Simulation(
        workload,
        config=config,
        policy=policy,
        m5_options=m5_options,
        enable_wac=enable_wac,
        telemetry=telemetry,
        obs=obs,
    )
    return sim.run()
