"""Common interface for page-migration policies: the epoch pipeline's
``EpochPolicy`` protocol plus the CPU-driven baseline base class.

The simulation engine drives every policy — the CPU-driven baselines
*and* the M5 manager — through one contract: once per epoch it builds
an :class:`EpochView` (the epoch's page-granular access stream, the
simulated clock, and handles to the memory system) and calls
``policy.on_epoch(view)``.  The policy updates its internal detector,
accumulates CPU overhead (the §4.2 cost), appends newly identified hot
pages to its *hot-page list* (the §4.1 S1 instrumentation: "store the
PFNs of identified hot pages into a hot-page list"), and returns a
:class:`PolicyDecision` naming the pages it wants promoted plus the
epoch's identification overhead.  The engine applies the decision —
promotions first, then watermark demotions via
:meth:`EpochPolicy.demotion_victims` — so policies never mutate tier
state behind the pipeline's back (the M5 manager, whose in-kernel
Promoter *is* the migration path, is the documented exception).

:class:`MigrationPolicy` is the base class for the CPU-driven
detectors; :meth:`MigrationPolicy.observe` feeds one epoch's pages to a
detector without the rest of the pipeline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.memory.page_table import PageTable
from repro.memory.tiers import TieredMemory

_EMPTY_PAGES = np.empty(0, dtype=np.int64)


@dataclass
class EpochView:
    """What one pipeline epoch exposes to the policy stage.

    Attributes:
        epoch: 1-based epoch index.
        lpages: the epoch's logical page access sequence, in order.
        now_s: simulated time at the start of the epoch.
        epoch_s: (estimated) duration of this epoch in simulated
            seconds — detectors with real-time cadences (scan periods,
            sampling intervals) position their events inside the epoch
            with it.
        migrate: whether this run migrates pages (False is the §4.1 S1
            identification-only mode: identify, return no promotions).
        batch_limit: maximum pages the engine migrates per epoch.
        memory: the tiered-memory system (tier occupancy, frame maps).
        mglru: the kernel's MGLRU instance — demotion-victim selection
            (:meth:`EpochPolicy.demotion_victims`) reads its coldness.
    """

    epoch: int
    lpages: np.ndarray
    now_s: float
    epoch_s: float
    migrate: bool
    batch_limit: Optional[int]
    memory: TieredMemory
    mglru: object = None


@dataclass
class PolicyDecision:
    """What the policy stage hands back to the pipeline.

    ``promotions`` are logical page ids the engine should move to DDR
    this epoch (empty in identification-only mode).  ``promoted`` /
    ``demoted`` report migrations the policy *already applied itself*
    this epoch — only the M5 manager, whose Promoter is the in-kernel
    migration path, uses them; pure identifiers leave them at zero.
    ``overhead_us`` is the epoch's identification CPU cost, and
    ``nominated`` counts pages newly nominated (telemetry only).
    """

    promotions: np.ndarray = field(default_factory=lambda: _EMPTY_PAGES)
    overhead_us: float = 0.0
    nominated: int = 0
    promoted: int = 0
    demoted: int = 0


@runtime_checkable
class EpochPolicy(Protocol):
    """The pluggable policy interface of the epoch pipeline.

    Implementations need four things:

    * ``name`` — registry-style identifier;
    * ``on_epoch(view)`` — observe one epoch, return a
      :class:`PolicyDecision`;
    * ``demotion_victims(view)`` — called *after* the decision's
      promotions were applied; return logical pages to demote (the
      TPP-style proactive watermark path).  Return an empty array when
      the policy has no proactive demotion;
    * ``hot_pfns`` — the accumulated hot-page list (identification
      order, PFNs at identification time) for §4.1 scoring;
    * ``overhead_events()`` — per-event CPU cost breakdown in µs.
    """

    name: str

    def on_epoch(self, view: EpochView) -> PolicyDecision: ...

    def demotion_victims(self, view: EpochView) -> np.ndarray: ...

    @property
    def hot_pfns(self) -> Sequence[int]: ...

    def overhead_events(self) -> Dict[str, float]: ...


@dataclass
class PolicyCosts:
    """CPU-time accounting for hot-page identification.

    All values are microseconds of kernel CPU time charged to the
    core shared with the application (the paper pins the migration
    processes and the benchmark to the same core, §6).
    """

    epoch_us: float = 0.0
    #: Per-event cost multiplier.  Under time dilation, policies whose
    #: work scales with footprint or access volume (ANB unmaps/faults,
    #: full PTE scans, PEBS samples) charge dilated costs, because the
    #: real system does `scale` times more of that work than the
    #: scaled-down model; rate-based policies (DAMON's fixed-region
    #: sampling) keep scale = 1.
    scale: float = 1.0
    events: dict = field(default_factory=dict)

    def charge(self, us: float, event: str) -> None:
        us *= self.scale
        self.epoch_us += us
        self.events[event] = self.events.get(event, 0.0) + us

    def begin_epoch(self) -> None:
        self.epoch_us = 0.0


class MigrationPolicy(abc.ABC):
    """Base class for hot-page identification + migration policies.

    Subclasses implement :meth:`_detect`; the base class provides the
    full :class:`EpochPolicy` contract on top of it.
    """

    name = "base"

    def __init__(
        self,
        memory: TieredMemory,
        page_table: Optional[PageTable] = None,
    ):
        self.memory = memory
        self.page_table = (
            page_table
            if page_table is not None
            else PageTable(
                memory.num_logical_pages,
                tenant=getattr(memory, "tenant", 0),
            )
        )
        self.costs = PolicyCosts()
        # Hot-page list: logical page ids in identification order, plus
        # the PFN each page had when identified (for PAC lookups).
        self.hot_pages: List[int] = []
        self.hot_pfns: List[int] = []
        # Membership of the hot-page list, for vectorized filtering.
        self._hot_mask = np.zeros(memory.num_logical_pages, dtype=bool)
        self._pending_candidates: List[int] = []

    # ------------------------------------------------------------------
    # identification

    def record_hot(self, logical_pages) -> None:
        """Append newly identified hot pages to the hot-page list."""
        pages = np.atleast_1d(np.asarray(logical_pages, dtype=np.int64))
        if pages.size == 0:
            return
        # First occurrence of each unseen page, in stream order — the
        # order a page-at-a-time loop appends in.
        uniq, first_pos = np.unique(pages, return_index=True)
        uniq = uniq[np.argsort(first_pos, kind="stable")]
        fresh = uniq[~self._hot_mask[uniq]]
        if fresh.size == 0:
            return
        self._hot_mask[fresh] = True
        fresh_list = fresh.tolist()
        self.hot_pages.extend(fresh_list)
        self.hot_pfns.extend(self.memory.frame_map[fresh].tolist())
        self._pending_candidates.extend(fresh_list)

    def observe(self, pages: np.ndarray, now_s: float, epoch_s: float = 1.0) -> None:
        """Feed one epoch of page accesses through the detector.

        Args:
            pages: the epoch's logical page access sequence.
            now_s: simulated time at the start of the epoch.
            epoch_s: (estimated) duration of this epoch in simulated
                seconds.
        """
        self.costs.begin_epoch()
        self._detect(np.asarray(pages, dtype=np.int64), float(now_s), float(epoch_s))
        self.page_table.tlb.age()

    def on_epoch(self, view: EpochView) -> PolicyDecision:
        """Run the policy stage of one pipeline epoch.

        The :class:`EpochPolicy` entry point: feed the detector with the
        epoch's accesses and return a :class:`PolicyDecision`.
        """
        self.observe(view.lpages, view.now_s, view.epoch_s)
        decision = PolicyDecision(overhead_us=self.costs.epoch_us)
        if view.migrate:
            decision.promotions = self.migration_candidates(view.batch_limit)
            decision.nominated = int(decision.promotions.size)
        return decision

    @abc.abstractmethod
    def _detect(self, pages: np.ndarray, now_s: float, epoch_s: float) -> None: ...

    # ------------------------------------------------------------------
    # migration

    def migration_candidates(self, limit: Optional[int] = None) -> np.ndarray:
        """Hot pages identified since the last call (FIFO order)."""
        take = len(self._pending_candidates) if limit is None else int(limit)
        batch = self._pending_candidates[:take]
        self._pending_candidates = self._pending_candidates[take:]
        return np.asarray(batch, dtype=np.int64)

    def demotion_victims(self, view: EpochView) -> np.ndarray:
        """Proactive demotions, chosen after promotions were applied.

        Most baselines demote only on allocation pressure (the engine
        evicts an MGLRU victim per promotion once DDR is full), so the
        default is none; watermark-driven policies (TPP) override.
        """
        return _EMPTY_PAGES

    def overhead_events(self) -> Dict[str, float]:
        """Per-event CPU-cost breakdown (µs), for RunResult reporting."""
        return dict(self.costs.events)

    @property
    def epoch_overhead_us(self) -> float:
        return self.costs.epoch_us


class NoMigration(MigrationPolicy):
    """The paper's baseline: leave every page on CXL DRAM."""

    name = "none"

    def _detect(self, pages: np.ndarray, now_s: float, epoch_s: float) -> None:
        # Still drive the page table so fault/TLB behaviour is
        # consistent across policies (no unmaps happen, so no faults).
        self.page_table.touch(pages)
