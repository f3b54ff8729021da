"""Asynchronous migration engine: budgets, aborts, retry, backoff.

The engine replaces the instantaneous migration path when
``SimConfig.migration_mode == "async"``.  Nominations (policy
promotions, Promoter writes, watermark demotions) *enqueue* work; once
per epoch the pipeline calls :meth:`AsyncMigrationEngine.tick`, which
executes queued requests as Nomad-style transactions under two
budgets:

* an **in-flight page budget** — at most ``inflight_budget`` page
  copies per epoch (a demote-first fallback counts as a second copy);
* a **bandwidth throttle** — when ``copy_gbps`` is set, the copies a
  tick may perform are additionally bounded by what the migration copy
  engine can move in one epoch of simulated time.

Aborted transactions are retried with exponential backoff up to
``max_retries`` times, then dropped — the escape hatch that keeps a
perpetually dirty page from clogging the queue.  Dropped (and
committed, and rejected) pages leave the queue's dedupe set, so the
policy can nominate them again later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Set

import numpy as np

from repro.memory.address import PAGE_SIZE
from repro.memory.migration import MigrationEngine
from repro.migration.injection import FailureInjector
from repro.migration.queue import MigrationQueue
from repro.migration.request import (
    AsyncMigrationStats,
    Direction,
    MigrationRequest,
    Outcome,
    TickReport,
)
from repro.migration.transaction import TransactionalCopier, TransactionResult

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.config import SimConfig

#: Cap on the exponential-backoff shift (keeps gates finite).
_MAX_BACKOFF_SHIFT = 16


@dataclass
class AsyncMigrationConfig:
    """Knobs of the asynchronous migration subsystem.

    Attributes:
        inflight_budget: max page copies per epoch tick.
        queue_capacity: bounded queue size (overflow is dropped).
        abort_rate: injected mid-copy failure probability.
        max_retries: aborted requests retry this many times, then drop.
        backoff_epochs: base backoff; retry *n* waits
            ``backoff_epochs * 2**(n-1)`` epochs.
        copy_gbps: migration copy-engine bandwidth in GB/s (0 = only
            the in-flight budget throttles).
        enomem_fallback: demote an MGLRU victim when DDR is full
            (False aborts the promotion with ENOMEM instead).
        remap_us: kernel CPU cost per committed page (see
            :class:`~repro.migration.transaction.TransactionalCopier`).
        page_scale: real 4KB pages grouped into one model page (used
            by the bandwidth throttle; mirrors
            ``SimConfig.footprint_scale``).
        seed: failure-injection RNG seed.
    """

    inflight_budget: int = 128
    queue_capacity: int = 4096
    abort_rate: float = 0.0
    max_retries: int = 3
    backoff_epochs: int = 1
    copy_gbps: float = 0.0
    enomem_fallback: bool = True
    remap_us: float = 12.0
    page_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.inflight_budget < 1:
            raise ValueError("inflight_budget must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_epochs < 0:
            raise ValueError("backoff_epochs must be non-negative")
        if self.copy_gbps < 0:
            raise ValueError("copy_gbps must be non-negative")
        if self.page_scale < 1:
            raise ValueError("page_scale must be >= 1")

    @classmethod
    def from_sim_config(cls, cfg: SimConfig) -> AsyncMigrationConfig:
        """Derive the subsystem's config from a ``SimConfig``."""
        return cls(
            inflight_budget=cfg.migration_inflight_budget,
            queue_capacity=cfg.migration_queue_capacity,
            abort_rate=cfg.migration_abort_rate,
            max_retries=cfg.migration_max_retries,
            copy_gbps=cfg.migration_copy_gbps,
            enomem_fallback=cfg.migration_enomem_policy == "demote-first",
            page_scale=max(1.0, cfg.footprint_scale),
            seed=cfg.seed,
        )


class AsyncMigrationEngine:
    """Bounded-queue transactional migration over a sync engine.

    The synchronous :class:`MigrationEngine` stays the owner of the pin
    table and the ``promoted``/``demoted``/``time_us`` stats the rest
    of the pipeline reads; this engine adds the queue, the budgets, and
    the abort/retry state machine on top.
    """

    def __init__(
        self,
        engine: MigrationEngine,
        config: Optional[AsyncMigrationConfig] = None,
        injector: Optional[FailureInjector] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else AsyncMigrationConfig()
        self.queue = MigrationQueue(self.config.queue_capacity)
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry(enabled=False)
        self._m_enqueued = metrics.counter(
            "migration_enqueued_total", "Requests accepted into the queue"
        )
        self._m_dropped_full = metrics.counter(
            "migration_dropped_queue_full_total",
            "Requests dropped because the bounded queue was full",
        )
        self._m_outcomes = metrics.counter(
            "migration_outcomes_total",
            "Transaction outcomes per tick settlement",
            labels=("outcome",),
        )
        self._m_copy_bytes = metrics.counter(
            "migration_copy_bytes_total", "Model bytes moved by the copy engine"
        )
        self._m_pending = metrics.gauge(
            "migration_pending", "Requests queued after the latest tick"
        )
        self._m_batch = metrics.histogram(
            "migration_tick_attempts",
            "Transactions attempted per tick",
            buckets=tuple(float(1 << e) for e in range(0, 13)),
        )
        self.injector = (
            injector
            if injector is not None
            else FailureInjector(
                abort_rate=self.config.abort_rate, seed=self.config.seed
            )
        )
        self.copier = TransactionalCopier(
            engine,
            injector=self.injector,
            enomem_fallback=self.config.enomem_fallback,
            remap_us=self.config.remap_us,
        )
        self.stats = AsyncMigrationStats()
        self.current_epoch = 0

    # ------------------------------------------------------------------
    # enqueue side (policies / Promoter)

    @property
    def pending(self) -> int:
        """Requests currently queued."""
        return len(self.queue)

    def _enqueue(self, lpages: Iterable[int], direction: Direction) -> int:
        accepted = 0
        dup_before = self.queue.duplicates
        full_before = self.queue.dropped_full
        for lpage in np.atleast_1d(np.asarray(lpages, dtype=np.int64)).tolist():
            if self.queue.push(lpage, direction, self.current_epoch):
                accepted += 1
        self.stats.enqueued += accepted
        self.stats.duplicates += self.queue.duplicates - dup_before
        self.stats.dropped_queue_full += self.queue.dropped_full - full_before
        self._m_enqueued.inc(accepted)
        self._m_dropped_full.inc(self.queue.dropped_full - full_before)
        return accepted

    def enqueue_promotions(self, lpages: Iterable[int]) -> int:
        """Queue pages for promotion; returns how many were accepted."""
        return self._enqueue(lpages, Direction.PROMOTE)

    def enqueue_demotions(self, lpages: Iterable[int]) -> int:
        """Queue pages for demotion; returns how many were accepted."""
        return self._enqueue(lpages, Direction.DEMOTE)

    # ------------------------------------------------------------------
    # execute side (pipeline tick)

    def _bandwidth_pages(self, epoch_s: float) -> Optional[int]:
        """Model pages the copy engine can move in ``epoch_s``."""
        if self.config.copy_gbps <= 0 or epoch_s <= 0:
            return None
        real_bytes = self.config.copy_gbps * 1e9 * epoch_s
        return int(real_bytes / (PAGE_SIZE * self.config.page_scale))

    def _copies_needed(self, request: MigrationRequest) -> int:
        """Worst-case copy-budget cost of one request."""
        if (
            request.direction is Direction.PROMOTE
            and self.config.enomem_fallback
            and self.engine.memory.ddr.free_pages - self.engine.ddr_reserve_pages
            <= 0
        ):
            return 2  # demote-first fallback copies the victim too
        return 1

    def _backoff_gate(self, epoch: int, retries: int) -> int:
        shift = min(max(retries - 1, 0), _MAX_BACKOFF_SHIFT)
        wait = self.config.backoff_epochs * (1 << shift)
        return epoch + max(1, wait)

    def _settle(
        self,
        request: MigrationRequest,
        result: TransactionResult,
        report: TickReport,
        epoch: int,
    ) -> None:
        """Record one transaction's outcome in ``report`` (the only
        place it is written; :meth:`tick` folds the report into the
        run totals and metrics) and decide the request's fate."""
        outcome = result.outcome
        report.attempted += 1
        report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
        report.pages_copied += result.copies
        report.copy_bytes += result.copies * PAGE_SIZE
        if result.fallback_victim is not None:
            # The demote-first victim committed even if the promotion
            # itself later aborted.
            report.committed += 1
            report.demoted += 1

        if outcome is Outcome.COMMITTED:
            self.queue.release(request.lpage)
            report.committed += 1
            if request.direction is Direction.PROMOTE:
                report.promoted += 1
            else:
                report.demoted += 1
            return
        if outcome is Outcome.NOOP:
            self.queue.release(request.lpage)
            report.noop += 1
            return
        if outcome is Outcome.REJECT_PINNED:
            self.queue.release(request.lpage)
            report.rejected_pinned += 1
            return

        # Abort path: dirty / injected / ENOMEM → retry or drop.
        report.aborted += 1
        kind = {
            Outcome.ABORT_DIRTY: "aborted_dirty",
            Outcome.ABORT_INJECTED: "aborted_injected",
            Outcome.ABORT_ENOMEM: "aborted_enomem",
        }[outcome]
        setattr(report, kind, getattr(report, kind) + 1)
        request.retries += 1
        if request.retries > self.config.max_retries:
            self.queue.release(request.lpage)
            report.dropped_retries += 1
            return
        report.retried += 1
        self.queue.requeue(request, self._backoff_gate(epoch, request.retries))

    def tick(
        self,
        epoch: int,
        dirty_pages: Optional[Iterable[int]] = None,
        epoch_s: float = 0.0,
    ) -> TickReport:
        """Execute one epoch of queued migrations under the budgets.

        Args:
            epoch: current epoch (drives backoff gates).
            dirty_pages: logical pages written inside this epoch's
                copy window (the snooped write set the dirty recheck
                tests against).
            epoch_s: the epoch's estimated duration, for the
                bandwidth throttle (ignored when ``copy_gbps`` is 0).
        """
        self.current_epoch = int(epoch)
        report = TickReport(epoch=int(epoch))
        dirty: Set[int] = (
            set(int(p) for p in np.atleast_1d(np.asarray(dirty_pages)).tolist())
            if dirty_pages is not None and np.asarray(dirty_pages).size
            else set()
        )
        budget = self.config.inflight_budget
        bw_pages = self._bandwidth_pages(epoch_s)
        if bw_pages is not None:
            budget = min(budget, bw_pages)
        if budget <= 0:
            # Even a fully starved tick must refresh the queue-depth
            # gauge: a throttled copy engine with a pinned queue is
            # exactly what the SLO watchdog watches migration_pending
            # for.
            self._m_pending.set(len(self.queue))
            return report

        batch = self.queue.take(epoch, budget)
        for i, request in enumerate(batch):
            needs = self._copies_needed(request)
            if needs > budget:
                # Out of copy budget: everything unattempted returns to
                # the front of the queue, order preserved.
                for leftover in reversed(batch[i:]):
                    self.queue.unget(leftover)
                break
            result = self.copier.execute(request, dirty)
            self._settle(request, result, report, epoch)
            budget -= result.copies
        if report.attempted:
            # One fold per tick into the run totals and the metrics,
            # in the report's outcome order (series first appear in
            # the order the outcomes first occurred).
            self.stats.fold(report)
            for outcome, count in report.outcomes.items():
                self._m_outcomes.labels(outcome=outcome.value).inc(count)
            self._m_copy_bytes.inc(report.copy_bytes)
            self._m_batch.observe(float(report.attempted))
        self._m_pending.set(len(self.queue))
        return report
