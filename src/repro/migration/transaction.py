"""Transactional page copy: shadow copy → dirty recheck → commit/abort.

Models Nomad-style transactional page migration: the page stays mapped
while a shadow copy is made to the destination tier; before the remap
commits, the copier rechecks whether the page was written during the
copy window (against the epoch's snooped writes plus any injected
dirtiness).  A dirty page means the shadow copy is stale — the
transaction aborts and the copy bandwidth was wasted, but the
application never observed a stalled page (that is the point of the
transactional scheme).

Commit-side failures are also modelled: promotion needs a DDR frame,
and when the fast tier is full the copier either demotes an MGLRU
victim first (TPP's demote-then-promote discipline), walking one
victim order per tick (:meth:`MigrationEngine.next_victim`), or aborts
with ENOMEM, per configuration.  Pinned pages are rejected outright before
any copy work (Promoter's §5.2 ④ safety check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

import numpy as np

from repro.memory.migration import MigrationEngine, VictimOrder
from repro.memory.tiers import NodeKind
from repro.migration.injection import FailureInjector
from repro.migration.request import Direction, MigrationRequest, Outcome


@dataclass
class TransactionResult:
    """Outcome of one transactional page migration attempt."""

    request: MigrationRequest
    outcome: Outcome
    #: Page copies performed (0 for rejections/ENOMEM-before-copy, 1
    #: for a plain copy, 2 when a demote-first fallback also copied).
    copies: int = 0
    #: Victim demoted by the fast-tier-full fallback, if any.
    fallback_victim: Optional[int] = None


class TransactionalCopier:
    """Executes one migration request as a Nomad-style transaction.

    Args:
        engine: the synchronous :class:`MigrationEngine` — supplies the
            memory system, MGLRU, pin table, and the stats the rest of
            the pipeline already reads (``promoted``/``demoted``/
            ``time_us``).
        injector: failure-injection hooks.
        enomem_fallback: when True, a full DDR triggers a demote-first
            fallback; when False it aborts the promotion with ENOMEM.
        remap_us: kernel CPU cost charged per committed page (the
            unmap/remap/TLB-shootdown share of the paper's 54 µs; the
            copy itself is charged as memory traffic, not CPU time).
    """

    def __init__(
        self,
        engine: MigrationEngine,
        injector: Optional[FailureInjector] = None,
        enomem_fallback: bool = True,
        remap_us: float = 12.0,
    ) -> None:
        if remap_us < 0:
            raise ValueError("remap_us must be non-negative")
        self.engine = engine
        self.memory = engine.memory
        self.mglru = engine.mglru
        self.injector = injector if injector is not None else FailureInjector()
        self.enomem_fallback = bool(enomem_fallback)
        self.remap_us = float(remap_us)

    # ------------------------------------------------------------------

    def _is_pinned(self, lpage: int) -> bool:
        return bool(self.engine._pins[lpage] != 0)

    def _record_rejection(self, lpage: int) -> None:
        reason = self.engine.pin_reason(lpage)
        self.engine.stats.rejected += 1
        self.engine.stats.rejected_by_reason[reason] = (
            self.engine.stats.rejected_by_reason.get(reason, 0) + 1
        )

    def _commit_move(self, lpage: int, to: NodeKind) -> None:
        self.memory.move_page(lpage, to)
        if to is NodeKind.DDR:
            self.mglru.track(np.array([lpage]))
            self.engine.stats.promoted += 1
        else:
            self.mglru.untrack(np.array([lpage]))
            self.engine.stats.demoted += 1
        self.engine.stats.time_us += self.remap_us

    def _ensure_frame(
        self,
        req: MigrationRequest,
        dst: NodeKind,
        result: TransactionResult,
        victims: VictimOrder,
    ) -> bool:
        """Secure a destination frame; False means ENOMEM abort."""
        if self.injector.deny_frame():
            return False
        node = self.memory.node(dst)
        free = node.free_pages
        if dst is NodeKind.DDR:
            free -= self.engine.ddr_reserve_pages
        if free > 0:
            return True
        if dst is not NodeKind.DDR or not self.enomem_fallback:
            return False
        found = self.engine.next_victim(victims, req.lpage)
        if found.size == 0:
            return False  # no demotable victim → ENOMEM
        victim = int(found[0])
        try:
            self._commit_move(victim, NodeKind.CXL)
        except MemoryError:
            return False
        result.fallback_victim = victim
        result.copies += 1
        return True

    # ------------------------------------------------------------------

    def execute(
        self,
        request: MigrationRequest,
        dirty: Set[int],
        victims: Optional[VictimOrder] = None,
    ) -> TransactionResult:
        """Run one request through copy → recheck → commit/abort.

        Args:
            request: the queued page movement to attempt.
            dirty: logical pages the snoop stage saw written inside
                this epoch's copy window.
            victims: the tick's demote-first victim order, shared by
                every request of one tick; a request run on its own
                gets a fresh one.
        """
        result = TransactionResult(request=request, outcome=Outcome.NOOP)
        lpage = request.lpage
        dst = (
            NodeKind.DDR
            if request.direction is Direction.PROMOTE
            else NodeKind.CXL
        )

        if self._is_pinned(lpage):
            self._record_rejection(lpage)
            result.outcome = Outcome.REJECT_PINNED
            return result
        if self.memory.node_of_page(lpage) is dst:
            result.outcome = Outcome.NOOP
            return result
        if victims is None:
            victims = VictimOrder()
        if not self._ensure_frame(request, dst, result, victims):
            result.outcome = Outcome.ABORT_ENOMEM
            return result

        # Shadow copy: bandwidth is consumed whether or not we commit.
        result.copies += 1
        if self.injector.should_abort_copy():
            result.outcome = Outcome.ABORT_INJECTED
            return result
        if lpage in dirty or self.injector.is_dirty(lpage):
            result.outcome = Outcome.ABORT_DIRTY
            return result

        try:
            self._commit_move(lpage, dst)
        except MemoryError:
            result.outcome = Outcome.ABORT_ENOMEM
            return result
        result.outcome = Outcome.COMMITTED
        return result
