"""Migration requests, outcomes, and the async engine's statistics.

One :class:`MigrationRequest` is the unit of work flowing through the
asynchronous migration subsystem: a logical page, a direction, and the
retry bookkeeping the engine's abort/backoff policy needs.  The
possible fates of a request are enumerated by :class:`Outcome` —
mirroring Nomad's transactional page migration (copy, recheck, then
commit or abort) plus the Promoter safety rejections (§5.2 ④) and the
TPP-style fast-tier-full failure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class Direction(enum.Enum):
    """Which way a page is moving between the tiers."""

    PROMOTE = "promote"  # CXL → DDR
    DEMOTE = "demote"  # DDR → CXL


class Outcome(enum.Enum):
    """How one migration transaction ended."""

    #: Shadow copy survived the dirty recheck; page rebound to the
    #: destination tier.
    COMMITTED = "committed"
    #: Page was already resident on the destination tier; nothing to do.
    NOOP = "noop"
    #: The page was written between copy start and the recheck
    #: (Nomad's mid-copy write): the shadow copy is stale, discard it.
    ABORT_DIRTY = "abort_dirty"
    #: Failure injection fired (robustness testing hook).
    ABORT_INJECTED = "abort_injected"
    #: Destination tier could not supply a frame (TPP's promotion
    #: failure when DDR is full and no victim could be demoted).
    ABORT_ENOMEM = "abort_enomem"
    #: Promoter safety check: DMA-pinned or node-bound page.
    REJECT_PINNED = "reject_pinned"


@dataclass
class MigrationRequest:
    """One queued page movement.

    Attributes:
        lpage: logical page id to move.
        direction: promotion or demotion.
        enqueued_epoch: epoch the request first entered the queue.
        not_before_epoch: backoff gate — the engine will not attempt
            the request again before this epoch.
        retries: how many aborted attempts the request has survived.
    """

    lpage: int
    direction: Direction
    enqueued_epoch: int = 0
    not_before_epoch: int = 0
    retries: int = 0


@dataclass
class AsyncMigrationStats:
    """Aggregate outcome counters of the async migration subsystem."""

    enqueued: int = 0
    duplicates: int = 0
    committed: int = 0
    promoted: int = 0
    demoted: int = 0
    aborted: int = 0
    aborted_dirty: int = 0
    aborted_injected: int = 0
    aborted_enomem: int = 0
    retries: int = 0
    dropped_queue_full: int = 0
    dropped_retries: int = 0
    rejected_pinned: int = 0
    noop: int = 0
    #: Copies attempted (commits *and* aborted copies — an aborted
    #: transaction still consumed copy bandwidth).
    pages_copied: int = 0
    copy_bytes: int = 0

    def fold(self, report: TickReport) -> None:
        """Add one tick's settled outcomes to the run totals."""
        self.committed += report.committed
        self.promoted += report.promoted
        self.demoted += report.demoted
        self.aborted += report.aborted
        self.aborted_dirty += report.aborted_dirty
        self.aborted_injected += report.aborted_injected
        self.aborted_enomem += report.aborted_enomem
        self.retries += report.retried
        self.dropped_retries += report.dropped_retries
        self.rejected_pinned += report.rejected_pinned
        self.noop += report.noop
        self.pages_copied += report.pages_copied
        self.copy_bytes += report.copy_bytes

    def as_extra(self, prefix: str = "mig_") -> Dict[str, float]:
        """Flatten into ``RunResult.extra``-style numeric fields."""
        return {
            prefix + key: float(value)
            for key, value in vars(self).items()
        }


@dataclass
class TickReport:
    """What one engine tick (one epoch of async work) did."""

    epoch: int = 0
    attempted: int = 0
    committed: int = 0
    promoted: int = 0
    demoted: int = 0
    aborted: int = 0
    aborted_dirty: int = 0
    aborted_injected: int = 0
    aborted_enomem: int = 0
    retried: int = 0
    dropped_retries: int = 0
    rejected_pinned: int = 0
    noop: int = 0
    pages_copied: int = 0
    copy_bytes: int = 0
    outcomes: Dict[Outcome, int] = field(default_factory=dict)
