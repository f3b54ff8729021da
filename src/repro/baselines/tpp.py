"""TPP (Transparent Page Placement): the other hinting-fault baseline.

The paper cites TPP [42] as the latest fault-based solution but
evaluates ANB instead ("TPP has some known problems [63] that we have
also experienced").  The model is still provided for completeness —
it is the design Meta upstreamed for CXL tiering, and it differs from
plain ANB in three ways:

* **decoupled watermarks** — the fast tier keeps free headroom for new
  allocations by demoting *proactively* (kswapd-style) once free
  pages fall under a demotion watermark, instead of demoting only
  when a promotion needs room;
* **two-touch promotion filter** — a faulting page is promoted only if
  it is on the slow tier's *active list*, i.e. it was accessed
  recently before the hinting fault (approximated with a last-seen
  window), cutting cold-page ping-pong;
* **promotion rate limit** — promotions are capped per period to
  bound migration bandwidth.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.anb import FAULT_COST_US, UNMAP_COST_US
from repro.baselines.base import EpochView, MigrationPolicy
from repro.memory.address import distinct_pages
from repro.memory.page_table import PageTable
from repro.memory.tiers import NodeKind, TieredMemory
from repro.memory.tlb import TlbShootdownModel

DEFAULT_SCAN_PERIOD_S = 0.1
#: Re-fault window: the second fault must land within this horizon.
DEFAULT_REFAULT_WINDOW_S = 2.0
#: Promotion rate limit in pages per second (the kernel throttles
#: promotion bandwidth; 256 model pages/s ~ 256MB/s real at the
#: default footprint scale).
DEFAULT_PROMOTION_RATE = 256.0


class Tpp(MigrationPolicy):
    """TPP model: watermark-driven, two-touch, rate-limited.

    Args:
        demotion_watermark: fraction of DDR capacity kept free; the
            caller (engine) is expected to honour
            :meth:`demotion_candidates` each epoch.
        refault_window_s: horizon for the two-touch filter.
        promotion_rate_pages_s: promotion rate limit.
    """

    name = "tpp"

    def __init__(
        self,
        memory: TieredMemory,
        page_table: Optional[PageTable] = None,
        scan_window_pages: Optional[int] = None,
        scan_period_s: float = DEFAULT_SCAN_PERIOD_S,
        demotion_watermark: float = 0.02,
        refault_window_s: float = DEFAULT_REFAULT_WINDOW_S,
        promotion_rate_pages_s: float = DEFAULT_PROMOTION_RATE,
        shootdown_model: Optional[TlbShootdownModel] = None,
        seed: int = 11,
    ):
        super().__init__(memory, page_table)
        if not 0 <= demotion_watermark < 1:
            raise ValueError("demotion_watermark must be in [0, 1)")
        if refault_window_s <= 0 or promotion_rate_pages_s <= 0:
            raise ValueError("window and rate must be positive")
        n = memory.num_logical_pages
        self.scan_window_pages = (
            int(scan_window_pages) if scan_window_pages else max(16, n // 256)
        )
        self.scan_period_s = float(scan_period_s)
        self.demotion_watermark = float(demotion_watermark)
        self.refault_window_s = float(refault_window_s)
        self.promotion_rate_pages_s = float(promotion_rate_pages_s)
        self.shootdowns = (
            shootdown_model if shootdown_model is not None else TlbShootdownModel()
        )
        self._scan_cursor = int(np.random.default_rng(seed).integers(n))
        self._next_scan_s = 0.0
        # Last time each page was seen accessed (its "active list"
        # recency); faults on pages idle longer than the window are
        # first touches and do not promote.
        self._last_seen_s = np.full(n, -np.inf)
        self._promotion_budget = 0.0
        self._last_now_s = 0.0
        self.pages_unmapped = 0
        self.faults_handled = 0
        self.refault_promotions = 0

    def _scan_if_due(self, now_s: float) -> None:
        while now_s >= self._next_scan_s:
            self._next_scan_s += self.scan_period_s
            n = self.memory.num_logical_pages
            window = (self._scan_cursor + np.arange(self.scan_window_pages)) % n
            self._scan_cursor = (self._scan_cursor + self.scan_window_pages) % n
            window = window[self.memory.node_map[window] == 1]
            unmapped = self.page_table.unmap(window)
            self.pages_unmapped += unmapped
            self.costs.charge(unmapped * UNMAP_COST_US, "unmap")
            self.costs.charge(self.shootdowns.cost_us(unmapped), "tlb_shootdown")

    def _detect(self, pages: np.ndarray, now_s: float, epoch_s: float) -> None:
        # Refill the promotion token bucket.
        self._promotion_budget = min(
            self._promotion_budget
            + (now_s - self._last_now_s) * self.promotion_rate_pages_s,
            self.promotion_rate_pages_s * 2.0,
        )
        self._last_now_s = now_s
        self._scan_if_due(now_s)
        faulted_mask = self.page_table.touch(pages)
        if not faulted_mask.any():
            self._last_seen_s[pages] = now_s
            return
        fault_pages = distinct_pages(pages[faulted_mask],
                                     self.memory.num_logical_pages)
        self.faults_handled += int(fault_pages.size)
        self.costs.charge(fault_pages.size * FAULT_COST_US, "hinting_fault")
        # Two-touch: promote only pages that were already active (seen
        # accessed within the window *before* this fault).
        since_seen = now_s - self._last_seen_s[fault_pages]
        active = fault_pages[since_seen <= self.refault_window_s]
        budget = int(self._promotion_budget)
        promote = active[:budget]
        self._promotion_budget -= promote.size
        self.refault_promotions += int(promote.size)
        self.record_hot(promote)
        self._last_seen_s[pages] = now_s

    def demotion_candidates(self) -> int:
        """Pages to demote proactively to restore the free watermark.

        TPP demotes ahead of allocation pressure; the engine should
        demote this many MGLRU victims when the value is positive.
        """
        target_free = int(self.memory.ddr.capacity_pages * self.demotion_watermark)
        return max(0, target_free - self.memory.ddr.free_pages)

    def demotion_victims(self, view: EpochView) -> np.ndarray:
        """kswapd-style proactive demotion: the coldest DDR-resident
        pages (per MGLRU) needed to restore the free watermark, judged
        after this epoch's promotions landed."""
        need = self.demotion_candidates()
        if need <= 0 or view.mglru is None:
            return np.empty(0, dtype=np.int64)
        ddr_pages = self.memory.pages_on(NodeKind.DDR)
        return view.mglru.coldest(need, among=ddr_pages)
