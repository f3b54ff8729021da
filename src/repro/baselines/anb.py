"""Automatic NUMA Balancing (ANB): the hinting-page-fault baseline.

Models §2.1 Solution 1 / the kernel's NUMA balancing as the paper
evaluates it (Linux 5.19):

* a periodic scanner walks the address space, *unmapping* a window of
  pages (clearing PTE present bits and shooting down TLB entries
  across cores); the kernel default rate is ~256MB per scan period;
* a later access to an unmapped page takes a **hinting page fault**;
  the fault handler re-maps the page and records a NUMA fault for it;
* pages observed faulting (i.e. *recently touched at least once*) are
  promoted — ANB learns one bit of recency per scan window, which is
  exactly why it "often identifies warm pages as hot pages"
  (Observation 1): a page touched once looks identical to a page
  touched a million times;
* the scan period *adapts*: when scanning stops discovering new
  candidates the period backs off, which is why "ANB rarely unmaps
  pages" once migration reaches equilibrium (§7.2) — and why its
  steady-state overhead undercuts DAMON's.

CPU cost, charged to the shared core (§4.2): PTE writes + TLB
shootdowns during scanning, and fault handling on every hinting
fault — the latter dominates and scales with application access
breadth, which is how ANB inflates kernel CPU cycles by up to 487%
and Redis p99 by 34%.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import MigrationPolicy
from repro.memory.address import distinct_pages
from repro.memory.page_table import PageTable
from repro.memory.tiers import TieredMemory
from repro.memory.tlb import TlbShootdownModel

#: Kernel-ish cost constants (microseconds).
UNMAP_COST_US = 0.25       # PTE walk + write per sampled page
FAULT_COST_US = 2.5        # hinting-fault entry/exit + NUMA accounting

DEFAULT_SCAN_PERIOD_S = 0.1
MIN_SCAN_PERIOD_S = 0.1
MAX_SCAN_PERIOD_S = 60.0  # Linux numa_balancing_scan_period_max default
#: Period adaptation: back off when a window discovers few new pages.
BACKOFF_NOVELTY = 0.10
BACKOFF_FACTOR = 1.5
SPEEDUP_FACTOR = 1.25


class AutoNumaBalancing(MigrationPolicy):
    """ANB model with sequential scan windows and fault promotion.

    Args:
        scan_window_pages: pages unmapped per scan period.  The default
            mirrors the kernel's 256MB-per-second rate: with the
            default 0.1s period this walks the footprint in tens of
            seconds of simulated time.
        scan_period_s: initial time between scan windows (adapts).
        two_touch: require a second fault in the same residency window
            before promoting (kernel behaviour for shared pages).
    """

    name = "anb"

    def __init__(
        self,
        memory: TieredMemory,
        page_table: Optional[PageTable] = None,
        scan_window_pages: Optional[int] = None,
        scan_period_s: float = DEFAULT_SCAN_PERIOD_S,
        two_touch: bool = False,
        shootdown_model: Optional[TlbShootdownModel] = None,
        adaptive: bool = True,
        seed: int = 7,
    ):
        super().__init__(memory, page_table)
        n = memory.num_logical_pages
        self.scan_window_pages = (
            int(scan_window_pages) if scan_window_pages else max(16, n // 256)
        )
        self.scan_period_s = float(scan_period_s)
        self.two_touch = bool(two_touch)
        self.adaptive = bool(adaptive)
        self.shootdowns = (
            shootdown_model if shootdown_model is not None else TlbShootdownModel()
        )
        # The kernel's scan iterator starts wherever the task's VMA
        # walk happens to begin — model with a random offset so the
        # cursor is uncorrelated with the workload's own layout.
        self._scan_cursor = int(np.random.default_rng(seed).integers(n))
        self._next_scan_s = 0.0
        self._fault_count = np.zeros(n, dtype=np.int32)
        self._last_window_unmapped = 0
        self._hot_before_window = 0
        self.pages_unmapped = 0
        self.faults_handled = 0
        self.scan_windows = 0

    def _adapt_period(self) -> None:
        """Back off when the previous window found little new."""
        if not self.adaptive or self._last_window_unmapped == 0:
            return
        novelty = (len(self.hot_pages) - self._hot_before_window) / max(
            1, self._last_window_unmapped
        )
        if novelty < BACKOFF_NOVELTY:
            self.scan_period_s = min(
                self.scan_period_s * BACKOFF_FACTOR, MAX_SCAN_PERIOD_S
            )
        else:
            self.scan_period_s = max(
                self.scan_period_s / SPEEDUP_FACTOR, MIN_SCAN_PERIOD_S
            )

    def _scan_if_due(self, now_s: float) -> None:
        while now_s >= self._next_scan_s:
            self._adapt_period()
            self._next_scan_s += self.scan_period_s
            self._hot_before_window = len(self.hot_pages)
            n = self.memory.num_logical_pages
            window = (self._scan_cursor + np.arange(self.scan_window_pages)) % n
            self._scan_cursor = (self._scan_cursor + self.scan_window_pages) % n
            # Only CXL-resident pages need promotion hints; the kernel
            # scans slow-node VMAs.
            window = window[self.memory.node_map[window] == 1]
            unmapped = self.page_table.unmap(window)
            self.pages_unmapped += unmapped
            self.scan_windows += 1
            self._last_window_unmapped = unmapped
            self.costs.charge(unmapped * UNMAP_COST_US, "unmap")
            self.costs.charge(self.shootdowns.cost_us(unmapped), "tlb_shootdown")

    def _detect(self, pages: np.ndarray, now_s: float, epoch_s: float) -> None:
        self._scan_if_due(now_s)
        faulted_mask = self.page_table.touch(pages)
        if not faulted_mask.any():
            return
        fault_pages = distinct_pages(pages[faulted_mask],
                                     self.memory.num_logical_pages)
        self.faults_handled += int(fault_pages.size)
        self.costs.charge(fault_pages.size * FAULT_COST_US, "hinting_fault")
        self._fault_count[fault_pages] += 1
        threshold = 2 if self.two_touch else 1
        promote = fault_pages[self._fault_count[fault_pages] >= threshold]
        self.record_hot(promote)
