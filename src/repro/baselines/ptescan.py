"""Full PTE scanning: the exhaustive variant of §2.1 Solution 2.

Where DAMON samples one page per region, the classic scanners
(kstaled, Thermostat, MULTI-CLOCK, ...) walk *every* valid PTE each
epoch, read-and-clear the access bit, and accumulate a per-page
counter over multiple epochs.  Two structural limitations carry over:

* the access bit is Boolean — one epoch contributes at most 1 count no
  matter how many times the page was hit, so hot and warm pages are
  separated only by *persistence*, not intensity;
* the bit is set on TLB misses only, so TLB-resident hot pages
  undercount;
* scanning all PTEs costs CPU proportional to the footprint, every
  epoch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import MigrationPolicy
from repro.memory.page_table import PageTable
from repro.memory.tiers import TieredMemory

#: Cost per scanned PTE (walk is amortised by sequential layout), us.
SCAN_COST_US = 0.05

DEFAULT_SCAN_PERIOD_S = 0.1


class PteScanner(MigrationPolicy):
    """Periodic full-table scanner with accumulated access counts.

    Args:
        scan_period_s: time between full scans.
        hot_epochs: number of set-bit epochs (within the window) after
            which a page is declared hot.
        window_epochs: sliding accumulation window length.
    """

    name = "pte-scan"

    def __init__(
        self,
        memory: TieredMemory,
        page_table: Optional[PageTable] = None,
        scan_period_s: float = DEFAULT_SCAN_PERIOD_S,
        hot_epochs: int = 3,
        window_epochs: int = 8,
    ):
        super().__init__(memory, page_table)
        if hot_epochs <= 0 or window_epochs < hot_epochs:
            raise ValueError("need 0 < hot_epochs <= window_epochs")
        self.scan_period_s = float(scan_period_s)
        self.hot_epochs = int(hot_epochs)
        self.window_epochs = int(window_epochs)
        n = memory.num_logical_pages
        self._bit_history = np.zeros(n, dtype=np.int32)
        self._epochs_in_window = 0
        self._next_scan_s = self.scan_period_s
        self.scans = 0

    def _scan(self) -> None:
        n = self.memory.num_logical_pages
        all_pages = np.arange(n)
        bits = self.page_table.scan_and_clear_accessed(all_pages)
        self._bit_history += bits.astype(np.int32)
        self._epochs_in_window += 1
        self.scans += 1
        self.costs.charge(n * SCAN_COST_US, "pte_scan")
        hot = np.nonzero(self._bit_history >= self.hot_epochs)[0]
        hot = hot[self.memory.node_map[hot] == 1]
        self.record_hot(hot)
        if self._epochs_in_window >= self.window_epochs:
            self._bit_history[:] = 0
            self._epochs_in_window = 0

    def _detect(self, pages: np.ndarray, now_s: float, epoch_s: float) -> None:
        self.page_table.touch(pages)
        # Access bits refresh at most once per epoch, so multiple due
        # scans inside one epoch collapse into a single effective scan
        # (the later passes would read only cleared bits).
        if now_s >= self._next_scan_s:
            while now_s >= self._next_scan_s:
                self._next_scan_s += self.scan_period_s
            self._scan()
