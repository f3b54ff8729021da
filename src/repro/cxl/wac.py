"""Word Access Counter (WAC): exact per-64B-word access counting.

WAC (paper §3) shares PAC's architecture but skips the address-to-PFN
conversion: the SRAM unit is indexed directly by the 64B word-line
index.  Because counting every word of a large device memory would
need gigabytes of counters, the paper's WAC monitors a *128MB window*
at a time with 4-bit counters, sweeping the window across the device
memory over multiple intervals or runs (§3 "Scalability").
"""

from __future__ import annotations

import numpy as np

from repro.memory.address import (
    WORD_SHIFT,
    WORDS_PER_PAGE,
    AddressRegion,
)
from repro.cxl.batch import AccessBatch
from repro.cxl.mmio import CounterWindow, RegisterFile

#: Window size used by the paper's WAC deployment.
DEFAULT_WINDOW_BYTES = 128 * 1024 * 1024
#: Counter width used by the paper's WAC deployment.
DEFAULT_COUNTER_BITS = 4


class WordAccessCounter:
    """Exact per-word access counter over a movable monitoring window.

    Args:
        device_region: full CXL device memory region.
        window_bytes: size of the monitored sub-region (paper: 128MB).
        counter_bits: L for the SRAM counters (paper: 4).
    """

    def __init__(
        self,
        device_region: AddressRegion,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        counter_bits: int = DEFAULT_COUNTER_BITS,
    ) -> None:
        if not 1 <= counter_bits <= 32:
            raise ValueError("counter_bits must be in [1, 32]")
        if window_bytes <= 0:
            raise ValueError("window_bytes must be positive")
        self.device_region = device_region
        self.window_bytes = min(int(window_bytes), device_region.size)
        self.counter_bits = counter_bits
        self._saturation = (1 << counter_bits) - 1

        self.monitor_region = AddressRegion(device_region.start, self.window_bytes)
        num_lines = self.monitor_region.num_word_lines
        self._sram = np.zeros(num_lines, dtype=np.uint32)
        # 64-bit spill table covering only the monitored window.
        self._table = np.zeros(num_lines, dtype=np.uint64)
        self.total_accesses = 0
        self.spills = 0

        self.registers = RegisterFile(
            ["window_base", "enable", "reset", "monitor_start", "monitor_size"]
        )
        self.registers.write("enable", 1)
        self._sync_registers()
        self.window = CounterWindow(self._sram)

    def _sync_registers(self) -> None:
        self.registers.write("monitor_start", self.monitor_region.start)
        self.registers.write("monitor_size", self.monitor_region.size)

    @property
    def enabled(self) -> bool:
        return bool(self.registers.read("enable"))

    def set_monitor_window(self, start: int) -> None:
        """Move the monitoring window (clears all counters).

        The paper sweeps the window across CXL memory "over multiple
        intervals during a single run" or across runs.
        """
        region = AddressRegion(start, self.window_bytes)
        if region.start < self.device_region.start or region.end > self.device_region.end:
            raise ValueError("monitor window outside device memory")
        self.monitor_region = region
        self._sram[:] = 0
        self._table[:] = 0
        self.total_accesses = 0
        self.spills = 0
        self._sync_registers()

    def observe(self, addresses: np.ndarray) -> None:
        """Snoop byte addresses; count only those inside the window."""
        if not self.enabled:
            return
        pa = np.asarray(addresses, dtype=np.uint64)
        pa = pa[self.monitor_region.contains(pa)]
        if pa.size == 0:
            return
        rel = ((pa - np.uint64(self.monitor_region.start)) >> np.uint64(WORD_SHIFT)).astype(
            np.int64
        )
        self.total_accesses += int(rel.size)
        uniq, counts = np.unique(rel, return_counts=True)
        self._apply(uniq, counts.astype(np.uint64))

    def observe_batch(self, batch: AccessBatch) -> None:
        """Snoop a pre-digested :class:`~repro.cxl.batch.AccessBatch`.

        The batch is filtered against the whole device region, which is
        wider than the monitor window, so the word-granularity uniques
        are re-filtered here before scattering.
        """
        if not self.enabled:
            return
        if batch.size == 0:
            return
        lines, counts = batch.unique_keys(WORD_SHIFT)
        lo = np.uint64(self.monitor_region.start >> WORD_SHIFT)
        hi = np.uint64(self.monitor_region.end >> WORD_SHIFT)
        in_window = (lines >= lo) & (lines < hi)
        if not in_window.any():
            return
        rel = (lines[in_window] - lo).astype(np.int64)
        weights = counts[in_window].astype(np.uint64)
        self.total_accesses += int(weights.sum())
        self._apply(rel, weights)

    def _apply(self, rel: np.ndarray, counts: np.ndarray) -> None:
        """Add per-line chunk counts (``rel`` unique line indices,
        ``counts`` their totals), spilling saturated counters.  Sparse
        on purpose: only the chunk's lines are touched, never the full
        window-sized SRAM array.  Same contract as the PAC's
        ``_apply_direct``: ``counts()`` is exact, ``spills`` may differ
        from the per-access semantics."""
        new = self._sram[rel].astype(np.uint64) + counts
        overflow = new > self._saturation
        if overflow.any():
            self.spills += int(overflow.sum())
            self._table[rel[overflow]] += new[overflow]
            new[overflow] = 0
        self._sram[rel] = new.astype(np.uint32)

    def counts(self) -> np.ndarray:
        """Precise per-word counts over the monitored window."""
        return self._table + self._sram.astype(np.uint64)

    def counts_by_page(self) -> np.ndarray:
        """Per-word counts reshaped to (pages, 64 words)."""
        counts = self.counts()
        pages = len(counts) // WORDS_PER_PAGE
        return counts[: pages * WORDS_PER_PAGE].reshape(pages, WORDS_PER_PAGE)

    def unique_words_per_page(self, min_accesses: int = 1) -> np.ndarray:
        """Distinct accessed 64B words per page in the window.

        This is the statistic behind Figure 4 (access sparsity).

        Args:
            min_accesses: only report pages with at least this many
                total accesses.  A page's word-usage pattern is only
                observable once it has been accessed enough times; the
                paper's runs are minutes long so every allocated page
                qualifies, while scaled-down traces need the filter.
                Unqualified pages report 0.
        """
        by_page = self.counts_by_page()
        uniques = (by_page > 0).sum(axis=1)
        totals = by_page.sum(axis=1)
        uniques[totals < max(1, int(min_accesses))] = 0
        return uniques

    def reset(self) -> None:
        self._sram[:] = 0
        self._table[:] = 0
        self.total_accesses = 0
        self.spills = 0
