"""Page Access Counter (PAC): exact per-4KB-page access counting.

PAC (paper §3, Figure 2) lives in the CXL controller between the CXL
IP and the memory controllers.  It snoops every memory-access address
``PA[47:6]``, right-shifts by 6 bits to obtain the PFN, and increments
an L-bit counter in an SRAM unit indexed by the PFN.  Saturated L-bit
counters are accumulated into 64-bit counters in an *access-count
table* allocated in host or device memory; after a run the host reads
the precise per-page counts from that table (plus the live SRAM
residue).

Because PAC tracks *every* DRAM access it serves as the ground truth
against which all page-migration solutions are scored (the
access-count-ratio metric of §4.1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from repro.memory.address import (
    PAGE_SHIFT,
    WORDS_PER_PAGE_SHIFT,
    AddressRegion,
    as_line_array,
)
from repro.cxl.batch import AccessBatch
from repro.cxl.mmio import CounterWindow, RegisterFile


class PageAccessCounter:
    """Exact per-page access counter with L-bit SRAM and 64-bit spill.

    Args:
        region: the CXL device memory region being monitored.
        counter_bits: L, the SRAM counter width (paper default 16; a
            16-bit counter saturates only after ~20s of even
            memory-intensive traffic).
        sram_counters: optionally cap the number of SRAM counters; when
            the region has more pages than counters, PAC operates in
            the §3 "Scalability" *cache* mode, evicting counters to the
            access-count table on conflict.
    """

    def __init__(
        self,
        region: AddressRegion,
        counter_bits: int = 16,
        sram_counters: Optional[int] = None,
    ) -> None:
        if not 1 <= counter_bits <= 32:
            raise ValueError("counter_bits must be in [1, 32]")
        self.region = region
        self.counter_bits = counter_bits
        self._saturation = (1 << counter_bits) - 1
        self.num_pages = region.num_pages

        self._cache_mode = (
            sram_counters is not None and sram_counters < self.num_pages
        )
        if self._cache_mode:
            self._num_sram = int(sram_counters)
            # Direct-mapped counter cache: tag array holds the PFN
            # (relative to region start) currently cached per set.
            self._tags = np.full(self._num_sram, -1, dtype=np.int64)
        else:
            self._num_sram = self.num_pages
            self._tags = None

        # L-bit SRAM counters (stored in uint32, saturating at 2^L-1).
        self._sram = np.zeros(self._num_sram, dtype=np.uint32)
        # 64-bit access-count table in host/device memory.
        self._table = np.zeros(self.num_pages, dtype=np.uint64)
        # Statistics.
        self.total_accesses = 0
        self.spills = 0
        self.evictions = 0
        # MMIO plumbing.
        self.registers = RegisterFile(
            ["window_base", "enable", "reset", "region_start", "region_size"]
        )
        self.registers.write("enable", 1)
        self.registers.write("region_start", region.start)
        self.registers.write("region_size", region.size)
        self.window = CounterWindow(self._sram)

    @property
    def enabled(self) -> bool:
        return bool(self.registers.read("enable"))

    def observe(self, addresses: np.ndarray) -> None:
        """Snoop a batch of byte addresses headed for the MCs.

        Addresses outside the monitored region are ignored (the
        hardware only sees requests routed to its own device memory).
        """
        if not self.enabled:
            return
        pa = np.asarray(addresses, dtype=np.uint64)
        pa = pa[self.region.contains(pa)]
        if pa.size == 0:
            return
        lines = as_line_array(pa)
        # The address-to-PFN converter: right shift by 6 bits of the
        # 64B line index (total 12 bits off the byte address).
        pfns = (lines >> np.uint64(WORDS_PER_PAGE_SHIFT)).astype(np.int64)
        rel = pfns - self.region.first_page
        self.total_accesses += int(rel.size)
        if self._cache_mode:
            self._observe_cached(rel)
        else:
            self._observe_direct(rel)

    def observe_batch(self, batch: AccessBatch) -> None:
        """Snoop a pre-digested :class:`~repro.cxl.batch.AccessBatch`.

        Reuses the batch's memoized page-granularity uniques when the
        batch was filtered against this counter's own region; any other
        configuration falls back to :meth:`observe`.
        """
        if not self.enabled:
            return
        if batch.region is not self.region or self._cache_mode:
            self.observe(batch.addresses)
            return
        if batch.size == 0:
            return
        pfns, counts = batch.unique_keys(PAGE_SHIFT)
        rel = pfns.astype(np.int64) - self.region.first_page
        self.total_accesses += batch.size
        self._apply_direct(rel, counts.astype(np.uint64))

    def _observe_direct(self, rel: np.ndarray) -> None:
        uniq, counts = np.unique(rel, return_counts=True)
        self._apply_direct(uniq, counts.astype(np.uint64))

    def _apply_direct(self, rel: np.ndarray, counts: np.ndarray) -> None:
        """Add per-slot chunk counts (``rel`` unique slot indices,
        ``counts`` their totals), spilling saturated counters.  Sparse
        on purpose: only the chunk's slots are touched, never the full
        SRAM array.

        ``counts()`` matches the per-access hardware semantics (one
        increment, spill on each saturation crossing) exactly; only the
        ``spills`` statistic differs, since one chunk spill covers
        several saturations."""
        new = self._sram[rel].astype(np.uint64) + counts
        overflow = new > self._saturation
        if overflow.any():
            # Accumulate the saturated portion into the 64-bit table
            # and reset the SRAM counter (paper §3: "PAC may reset
            # saturated counters after accumulating them").
            self.spills += int(overflow.sum())
            self._table[rel[overflow]] += new[overflow]
            new[overflow] = 0
        self._sram[rel] = new.astype(np.uint32)

    def _observe_cached(self, rel: np.ndarray) -> None:
        # Direct-mapped cache of counters; sequential semantics matter
        # only for eviction ordering, which we preserve per unique
        # conflict — run-length compress the stream first, then apply
        # each run of consecutive same-page accesses in one step.
        starts = np.nonzero(np.diff(rel, prepend=rel[0] - 1))[0]
        run_pfns = rel[starts]
        run_lens = np.diff(starts, append=rel.size)
        run_sets = run_pfns % self._num_sram
        period = self._saturation + 1
        # lint: disable=PERF001 -- loop is over run-length-compressed
        # runs, not accesses; direct-mapped eviction order is
        # inherently sequential per SRAM set
        for pfn_rel, set_idx, n in zip(
            run_pfns.tolist(), run_sets.tolist(), run_lens.tolist()
        ):
            tag = self._tags[set_idx]
            if tag != pfn_rel:
                if tag >= 0:
                    # Write back the evicted count, then install the
                    # newcomer with count 1 (paper: "writes 1 to the
                    # counter in the SRAM unit").
                    self._table[tag] += self._sram[set_idx]
                    self.evictions += 1
                self._tags[set_idx] = pfn_rel
                total = n  # install writes 1, then n-1 increments
            else:
                total = int(self._sram[set_idx]) + n
            # n sequential increments from the current value: every
            # time the counter exceeds saturation it spills exactly
            # saturation+1 into the table and resets to zero, so the
            # run collapses to a division instead of a Python loop.
            nspills = total // period
            if nspills:
                self._table[pfn_rel] += nspills * period
                self.spills += nspills
            self._sram[set_idx] = total % period

    def flush(self) -> None:
        """Drain live SRAM counts into the access-count table."""
        if self._cache_mode:
            live = self._tags >= 0
            np.add.at(self._table, self._tags[live], self._sram[live].astype(np.uint64))
            self._sram[live] = 0
            self._tags[live] = -1
        else:
            self._table += self._sram.astype(np.uint64)
            self._sram[:] = 0

    def counts(self) -> np.ndarray:
        """Precise per-page access counts over the region (64-bit).

        Combines the access-count table with any unspilled SRAM
        residue; does not disturb the live counters.
        """
        total = self._table.copy()
        if self._cache_mode:
            live = self._tags >= 0
            np.add.at(total, self._tags[live], self._sram[live].astype(np.uint64))
        else:
            total += self._sram.astype(np.uint64)
        return total

    def count_of_page(self, pfn: int) -> int:
        """Access count for an absolute PFN (the §4.1 table lookup)."""
        rel = int(pfn) - self.region.first_page
        if not 0 <= rel < self.num_pages:
            return 0
        return int(self.counts()[rel])

    def counts_of_pages(self, pfns: ArrayLike) -> np.ndarray:
        """Vectorised access-count lookup for absolute PFNs."""
        rel = np.asarray(pfns, dtype=np.int64) - self.region.first_page
        table = self.counts()
        valid = (rel >= 0) & (rel < self.num_pages)
        out = np.zeros(rel.shape, dtype=np.uint64)
        out[valid] = table[rel[valid]]
        return out

    def top_k(self, k: int) -> np.ndarray:
        """Absolute PFNs of the top-``k`` hottest pages (ties broken by
        lower PFN, sorted hottest first)."""
        table = self.counts()
        k = min(int(k), self.num_pages)
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        # argsort on (count desc, pfn asc) for deterministic output.
        order = np.lexsort((np.arange(self.num_pages), -table.astype(np.int64)))
        rel = order[:k]
        rel = rel[table[rel] > 0]
        return rel + self.region.first_page

    def top_k_access_count(self, k: int) -> int:
        """Sum of counts of the true top-``k`` pages (§4.1 S5)."""
        table = np.sort(self.counts())[::-1]
        return int(table[: min(int(k), table.size)].sum())

    def reset(self) -> None:
        """Clear all counters (SRAM + table)."""
        self._sram[:] = 0
        self._table[:] = 0
        if self._cache_mode:
            self._tags[:] = -1
        self.total_accesses = 0
        self.spills = 0
        self.evictions = 0

    def read_sram_via_mmio(self) -> np.ndarray:
        """Read the raw SRAM contents through the 1MB MMIO window."""
        return self.window.read_all()
