"""Intel Flat Memory Mode (IFMM) model: the §9 synergy discussion.

IFMM [39, 74] makes local DDR an *exclusive cache* of CXL memory at
64B-word granularity: every CXL word address is one-to-one mapped to a
DDR word slot, and accessing a CXL-resident word **swaps** it with the
word currently in its DDR slot — no page tables, no TLB shootdowns, no
4KB copies.  Its structural limitation, which the paper points out, is
the one-to-one mapping: it only works when DDR and CXL have the same
capacity, and a hot word can only displace the one word it aliases
with.

The paper proposes using M5 *with* IFMM when CXL is larger than DDR:
IFMM serves hot words in sparse pages, M5 migrates dense hot pages.
This model implements the word-swap semantics and counters so that the
synergy experiment (`benchmarks/test_ext_ifmm_synergy.py`) can compare
IFMM-alone, M5-alone, and M5+IFMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.address import WORD_SHIFT
from repro.memory.tiers import CXL_LATENCY_NS, DDR_LATENCY_NS


@dataclass
class IfmmStats:
    """Access outcomes of the flat-mode controller."""

    ddr_hits: int = 0
    cxl_swaps: int = 0

    @property
    def total(self) -> int:
        return self.ddr_hits + self.cxl_swaps

    @property
    def hit_rate(self) -> float:
        return self.ddr_hits / self.total if self.total else 0.0


class FlatMemoryMode:
    """Word-granular exclusive DDR cache with one-to-one swap mapping.

    Args:
        ddr_words: number of 64B word slots in DDR.
        cxl_words: number of 64B words of CXL memory; each CXL word w
            aliases DDR slot ``w % ddr_words``.  With equal capacities
            this is the 1:1 mapping IFMM requires; with larger CXL,
            multiple CXL words contend for one slot — the regime where
            the paper says M5 must help.
        swap_extra_ns: extra latency of a swap access over a plain CXL
            read (the swap writes back the displaced word).
    """

    def __init__(self, ddr_words: int, cxl_words: int, swap_extra_ns: float = 40.0):
        if ddr_words <= 0 or cxl_words <= 0:
            raise ValueError("word counts must be positive")
        if cxl_words < ddr_words:
            raise ValueError("CXL must be at least as large as DDR")
        self.ddr_words = int(ddr_words)
        self.cxl_words = int(cxl_words)
        self.swap_extra_ns = float(swap_extra_ns)
        # For each DDR slot, which CXL word currently sits in it.
        # Initially the identity prefix: CXL word w (w < ddr_words)
        # starts in its own slot.
        self._in_slot = np.arange(self.ddr_words, dtype=np.int64)
        self.stats = IfmmStats()

    def slot_of(self, word: int) -> int:
        return int(word) % self.ddr_words

    def resident(self, word: int) -> bool:
        """Is the CXL word currently cached in DDR?"""
        return self._in_slot[self.slot_of(word)] == int(word)

    def access(self, words: np.ndarray) -> np.ndarray:
        """Access a sequence of CXL word indices (order matters).

        Returns a boolean mask: True where the access hit DDR, False
        where it swapped (served from CXL + writeback).
        """
        words = np.asarray(words, dtype=np.int64)
        hits = np.empty(words.size, dtype=bool)
        # Swap semantics are inherently sequential per slot; process
        # via python loop over a run-length-compressed view: repeated
        # consecutive accesses to the same word all hit after the
        # first.
        # lint: disable=PERF001 -- per-slot swap state makes each access
        # depend on the previous one; no vectorization preserves the
        # hit/swap sequence
        for i, word in enumerate(words.tolist()):
            slot = word % self.ddr_words
            if self._in_slot[slot] == word:
                hits[i] = True
            else:
                self._in_slot[slot] = word
                hits[i] = False
        self.stats.ddr_hits += int(hits.sum())
        self.stats.cxl_swaps += int((~hits).sum())
        return hits

    def access_addresses(self, addresses: np.ndarray, base: int = 0) -> np.ndarray:
        """Convenience: byte addresses relative to ``base``."""
        pa = np.asarray(addresses, dtype=np.uint64) - np.uint64(base)
        return self.access((pa >> np.uint64(WORD_SHIFT)).astype(np.int64))

    def service_time_ns(
        self,
        hits_mask: np.ndarray,
        ddr_latency_ns: float = DDR_LATENCY_NS,
        cxl_latency_ns: float = CXL_LATENCY_NS,
    ) -> float:
        """Aggregate service time for one access batch."""
        hits = int(np.asarray(hits_mask, dtype=bool).sum())
        misses = int(np.asarray(hits_mask).size) - hits
        return hits * ddr_latency_ns + misses * (
            cxl_latency_ns + self.swap_extra_ns
        )

    def reset(self) -> None:
        self._in_slot = np.arange(self.ddr_words, dtype=np.int64)
        self.stats = IfmmStats()
