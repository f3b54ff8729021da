"""Multi-Generation LRU (MGLRU) model for choosing demotion victims.

M5 delegates *demotion* to MGLRU (§5.2): once DDR DRAM fills up, every
promotion of a hot page must be paid for by demoting a cold page to
CXL DRAM, and MGLRU picks those victims.  The model follows the kernel
design at page granularity: pages belong to generations; a page
accessed during an aging interval is logically moved to the youngest
generation; eviction (here: demotion) scans from the oldest
generation upward.
"""

from __future__ import annotations

import numpy as np


class MultiGenLru:
    """Generation tracker over the logical page space.

    Args:
        num_pages: logical page-space size.
        num_generations: kernel default is 4 (``MAX_NR_GENS``).
    """

    def __init__(self, num_pages: int, num_generations: int = 4):
        if num_generations < 2:
            raise ValueError("need at least 2 generations")
        self.num_pages = int(num_pages)
        self.num_generations = int(num_generations)
        # Generation sequence number per page; -1 = untracked.
        self._gen = np.full(num_pages, -1, dtype=np.int64)
        # Decayed access counts, the kernel's refault/tier signal: they
        # break ties *within* a generation so a page touched once per
        # interval is evicted before one touched thousands of times.
        self._heat = np.zeros(num_pages, dtype=np.float64)
        self._max_seq = 0
        self.aging_rounds = 0

    @property
    def max_seq(self) -> int:
        return self._max_seq

    @property
    def min_seq(self) -> int:
        return max(0, self._max_seq - (self.num_generations - 1))

    def track(self, pages: np.ndarray) -> None:
        """Start tracking pages (e.g. pages promoted onto DDR).

        Newly promoted pages join the *youngest* generation, exactly
        as the kernel's promotion path does — otherwise a fresh
        promotion would be the next demotion victim and migration
        would ping-pong.
        """
        pages = np.asarray(pages, dtype=np.int64)
        fresh = self._gen[pages] < 0
        self._gen[pages[fresh]] = self._max_seq

    def untrack(self, pages: np.ndarray) -> None:
        """Stop tracking pages (e.g. after demotion off the node)."""
        pages = np.asarray(pages, dtype=np.int64)
        self._gen[pages] = -1
        self._heat[pages] = 0.0

    def record_accesses(self, pages: np.ndarray) -> None:
        """Promote accessed pages to the youngest generation.

        Repeated occurrences in the batch accumulate into the heat
        signal, so access intensity survives epoch granularity.
        """
        pages = np.asarray(pages, dtype=np.int64)
        tracked_pages = pages[self._gen[pages] >= 0]
        self._gen[tracked_pages] = self._max_seq
        np.add.at(self._heat, tracked_pages, 1.0)

    def age(self, heat_decay: float = 0.5) -> None:
        """Open a new youngest generation (the kernel's ``inc_max_seq``)."""
        self._max_seq += 1
        self.aging_rounds += 1
        # Clamp stragglers into the window so generation count is bounded.
        floor = self.min_seq
        tracked = self._gen >= 0
        behind = tracked & (self._gen < floor)
        self._gen[behind] = floor
        self._heat *= heat_decay

    def generation_of(self, page: int) -> int:
        """Relative generation: 0 = youngest, larger = older; -1 if untracked."""
        g = int(self._gen[page])
        if g < 0:
            return -1
        return self._max_seq - g

    def coldest(self, n: int, among: np.ndarray = None) -> np.ndarray:
        """Pick up to ``n`` demotion victims, oldest generations first.

        Args:
            among: restrict candidates to these pages (e.g. DDR-resident
                pages); defaults to every tracked page.
        """
        if among is None:
            candidates = np.nonzero(self._gen >= 0)[0]
        else:
            among = np.asarray(among, dtype=np.int64)
            candidates = among[self._gen[among] >= 0]
        if candidates.size == 0 or n <= 0:
            return np.empty(0, dtype=np.int64)
        gens = self._gen[candidates]
        if n == 1:
            # The lexsort's first entry by three masked O(D) reductions
            # over the same key: oldest generation, then coldest heat
            # within it, then the smallest page id.
            oldest = candidates[gens == gens.min()]
            heat = self._heat[oldest]
            return oldest[heat == heat.min()].min(keepdims=True)
        # Oldest (smallest seq) first; within a generation, coldest
        # heat first; final tie broken by page id for determinism.
        order = np.lexsort((candidates, self._heat[candidates], gens))
        return candidates[order[: min(int(n), candidates.size)]]

    def tracked_count(self) -> int:
        return int((self._gen >= 0).sum())
