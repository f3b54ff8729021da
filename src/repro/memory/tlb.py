"""TLB model: cached translations, passive eviction, and shootdowns.

Two behaviours matter for reproducing the paper:

1. **Access-bit staleness** (§2.1 Solution 2): the PTE access bit is
   set only on a page walk, i.e. on a TLB *miss*.  While a page's
   translation stays cached, further accesses leave the bit untouched,
   so scanners undercount hot pages that stay TLB-resident.  The model
   caches up to ``capacity`` translations with random replacement plus
   a per-epoch decay probability standing in for context switches and
   conflict misses ("passively invalidates TLB entries, depending on
   architectural events").

2. **Shootdown cost** (§2.1 Solution 1): ANB-style unmapping must
   invalidate entries across all cores; each shootdown costs CPU
   cycles on every core, which the overhead model charges.
"""

from __future__ import annotations

import numpy as np

from repro.memory.address import distinct_pages


class TlbShootdownModel:
    """CPU cost constants for TLB invalidations.

    The default per-shootdown cost is in the range reported for IPI
    based shootdowns on multi-core Xeons (a few microseconds of
    combined sender/receiver work).
    """

    def __init__(self, cost_us_per_shootdown: float = 4.0, num_cores: int = 8):
        if cost_us_per_shootdown < 0:
            raise ValueError("cost must be non-negative")
        self.cost_us_per_shootdown = float(cost_us_per_shootdown)
        self.num_cores = int(num_cores)

    def cost_us(self, num_shootdowns: int) -> float:
        return num_shootdowns * self.cost_us_per_shootdown


class Tlb:
    """Set-of-pages TLB with random replacement.

    Args:
        num_pages: size of the logical page space.
        capacity: number of cached translations (Xeon-class second
            level TLBs hold a few thousand 4K entries).
        decay: per-``age()`` probability that a cached entry is evicted
            by background architectural events.
        seed: RNG seed for reproducible replacement.
    """

    def __init__(
        self,
        num_pages: int,
        capacity: int = 2048,
        decay: float = 0.20,
        seed: int = 1234,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        self.num_pages = int(num_pages)
        self.capacity = int(capacity)
        self.decay = float(decay)
        self._rng = np.random.default_rng(seed)
        self._cached = np.zeros(num_pages, dtype=bool)
        self._resident = 0
        self.misses = 0
        self.hits = 0
        self.shootdowns = 0

    @property
    def resident(self) -> int:
        return self._resident

    def access(self, pages: np.ndarray) -> np.ndarray:
        """Look up a batch of pages; cache the missing translations.

        The missing pages are cached once each, ascending, deduplicated
        by :func:`~repro.memory.address.distinct_pages` (what
        ``np.unique`` returns, without numpy 2's hash).

        Returns:
            Boolean mask (aligned with ``pages``) of accesses that
            missed the TLB — i.e. that performed a page walk and set
            the PTE access bit.
        """
        pages = np.asarray(pages, dtype=np.int64)
        missed = ~self._cached[pages]
        self.hits += int((~missed).sum())
        new_pages = distinct_pages(pages[missed], self.num_pages)
        self.misses += int(missed.sum())
        if new_pages.size:
            self._insert(new_pages)
        return missed

    def _insert(self, new_pages: np.ndarray) -> None:
        overflow = self._resident + new_pages.size - self.capacity
        if overflow > 0:
            resident_pages = np.nonzero(self._cached)[0]
            evict = self._rng.choice(
                resident_pages, size=min(overflow, resident_pages.size), replace=False
            )
            self._cached[evict] = False
            self._resident -= int(evict.size)
        self._cached[new_pages] = True
        self._resident += int(new_pages.size)
        if self._resident > self.capacity:
            # more new pages than capacity: keep a random subset
            resident_pages = np.nonzero(self._cached)[0]
            evict = self._rng.choice(
                resident_pages, size=self._resident - self.capacity, replace=False
            )
            self._cached[evict] = False
            self._resident = self.capacity

    def shootdown(self, pages: np.ndarray) -> int:
        """Invalidate specific pages (active shootdown, ANB-style).

        Returns the number of entries actually invalidated.
        """
        pages = np.asarray(pages, dtype=np.int64)
        present = self._cached[pages]
        n = int(present.sum())
        self._cached[pages] = False
        self._resident -= n
        self.shootdowns += int(pages.size)
        return n

    def age(self) -> None:
        """Apply background eviction (context switches, conflicts)."""
        if self._resident == 0 or self.decay == 0.0:
            return
        resident_pages = np.nonzero(self._cached)[0]
        drop = self._rng.random(resident_pages.size) < self.decay
        self._cached[resident_pages[drop]] = False
        self._resident -= int(drop.sum())

    def flush(self) -> None:
        self._cached[:] = False
        self._resident = 0
