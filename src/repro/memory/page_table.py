"""Page-table model exposing the PTE bits the baselines depend on.

CPU-driven page-migration solutions manipulate two PTE bits:

* the **present bit** — ANB-style solutions clear it ("unmap") so the
  next access raises a hinting page fault (§2.1 Solution 1);
* the **access bit** — PTE-scanning solutions read-and-clear it each
  epoch (§2.1 Solution 2); crucially the bit can only be set again
  after the cached TLB entry for the page is evicted, which this model
  enforces via the attached :class:`~repro.memory.tlb.Tlb`.

The table is indexed by *logical* page number; frame placement lives
in :class:`~repro.memory.tiers.TieredMemory`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.memory.address import distinct_pages
from repro.memory.tlb import Tlb


class PageTable:
    """Vectorised PTE array for one application.

    ``tenant`` tags the table with its owning fleet tenant (0 for
    single-run simulations): each tenant has its own address space,
    and the tag is what the isolation tests key ownership on.
    """

    def __init__(
        self, num_pages: int, tlb: Optional[Tlb] = None, tenant: int = 0
    ):
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        if tenant < 0:
            raise ValueError("tenant must be non-negative")
        self.num_pages = int(num_pages)
        self.tenant = int(tenant)
        self.present = np.ones(num_pages, dtype=bool)
        self.accessed = np.zeros(num_pages, dtype=bool)
        self.tlb = tlb if tlb is not None else Tlb(num_pages)
        # counters for overhead accounting
        self.hinting_faults = 0
        self.pte_writes = 0

    def touch(self, pages: np.ndarray) -> np.ndarray:
        """Apply a batch of page accesses.

        Sets the access bit for pages whose translation misses the TLB
        (hardware sets the A bit on a page walk; a TLB hit bypasses the
        walk so the bit stays stale — the §2.1 Solution 2 caveat).
        Each faulting page counts one hinting fault however often it
        was accessed; the faulted set is deduplicated by
        :func:`~repro.memory.address.distinct_pages`.

        Returns:
            Boolean mask of accesses that raised hinting page faults
            (page not present).
        """
        pages = np.asarray(pages, dtype=np.int64)
        faulted = ~self.present[pages]
        if faulted.any():
            fault_pages = distinct_pages(pages[faulted], self.num_pages)
            self.present[fault_pages] = True
            self.hinting_faults += int(fault_pages.size)
            self.pte_writes += int(fault_pages.size)
        missed = self.tlb.access(pages)
        walk_pages = pages[missed]
        if walk_pages.size:
            self.accessed[walk_pages] = True
        return faulted

    def unmap(self, pages: np.ndarray) -> int:
        """Clear present bits + shoot down TLB entries (ANB sampling).

        Returns the number of pages actually unmapped.
        """
        pages = np.asarray(pages, dtype=np.int64)
        was_present = self.present[pages]
        self.present[pages] = False
        self.pte_writes += int(was_present.sum())
        self.tlb.shootdown(pages)
        return int(was_present.sum())

    def scan_and_clear_accessed(self, pages: np.ndarray) -> np.ndarray:
        """Read-and-clear access bits over ``pages`` (DAMON/PTE-scan).

        Returns the boolean access-bit snapshot before clearing.
        """
        pages = np.asarray(pages, dtype=np.int64)
        snapshot = self.accessed[pages].copy()
        self.accessed[pages] = False
        self.pte_writes += int(pages.size)
        return snapshot

    def reset_counters(self) -> None:
        self.hinting_faults = 0
        self.pte_writes = 0
