"""Physical-address arithmetic shared by every subsystem.

The paper assumes a 48-bit physical address (PA) space managed in 4KB
pages, with DRAM accessed at 64B cache-line granularity.  Hence a DRAM
access is identified by ``PA[47:6]`` and the page frame number (PFN) by
``PA[47:12]``.  Word indices within a page are ``PA[11:6]`` (64 words of
64B per 4KB page).

:class:`AddressRegion`'s membership checks accept either Python ints or
numpy integer arrays so the hot simulation paths stay vectorised.
"""

from __future__ import annotations

import numpy as np

#: Bytes per 64B word (one cache line).
WORD_SIZE = 64
#: log2(WORD_SIZE)
WORD_SHIFT = 6
#: Bytes per 4KB page.
PAGE_SIZE = 4096
#: log2(PAGE_SIZE)
PAGE_SHIFT = 12
#: 64B words per 4KB page.
WORDS_PER_PAGE = PAGE_SIZE // WORD_SIZE
#: log2(WORDS_PER_PAGE)
WORDS_PER_PAGE_SHIFT = PAGE_SHIFT - WORD_SHIFT
#: Width of the physical address space assumed throughout the paper.
PA_BITS = 48
#: Highest valid physical address (exclusive).
PA_SPACE = 1 << PA_BITS

#: Per-tenant window stride inside each tier's PA region (1TB): fleet
#: tenant ``t`` owns ``[tier_base + t*stride, tier_base + (t+1)*stride)``
#: of every tier, so frames of different tenants can never collide.
TENANT_PA_STRIDE = 1 << 40


class AddressRegion:
    """A contiguous physical address region ``[start, start + size)``.

    Used both for the device memory window exposed by the CXL
    controller and for the WAC monitoring window (the paper monitors a
    128MB region at a time, §3 "Scalability").
    """

    __slots__ = ("start", "size")

    def __init__(self, start: int, size: int):
        if size <= 0:
            raise ValueError("region size must be positive")
        if start < 0 or start + size > PA_SPACE:
            raise ValueError(
                f"region {start:#x}+{size:#x} outside 48-bit space")
        self.start = int(start)
        self.size = int(size)

    @property
    def end(self) -> int:
        """Exclusive end byte address."""
        return self.start + self.size

    @property
    def num_pages(self) -> int:
        return -(-self.size // PAGE_SIZE)

    @property
    def num_word_lines(self) -> int:
        return -(-self.size // WORD_SIZE)

    @property
    def first_page(self) -> int:
        return self.start >> PAGE_SHIFT

    def contains(self, pa):
        """Vectorised membership test for byte addresses."""
        return (pa >= self.start) & (pa < self.end)

    def contains_page(self, pfn):
        """Vectorised membership test for PFNs."""
        return (pfn >= self.first_page) & (pfn <= (self.end - 1) >> PAGE_SHIFT)

    def offset_of(self, pa):
        """Byte offset of ``pa`` inside the region (no bounds check)."""
        return pa - self.start

    def __repr__(self) -> str:
        return f"AddressRegion(start={self.start:#x}, size={self.size:#x})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AddressRegion)
            and self.start == other.start
            and self.size == other.size
        )

    def __hash__(self) -> int:
        return hash((self.start, self.size))


def tenant_window(
    tier_base: int,
    tenant: int,
    size: int,
    stride: int = TENANT_PA_STRIDE,
) -> AddressRegion:
    """Tenant ``tenant``'s private PA window inside one tier.

    Tier regions are carved into fixed-stride slots, one per tenant,
    so the windows of any two tenants are disjoint by construction
    (the tenant-isolation property the fleet's Hypothesis tests
    assert).  Tenant 0's window starts exactly at ``tier_base``,
    keeping single-tenant layouts bit-identical to the historical
    two-node map.
    """
    if tenant < 0:
        raise ValueError("tenant must be non-negative")
    if size > stride:
        raise ValueError(
            f"tenant window of {size:#x} bytes exceeds the "
            f"{stride:#x}-byte per-tenant stride"
        )
    return AddressRegion(tier_base + tenant * stride, size)


def as_line_array(addresses) -> np.ndarray:
    """Coerce byte addresses to a uint64 array of 64B line indices."""
    arr = np.asarray(addresses, dtype=np.uint64)
    return arr >> np.uint64(WORD_SHIFT)
