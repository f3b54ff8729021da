"""Shared fixtures for the test suite, and the Hypothesis profiles.

Tier-1 runs the derandomized ``tier1`` profile: every property test
replays the same examples on every run, with no example database and
no wall-clock deadline, so a green suite stays green.  Set
``HYPOTHESIS_PROFILE=explore`` to search randomly instead.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

from repro.memory.address import PAGE_SIZE, AddressRegion
from repro.memory.tiers import TieredMemory, NodeKind


@pytest.fixture
def small_region():
    """A 64-page device region starting at a non-zero base."""
    return AddressRegion(0x1000_0000, 64 * PAGE_SIZE)


@pytest.fixture
def tiered():
    """A small tiered memory: 16 DDR pages + 64 CXL pages, 32 logical."""
    mem = TieredMemory(ddr_pages=16, cxl_pages=64, num_logical_pages=32)
    mem.allocate_all(NodeKind.CXL)
    return mem


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_addresses(pfns, words=0):
    """Byte addresses for (page, word) pairs."""
    pfns = np.asarray(pfns, dtype=np.uint64)
    words = np.broadcast_to(np.asarray(words, dtype=np.uint64), pfns.shape)
    return (pfns << np.uint64(12)) | (words << np.uint64(6))
