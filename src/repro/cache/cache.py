"""Set-associative cache model.

The trackers and profilers in the CXL controller see *cache-filtered*
traffic: only LLC misses reach DRAM.  The paper collects its traces
with Pin + Ramulator (§7.1) and scales LLC capacity with the core
count via Intel CAT way partitioning (§6).  This model provides the
same filtering: a set-associative, write-allocate LLC with true-LRU
replacement and a way mask standing in for CAT.
"""

from __future__ import annotations

import numpy as np

from repro.memory.address import WORD_SHIFT


class SetAssociativeCache:
    """Exact set-associative LRU cache over 64B lines.

    Args:
        capacity_bytes: total cache capacity.
        ways: associativity (LLC-class defaults).
        line_bytes: cache-line size (64B throughout the paper).
        allocated_ways: CAT way mask — how many of the ways this
            workload may fill (paper Table 3 gives 10 of 15 ways for
            GAP, 4 for SPECrate, 1 for Redis).
    """

    def __init__(
        self,
        capacity_bytes: int,
        ways: int = 15,
        line_bytes: int = 64,
        allocated_ways: int = None,
    ):
        if capacity_bytes <= 0 or ways <= 0:
            raise ValueError("capacity and ways must be positive")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        self.line_bytes = int(line_bytes)
        self.ways = int(ways)
        self.allocated_ways = int(allocated_ways) if allocated_ways else self.ways
        if not 1 <= self.allocated_ways <= self.ways:
            raise ValueError("allocated_ways must be in [1, ways]")
        num_lines = capacity_bytes // line_bytes
        self.num_sets = max(1, num_lines // self.ways)
        # Effective capacity under the way mask:
        self.effective_lines = self.num_sets * self.allocated_ways
        # tags[set][slot]; -1 empty.  lru[set][slot] = age rank
        self._tags = np.full((self.num_sets, self.allocated_ways), -1, dtype=np.int64)
        self._stamp = np.zeros((self.num_sets, self.allocated_ways), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    @property
    def capacity_bytes(self) -> int:
        return self.effective_lines * self.line_bytes

    def access_line(self, line: int) -> bool:
        """Access one 64B line; returns True on hit."""
        set_idx = line % self.num_sets
        tag = line // self.num_sets
        row = self._tags[set_idx]
        self._clock += 1
        hit = np.nonzero(row == tag)[0]
        if hit.size:
            self._stamp[set_idx, hit[0]] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        empty = np.nonzero(row == -1)[0]
        slot = empty[0] if empty.size else int(np.argmin(self._stamp[set_idx]))
        self._tags[set_idx, slot] = tag
        self._stamp[set_idx, slot] = self._clock
        return False

    def filter(self, addresses: np.ndarray) -> np.ndarray:
        """Pass byte addresses through the cache; return the misses.

        The returned array preserves order — it is the DRAM request
        stream the CXL controller (and hence PAC/WAC/HPT/HWT) sees.
        """
        pa = np.asarray(addresses, dtype=np.uint64)
        lines = (pa >> np.uint64(WORD_SHIFT)).astype(np.int64)
        missed = np.fromiter(
            (not self.access_line(int(line)) for line in lines),
            dtype=bool,
            count=lines.size,
        )
        return pa[missed]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def flush(self) -> None:
        self._tags[:] = -1
        self._stamp[:] = 0
        self._clock = 0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

