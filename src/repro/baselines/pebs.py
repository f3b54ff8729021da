"""PEBS-style sampling: §2.1 Solution 3 (the Memtis family).

Samples one out of every ``sample_period`` DRAM accesses into a PEBS
buffer; when the buffer fills, an interrupt fires and the CPU drains
it into per-page sample counters (Memtis additionally halves counters
periodically — a cooling knob reproduced here).  Hot pages are those
whose sample count crosses a threshold.

Two properties the paper calls out:

* precision and overhead trade off through the sampling rate — the
  paper cites >15% slowdown when sampling 1/100 LLC misses [75];
* the Intel CPUs of the paper's testbed cannot PEBS-sample CXL-bound
  misses at all, which is why Memtis is *excluded* from the paper's
  hardware evaluation (§4).  The simulator has no such limitation, so
  the policy is available for what-if comparisons.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import MigrationPolicy
from repro.memory.page_table import PageTable
from repro.memory.tiers import TieredMemory

#: Cost to process one sampled record during buffer drain, us.
PROCESS_COST_US = 0.3
#: Fixed interrupt entry/exit cost per buffer drain, us.
INTERRUPT_COST_US = 4.0


class PebsSampler(MigrationPolicy):
    """Address-sampling policy with Memtis-style cooling.

    Args:
        sample_period: take 1 of every N accesses (default 1/100, the
            aggressive setting discussed in §4.2).
        buffer_records: PEBS buffer capacity (drain on full).
        hot_threshold: samples needed to declare a page hot.
        cooling_interval_s: halve all counters this often.
    """

    name = "pebs"

    def __init__(
        self,
        memory: TieredMemory,
        page_table: Optional[PageTable] = None,
        sample_period: int = 100,
        buffer_records: int = 1024,
        hot_threshold: int = 4,
        cooling_interval_s: float = 1.0,
        seed: int = 21,
    ):
        super().__init__(memory, page_table)
        if sample_period <= 0 or buffer_records <= 0 or hot_threshold <= 0:
            raise ValueError("sampling parameters must be positive")
        self.sample_period = int(sample_period)
        self.buffer_records = int(buffer_records)
        self.hot_threshold = int(hot_threshold)
        self.cooling_interval_s = float(cooling_interval_s)
        self._rng = np.random.default_rng(seed)
        self._buffer_fill = 0
        self._next_cooling_s = self.cooling_interval_s
        self._sample_counts = np.zeros(memory.num_logical_pages, dtype=np.int64)
        self.samples_taken = 0
        self.interrupts = 0

    def _detect(self, pages: np.ndarray, now_s: float, epoch_s: float) -> None:
        self.page_table.touch(pages)
        # Bernoulli thinning at 1/sample_period.
        taken = pages[self._rng.random(pages.size) < 1.0 / self.sample_period]
        self.samples_taken += int(taken.size)
        self._buffer_fill += int(taken.size)
        np.add.at(self._sample_counts, taken, 1)
        # Interrupt + drain for each buffer fill crossed.
        drains = self._buffer_fill // self.buffer_records
        if drains:
            self._buffer_fill %= self.buffer_records
            self.interrupts += drains
            self.costs.charge(drains * INTERRUPT_COST_US, "interrupt")
            self.costs.charge(
                drains * self.buffer_records * PROCESS_COST_US, "drain"
            )
            hot = np.nonzero(self._sample_counts >= self.hot_threshold)[0]
            hot = hot[self.memory.node_map[hot] == 1]
            self.record_hot(hot)
        if now_s >= self._next_cooling_s:
            self._next_cooling_s += self.cooling_interval_s
            self._sample_counts //= 2
