"""Space-Saving and Misra–Gries trackers: the CAM-based comparison
points for the CM-Sketch top-K tracker.

The paper evaluates a Space-Saving variant in the style of the Mithril
Row-Hammer defence (§5.1): an N-entry sorted CAM stores (address,
count) pairs.  Hits increment the matching counter; a miss with a full
table replaces the minimum entry, inheriting ``min + 1`` (Space-Saving
proper) so the estimate is a guaranteed overestimate.

Because every lookup must search all N CAM entries in parallel, N is
capped by timing: the paper's synthesis finds at most 50 entries on
the Agilex-7 FPGA and ~2K in 7nm ASIC at 400 MHz (§7.1, Table 4) —
that constraint lives in :mod:`repro.core.hwcost`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import numpy as np

from repro.core.bulk import merge_counts


class SpaceSaving:
    """Classic Space-Saving stream summary with N counters.

    Args:
        capacity: N, the number of CAM entries.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._counts: Dict[int, int] = {}
        # Lazy min-heap of (count, address); stale entries are skipped
        # on pop and compacted away once the heap exceeds the bound.
        self._heap: List[Tuple[int, int]] = []
        # Hits push a fresh (count, address) without removing the stale
        # entry, so the heap must be compacted periodically or it grows
        # with the stream instead of the table.  2x capacity keeps the
        # rebuild amortised O(1) per update.
        self._heap_bound = 2 * self.capacity
        self.items_seen = 0

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, address: int) -> bool:
        return int(address) in self._counts

    def _push(self, address: int, count: int) -> None:
        """Push an updated entry, compacting stale heap items as needed."""
        heapq.heappush(self._heap, (count, address))
        if len(self._heap) > self._heap_bound:
            self._heap = [(c, a) for a, c in self._counts.items()]
            heapq.heapify(self._heap)

    def _pop_min(self) -> Tuple[int, int]:
        """Pop the current true-minimum entry, skipping stale heap items."""
        while self._heap:
            count, addr = heapq.heappop(self._heap)
            if self._counts.get(addr) == count:
                del self._counts[addr]
                return count, addr
        raise RuntimeError("space-saving heap out of sync")

    def update_one(self, address: int, weight: int = 1) -> int:
        """Process one access (or ``weight`` repeats); returns estimate."""
        address = int(address)
        self.items_seen += int(weight)
        if address in self._counts:
            new = self._counts[address] + weight
        elif len(self._counts) < self.capacity:
            new = int(weight)
        else:
            # Replace the minimum entry, inheriting its count (the
            # Space-Saving overestimate guarantee).
            min_count, _ = self._pop_min()
            new = min_count + int(weight)
        self._counts[address] = new
        self._push(address, new)
        return new

    def update_batch(self, keys: np.ndarray, weights: np.ndarray = None) -> None:
        """Weighted bulk update (run-length compressed chunk).

        Equivalent to replaying each unique key ``weight`` times
        consecutively, which is the standard weighted Space-Saving
        extension.  Exactly matches one :meth:`update_one` per key
        (same counts, same ``items_seen``): offers before the first
        full-table miss are hits or free-slot fills, neither of which
        evicts, so that prefix is a bulk array merge; the contended
        remainder replays through :meth:`update_one`.  The min-heap is
        a lazy cache over ``_counts`` and is rebuilt once after the
        bulk phase.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        n = int(keys.size)
        if n == 0:
            return
        if weights is None:
            weights = np.ones(n, dtype=np.int64)
        else:
            weights = np.atleast_1d(np.asarray(weights, dtype=np.int64))
        if np.unique(keys).size != n:
            # Duplicate keys void the static hit/miss split below.
            self._update_sequential(keys, weights)
            return

        if self._counts:
            existing = np.fromiter(
                self._counts.keys(), dtype=np.uint64, count=len(self._counts)
            )
            tracked = np.isin(keys, existing)
        else:
            existing = np.empty(0, dtype=np.uint64)
            tracked = np.zeros(n, dtype=bool)
        miss_pos = np.nonzero(~tracked)[0]
        room = self.capacity - len(self._counts)
        # Everything before the first miss that finds a full table is
        # eviction-free and merges in one pass.
        f = n if miss_pos.size <= room else int(miss_pos[room])
        if f > 0:
            self._counts = merge_counts(self._counts, keys[:f], weights[:f])
            self.items_seen += int(weights[:f].sum())
            self._heap = [(c, a) for a, c in self._counts.items()]
            heapq.heapify(self._heap)
        for i in range(f, n):
            self.update_one(int(keys[i]), int(weights[i]))

    def _update_sequential(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """One :meth:`update_one` per key, in order: the only path for
        chunks with duplicate keys."""
        # lint: disable=PERF001 -- a duplicate key's second offer depends
        # on its first; trackers feed unique keys, so this path stays cold
        for key, w in zip(keys.tolist(), weights.tolist()):
            self.update_one(int(key), int(w))

    def estimate_one(self, address: int) -> int:
        return self._counts.get(int(address), 0)

    def top_k(self, k: int) -> List[Tuple[int, int]]:
        """Top-``k`` (address, count) pairs, hottest first."""
        items = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return items[: int(k)]

    def addresses(self) -> List[int]:
        return [addr for addr, _ in sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )]

    def reset(self) -> None:
        self._counts.clear()
        self._heap.clear()
        self.items_seen = 0


class MisraGries(SpaceSaving):
    """Misra–Gries (frequent) summary: the decrement-on-miss variant.

    Mithril-family Row-Hammer trackers build on this scheme: a miss
    with a full table decrements *every* counter instead of replacing
    the minimum, evicting entries that reach zero.  Underestimates
    instead of overestimates; included as a design-space point.
    """

    def update_one(self, address: int, weight: int = 1) -> int:
        address = int(address)
        self.items_seen += int(weight)
        remaining = int(weight)
        while remaining > 0:
            if address in self._counts:
                self._counts[address] += remaining
                self._push(address, self._counts[address])
                return self._counts[address]
            if len(self._counts) < self.capacity:
                self._counts[address] = remaining
                self._push(address, remaining)
                return remaining
            # Decrement all counters by the smallest count so at least
            # one entry frees up; charge that against our weight.
            min_count = min(self._counts.values())
            step = min(min_count, remaining)
            self._counts = {
                a: c - step for a, c in self._counts.items() if c - step > 0
            }
            self._heap = [(c, a) for a, c in self._counts.items()]
            heapq.heapify(self._heap)
            remaining -= step
        return self._counts.get(address, 0)
