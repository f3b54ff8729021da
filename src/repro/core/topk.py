"""Sorted-CAM model: the top-K stage of the M5 trackers.

The sorted CAM (paper §5.1, Figure 5 ④–⑥) holds K (address, count)
pairs ordered by count.  For each observed address with an estimated
count from the CM-Sketch unit:

* **hit** — the matching entry's count is overwritten with the
  estimate;
* **miss** — the estimate is compared against the table minimum and,
  if larger, the minimum entry is replaced.

The software model keeps a dict for O(1) hits and pays an O(K) scan
for the minimum on misses (the hardware does this with a comparator
chain in one cycle).

A tracker hands the CAM one chunk at a time: the chunk's distinct keys
in ascending order with their estimates in any order
(:meth:`SortedCam.offer_batch`).  The CAM offers them hottest first,
but only the K hottest offers can change its membership, so only
those are ever ordered; the rest of the chunk is a bulk pass of hits
and rejections.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def _hottest(estimates: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest estimates, hottest first with ties
    in input order: the first ``k`` of ``argsort(-estimates,
    kind="stable")``, selected in O(n) without ordering the rest."""
    n = int(estimates.size)
    if n > k:
        kth = np.partition(estimates, n - k)[n - k]
        pos = np.flatnonzero(estimates >= kth)
        if pos.size > k:
            # Fewer than k estimates exceed the k-th largest; of those
            # tied with it, the first ones in input order fill the rest.
            tied = np.flatnonzero(estimates[pos] == kth)
            pos = np.delete(pos, tied[k - (pos.size - tied.size):])
    else:
        pos = np.arange(n)
    return pos[np.argsort(-estimates[pos], kind="stable")]


def _locate(keys: np.ndarray, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index of each query in the ascending, distinct ``keys``, and
    whether the query is there at all."""
    pos = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    return pos, keys[pos] == queries


class SortedCam:
    """K-entry content-addressable top-K table."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)
        self._entries: Dict[int, int] = {}
        self.hits = 0
        #: Misses that filled a *free* entry (table not yet full).
        self.insertions = 0
        #: Misses that evicted the minimum entry of a full table; the
        #: replacement rate only counts genuine evictions, so inserts
        #: into free entries must not inflate it.
        self.replacements = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _keys(self) -> np.ndarray:
        return np.fromiter(self._entries, dtype=np.int64, count=len(self._entries))

    def offer(self, address: int, estimate: int) -> bool:
        """Present one (address, estimated count) pair to the CAM.

        Returns True if the address is tracked after the update.
        """
        address = int(address)
        estimate = int(estimate)
        if address in self._entries:
            # Hit: update the count field with the sketch estimate.
            self._entries[address] = estimate
            self.hits += 1
            return True
        if len(self._entries) < self.k:
            self._entries[address] = estimate
            self.insertions += 1
            return True
        # Miss with full table: compare against the minimum entry.
        min_addr = min(self._entries, key=self._entries.__getitem__)
        if estimate > self._entries[min_addr]:
            del self._entries[min_addr]
            self._entries[address] = estimate
            self.replacements += 1
            return True
        self.rejections += 1
        return False

    def offer_batch(self, addresses: np.ndarray, estimates: np.ndarray) -> int:
        """Present a chunk's distinct addresses, hottest first.

        ``addresses`` must ascend strictly (asserted) — a tracker's
        unique keys — and ``estimates`` pairs with them in any order.
        Exactly equivalent to calling :meth:`offer` once per pair in
        the order ``argsort(-estimates, kind="stable")`` — same
        entries, same counts, same dict insertion order (which future
        eviction tie-breaks depend on), same statistics — but only the
        K hottest offers are ordered and replayed.

        **The K-offer head bound.**  Until the first offer whose
        estimate does not beat the table minimum (the *break*), every
        offer uses up a free entry (insertion) or an entry held before
        the chunk (a hit on it, or its eviction).  No later offer
        carries a larger estimate than an entry the chunk wrote, so
        none evicts it, and keys are distinct, so none hits it either.
        So there are at most K offers before the break, and after K of
        them the table holds only entries of this chunk and every
        later offer is rejected.

        The hottest-first sequence splits into three regimes:

        1. While the table has free entries no offer can evict, so the
           prefix up to the fill point is a bulk dict update — hits
           overwrite, misses insert in offer order.
        2. With a full table, offers contend while their estimate
           exceeds the table minimum: evictions and hits interleave
           (an early eviction can remove an entry a later offer would
           have hit), so this part of the head is replayed one offer
           at a time.
        3. After the break, or after the K hottest offers, no offer
           can evict or insert (estimates only fall, and a hit can only
           lower the minimum further), so the rest of the chunk is
           bulk hit-overwrites on the entries still tracked, found by
           one search of the ≤K table keys among the chunk's, and
           counted rejections.

        Returns the number of offers tracked after the update.
        """
        addresses = np.atleast_1d(np.asarray(addresses, dtype=np.int64))
        estimates = np.atleast_1d(np.asarray(estimates, dtype=np.int64))
        n = int(addresses.size)
        if n == 0:
            return 0
        assert estimates.size == n
        assert np.all(addresses[:-1] < addresses[1:]), "addresses must ascend"
        head = _hottest(estimates, self.k)
        head_addrs, head_ests = addresses[head], estimates[head]
        m = int(head.size)
        tracked = 0

        # --- regime 1: bulk-fill while the table has free entries.
        start = 0
        free = self.k - len(self._entries)
        if free > 0:
            if self._entries:
                _, is_hit = _locate(np.sort(self._keys()), head_addrs)
            else:
                is_hit = np.zeros(m, dtype=bool)
            miss_pos = np.flatnonzero(~is_hit)
            # The table fills at the `free`-th miss; everything before
            # that point is a plain hit-or-insert.
            start = m if miss_pos.size < free else int(miss_pos[free - 1]) + 1
            self._entries.update(
                zip(head_addrs[:start].tolist(), head_ests[:start].tolist())
            )
            n_miss = int((~is_hit[:start]).sum())
            self.insertions += n_miss
            self.hits += start - n_miss
            tracked += start

        # --- regime 2: contended head, replayed sequentially.
        i = start
        while i < m:
            estimate = int(head_ests[i])
            min_addr = min(self._entries, key=self._entries.__getitem__)
            if estimate <= self._entries[min_addr]:
                break
            address = int(head_addrs[i])
            if address in self._entries:
                self._entries[address] = estimate
                self.hits += 1
            else:
                del self._entries[min_addr]
                self._entries[address] = estimate
                self.replacements += 1
            tracked += 1
            i += 1

        # --- regime 3: bulk tail of hits and rejections.
        if i < n:
            keys = self._keys()
            pos, found = _locate(addresses, keys)
            replayed = np.zeros(n, dtype=bool)
            replayed[head[:i]] = True
            is_hit = found & ~replayed[pos]
            self._entries.update(
                zip(keys[is_hit].tolist(), estimates[pos[is_hit]].tolist())
            )
            n_hits = int(is_hit.sum())
            self.hits += n_hits
            self.rejections += (n - i) - n_hits
            tracked += n_hits
        return tracked

    @property
    def offers(self) -> int:
        """Total :meth:`offer` calls, across every outcome."""
        return self.hits + self.insertions + self.replacements + self.rejections

    def entries(self) -> List[Tuple[int, int]]:
        """Tracked (address, count) pairs, hottest first.

        Ties are broken by address for deterministic output; this is
        the answer to an M5-manager query.
        """
        return sorted(self._entries.items(), key=lambda kv: (-kv[1], kv[0]))

    def reset(self) -> None:
        """Clear the table (done together with the sketch after a query)."""
        self._entries.clear()
