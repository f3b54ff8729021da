"""Sticky Sampling: the sampling-based streaming algorithm family.

The paper's taxonomy of streaming top-K algorithms (§5.1) names three
representatives: Space-Saving (counter-based), CM-Sketch
(sketch-based), and Sticky Sampling (sampling-based).  M5 adopts
CM-Sketch; Sticky Sampling is implemented here so the design-space
exploration can cover all three categories.

Following Manku & Motwani (VLDB '02): an item already tracked is
always counted; a new item is admitted with probability ``1/r``.  The
sampling rate ``r`` doubles at geometrically growing epoch boundaries
(t = 2t), and at each boundary every tracked count is diminished by a
coin-flip process so the summary behaves as if it had been sampled at
the new rate all along.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.bulk import merge_counts


class StickySampling:
    """Sticky-Sampling stream summary.

    Args:
        support: s, the frequency threshold of interest.
        error: ε, permitted estimation error (ε < s).
        failure_prob: δ, probability of exceeding the error bound.
        seed: RNG seed.
    """

    def __init__(
        self,
        support: float = 0.01,
        error: float = 0.001,
        failure_prob: float = 0.01,
        seed: int = 7,
    ) -> None:
        if not 0 < error < support <= 1:
            raise ValueError("need 0 < error < support <= 1")
        if not 0 < failure_prob < 1:
            raise ValueError("failure_prob must be in (0, 1)")
        self.support = float(support)
        self.error = float(error)
        self.failure_prob = float(failure_prob)
        self._rng = np.random.default_rng(seed)
        # 2t elements with rate 1, then 2t with rate 2, 4t rate 4, ...
        self._t = int(np.ceil((1.0 / error) * np.log(1.0 / (support * failure_prob))))
        self._rate = 1
        self._epoch_end = 2 * self._t
        self._counts: Dict[int, int] = {}
        self.items_seen = 0

    @property
    def rate(self) -> int:
        return self._rate

    def __len__(self) -> int:
        return len(self._counts)

    def _advance_epoch(self) -> None:
        self._rate *= 2
        self._epoch_end += self._rate * self._t
        # Diminish each entry: repeatedly toss an unbiased coin until
        # heads, decrementing per tails; drop entries reaching zero.
        survivors: Dict[int, int] = {}
        for addr, count in self._counts.items():
            while count > 0 and self._rng.random() < 0.5:
                count -= 1
            if count > 0:
                survivors[addr] = count
        self._counts = survivors

    def update_one(self, address: int) -> None:
        address = int(address)
        self.items_seen += 1
        if self.items_seen > self._epoch_end:
            self._advance_epoch()
        if address in self._counts:
            self._counts[address] += 1
        elif self._rng.random() < 1.0 / self._rate:
            self._counts[address] = 1

    def update_batch(self, keys: np.ndarray) -> None:
        """Bulk update, exactly equivalent to per-key :meth:`update_one`.

        Batching a sampling algorithm without changing its draws hinges
        on two facts: a *tracked* hit consumes no randomness, and epoch
        boundaries fall at positions fixed by ``items_seen`` alone.  So
        within one epoch window, runs of already-tracked keys collapse
        to a counted array merge, while every untracked-or-boundary key
        replays through :meth:`update_one` so the RNG is consumed at
        its exact sequential position.  Membership only grows inside a
        window (diminishing happens at boundaries), so a stale
        "untracked" flag merely routes a hit through ``update_one``,
        which handles it identically — again without touching the RNG.
        All-unique streams degenerate to the per-key path; the win
        comes from the skewed streams trackers actually see.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        i, n = 0, int(keys.size)
        while i < n:
            room = self._epoch_end - self.items_seen
            if room <= 0:
                # Next item triggers the epoch advance (and its RNG
                # draws); afterwards membership must be re-derived.
                self.update_one(int(keys[i]))
                i += 1
                continue
            window = keys[i:i + room]
            if self._counts:
                tracked_keys = np.fromiter(
                    self._counts.keys(), dtype=np.uint64, count=len(self._counts)
                )
                is_tracked = np.isin(window, tracked_keys)
            else:
                is_tracked = np.zeros(window.size, dtype=bool)
            # Segment the window into alternating tracked/untracked
            # runs once, instead of rescanning after every key.
            flips = np.nonzero(np.diff(is_tracked))[0] + 1
            bounds = [0, *flips.tolist(), int(window.size)]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if is_tracked[lo]:
                    self._bulk_count(window[lo:hi])
                else:
                    for j in range(lo, hi):
                        self.update_one(int(window[j]))
            i += int(window.size)

    def _bulk_count(self, chunk: np.ndarray) -> None:
        """Count a run of keys that were all tracked at window start.

        Dict insertion order is preserved (the epoch-boundary diminish
        consumes RNG draws in dict order, so order is semantic here):
        counts are merged positionally into the existing key sequence.
        """
        uniq, counts = np.unique(chunk, return_counts=True)
        self._counts = merge_counts(self._counts, uniq, counts)
        self.items_seen += int(chunk.size)

    def estimate_one(self, address: int) -> int:
        return self._counts.get(int(address), 0)

    def top_k(self, k: int) -> List[Tuple[int, int]]:
        items = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return items[: int(k)]

    def addresses(self) -> List[int]:
        return [addr for addr, _ in sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )]

    def frequent_items(self) -> List[Tuple[int, int]]:
        """Items with estimated frequency ≥ (s − ε)·n (the MM02 answer)."""
        threshold = (self.support - self.error) * self.items_seen
        return [
            (addr, count)
            for addr, count in self.top_k(len(self._counts))
            if count >= threshold
        ]

    def reset(self) -> None:
        self._counts.clear()
        self._rate = 1
        self._epoch_end = 2 * self._t
        self.items_seen = 0
