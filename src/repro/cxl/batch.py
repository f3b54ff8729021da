"""Pre-digested access batches for the controller snoop fan-out.

Every snoop attached to the CXL controller needs the same structure per
epoch chunk: the unique page or word keys and their multiplicities.  An
:class:`AccessBatch` wraps one region-filtered chunk of physical
addresses and builds that digest with one sort of the word keys; any
coarser granularity (the page digest) is reduced from the sorted word
runs without sorting again.  The PAC, WAC and each attached tracker
share the memoized digests.  First positions, which only the
order-sensitive trackers replay, are built on their first request.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.memory.address import WORD_SHIFT

_Digest = Tuple[np.ndarray, np.ndarray]


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted keys."""
    head = np.empty(sorted_keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return np.flatnonzero(head)


class AccessBatch:
    """One chunk of physical byte addresses, digest-on-demand.

    The digest at ``shift`` is ``(unique keys ascending, multiplicities)``
    of ``PA >> shift`` and :meth:`_first` each key's first index: the
    arrays and dtypes of :func:`repro.verify.reference.batch_digest`.
    Only ``shift >= WORD_SHIFT`` is supported: the word digest is the
    one sorted pass, and coarser ones reduce it.

    Args:
        addresses: physical byte addresses (uint64), already filtered
            to the controller's region.
        region: the :class:`~repro.memory.address.Region` the
            addresses were filtered against, if any — consumers whose
            own window differs (e.g. the WAC's monitor window) must
            re-filter.
    """

    def __init__(self, addresses: np.ndarray, region: Any = None) -> None:
        self.addresses = np.atleast_1d(np.asarray(addresses, dtype=np.uint64))
        self.region = region
        self._digests: Dict[int, _Digest] = {}
        self._firsts: Dict[int, np.ndarray] = {}
        self._ordered: Dict[int, _Digest] = {}

    @property
    def size(self) -> int:
        return int(self.addresses.size)

    def _word_runs(self, words: np.ndarray) -> np.ndarray:
        """Run starts of sorted word keys; memoizes the word digest from them."""
        starts = _run_starts(words)
        if WORD_SHIFT not in self._digests:
            self._digests[WORD_SHIFT] = (words[starts], np.diff(starts, append=words.size))
        return starts

    def _digest(self, shift: int) -> _Digest:
        if shift in self._digests:
            return self._digests[shift]
        if shift < WORD_SHIFT:
            raise ValueError(f"digest shift {shift} is finer than a word ({WORD_SHIFT})")
        if shift == WORD_SHIFT:
            self._word_runs(np.sort(self.addresses >> np.uint64(WORD_SHIFT)))
        else:
            # Sorted word keys stay sorted when shifted, so each coarser
            # key is a run of whole word runs: reduce, do not re-sort.
            words, word_counts = self._digest(WORD_SHIFT)
            keys = words >> np.uint64(shift - WORD_SHIFT)
            starts = _run_starts(keys)
            self._digests[shift] = (keys[starts], np.add.reduceat(word_counts, starts))
        return self._digests[shift]

    def _first(self, shift: int) -> np.ndarray:
        """Index of each :meth:`_digest` key's first appearance."""
        if shift in self._firsts:
            return self._firsts[shift]
        if shift < WORD_SHIFT:
            raise ValueError(f"digest shift {shift} is finer than a word ({WORD_SHIFT})")
        if shift == WORD_SHIFT:
            words = self.addresses >> np.uint64(WORD_SHIFT)
            order = np.argsort(words)
            # A run's minimum index is exact whatever order the sort leaves equal keys in.
            first = np.minimum.reduceat(order, self._word_runs(words[order]))
        else:
            word_first = self._first(WORD_SHIFT)
            keys = self._digest(WORD_SHIFT)[0] >> np.uint64(shift - WORD_SHIFT)
            first = np.minimum.reduceat(word_first, _run_starts(keys))
        self._firsts[shift] = first
        return first

    def unique_keys(self, shift: int) -> _Digest:
        """(unique keys ascending, multiplicities) at ``PA >> shift``."""
        return self._digest(shift)

    def unique_keys_ordered(self, shift: int) -> _Digest:
        """Like :meth:`unique_keys`, but in first-appearance order —
        what order-sensitive summaries (weighted Space-Saving) replay."""
        if shift not in self._ordered:
            first = self._first(shift)  # before the digest: one argsort builds both
            uniques, counts = self._digest(shift)
            # First positions are distinct, so any sort gives one order.
            order = np.argsort(first)
            self._ordered[shift] = (uniques[order], counts[order])
        return self._ordered[shift]
