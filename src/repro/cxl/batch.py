"""Pre-digested access batches for the controller snoop fan-out.

Every snoop attached to the CXL controller needs the same structure per
epoch chunk: the unique page or word keys, their multiplicities and
their first positions.  An :class:`AccessBatch` wraps one
region-filtered chunk of physical addresses and builds that digest with
one sort of the word keys; any coarser granularity (the page digest) is
reduced from the sorted word runs without sorting again.  The PAC, WAC
and each attached tracker share the memoized digests instead of
running their own pass over the data.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.memory.address import WORD_SHIFT

_Digest = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted keys."""
    head = np.empty(sorted_keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return np.flatnonzero(head)


class AccessBatch:
    """One chunk of physical byte addresses, digest-on-demand.

    The digest at ``shift`` is ``(unique keys ascending, first index,
    multiplicities)`` of ``PA >> shift``: the same arrays and dtypes as
    its reference twin, :func:`repro.verify.reference.batch_digest`.
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
        self._ordered: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def size(self) -> int:
        return int(self.addresses.size)

    def _digest(self, shift: int) -> _Digest:
        digest = self._digests.get(shift)
        if digest is not None:
            return digest
        if shift < WORD_SHIFT:
            raise ValueError(
                f"digest shift {shift} is finer than a word ({WORD_SHIFT})")
        if shift == WORD_SHIFT:
            keys = self.addresses >> np.uint64(WORD_SHIFT)
            order = np.argsort(keys)
            keys = keys[order]
            starts = _run_starts(keys)
            counts = np.diff(starts, append=keys.size)
            # A run's minimum index is exact whatever order the sort leaves equal keys in.
            first = np.minimum.reduceat(order, starts)
        else:
            # Sorted word keys stay sorted when shifted, so each coarser
            # key is a run of whole word runs: reduce, do not re-sort.
            words, word_first, word_counts = self._digest(WORD_SHIFT)
            keys = words >> np.uint64(shift - WORD_SHIFT)
            starts = _run_starts(keys)
            counts = np.add.reduceat(word_counts, starts)
            first = np.minimum.reduceat(word_first, starts)
        digest = (keys[starts], first, counts)
        self._digests[shift] = digest
        return digest

    def unique_keys(self, shift: int) -> Tuple[np.ndarray, np.ndarray]:
        """(unique keys ascending, multiplicities) at ``PA >> shift``."""
        uniques, _, counts = self._digest(shift)
        return uniques, counts

    def unique_keys_ordered(self, shift: int) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`unique_keys`, but in first-appearance order —
        what order-sensitive summaries (weighted Space-Saving) replay."""
        ordered = self._ordered.get(shift)
        if ordered is None:
            uniques, first_pos, counts = self._digest(shift)
            # First positions are distinct, so any sort gives one order.
            order = np.argsort(first_pos)
            ordered = (uniques[order], counts[order])
            self._ordered[shift] = ordered
        return ordered
