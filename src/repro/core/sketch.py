"""CountMin-Sketch: the access-count estimator inside HPT/HWT.

The paper's top-K tracker (§5.1, Figure 5) couples an SRAM CM-Sketch
unit — H rows × W columns of counters, one hash function per row —
with a small sorted CAM holding the top-K addresses.  On every memory
access the address is hashed by all H functions in parallel, the H
indexed counters are incremented, and the minimum of the incremented
values becomes the estimated access count.

Two update paths are provided:

* :meth:`update_one` — the exact per-access hardware semantics, used
  by the tests and by small-trace experiments;
* :meth:`update_batch` — a vectorised bulk path that adds whole
  chunks of the address stream at once and returns each key's
  post-chunk estimate from one hash per key (identical final counter
  state; estimates differ from the sequential path only transiently).
"""

from __future__ import annotations

import numpy as np

#: Default geometry: paper fixes H=4 for Table 4 and reports sweeping
#: H in [2, 16] has only a secondary effect (§7.1).
DEFAULT_DEPTH = 4

# Large odd 64-bit multipliers for multiply-shift hashing, one per row
# (fixed so runs are reproducible; any odd constants work).
_HASH_MULTIPLIERS = np.array(
    [
        0x9E3779B97F4A7C15,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0xD6E8FEB86659FD93,
        0xA0761D6478BD642F,
        0xE7037ED1A0B428DB,
        0x8EBC6AF09C88C6E3,
        0x589965CC75374CC3,
        0x1D8E4E27C47D124F,
        0xEB44ACCAB455D165,
        0x9C6E6B36A1D3C6A9,
        0x936F52E88D16F5C5,
        0x6D7BC9A3C79E9F2B,
        0xB2E359B57F62C383,
        0xF3C9D2D35C1B9B4D,
        0xC5F5D9A968C9E2A3,
    ],
    dtype=np.uint64,
)


class CountMinSketch:
    """H×W counter array with per-row multiply-shift hashing.

    Args:
        width: W, counters per row; rounded up to a power of two so the
            row index is a mask (what the RTL does).
        depth: H, number of rows/hash functions.
    """

    def __init__(self, width: int, depth: int = DEFAULT_DEPTH) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if not 1 <= depth <= len(_HASH_MULTIPLIERS):
            raise ValueError(f"depth must be in [1, {len(_HASH_MULTIPLIERS)}]")
        self.width = 1 << int(np.ceil(np.log2(width)))
        self.depth = int(depth)
        self._shift = np.uint64(64 - int(np.log2(self.width)))
        self._mults = _HASH_MULTIPLIERS[: self.depth].reshape(-1, 1)
        self.table = np.zeros((self.depth, self.width), dtype=np.uint64)
        self.items_seen = 0

    @property
    def num_counters(self) -> int:
        """N = H × W, the design parameter swept in §7.1."""
        return self.depth * self.width

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        """Row indices for each key; shape (depth, len(keys))."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        with np.errstate(over="ignore"):
            return ((keys[None, :] * self._mults) >> self._shift).astype(np.int64)

    def update_one(self, key: int) -> int:
        """Exact hardware semantics: increment and return the estimate.

        Returns the minimum of the H incremented counters — the value
        handed to the sorted CAM (Figure 5 ③).
        """
        idx = self._hash(np.uint64(key))[:, 0]
        rows = np.arange(self.depth)
        self.table[rows, idx] += np.uint64(1)
        estimate = int(self.table[rows, idx].min())
        self.items_seen += 1
        return estimate

    def update_batch(self, keys: np.ndarray, weights: np.ndarray = None) -> np.ndarray:
        """Add a chunk of keys (optionally weighted) to all rows.

        Returns each key's estimate after the whole chunk is in: the
        minimum over rows of its counters, gathered from the same hash
        indices the update used.  One ``(depth, n)`` index buffer is
        hashed in place and offset into the flattened table, so a chunk
        builds no other ``(depth, n)`` temporary (each fresh one costs
        page faults on every call).
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        if keys.size == 0:
            return np.zeros(0, dtype=np.uint64)
        if weights is None:
            w = np.uint64(1)
            added = keys.size
        else:
            w = np.asarray(weights)
            if w.shape != keys.shape:
                raise ValueError("weights shape must match keys")
            if w.dtype.kind != "u" and w.min() < 0:
                raise ValueError("weights must be non-negative")
            w = w.astype(np.uint64, copy=False)
            added = int(w.sum())
        idx = np.empty((self.depth, keys.size), dtype=np.uint64)
        with np.errstate(over="ignore"):
            np.multiply(keys, self._mults, out=idx)
        idx >>= self._shift
        idx = idx.view(np.int64)
        idx += np.arange(0, self.depth * self.width, self.width, dtype=np.int64)[:, None]
        flat = self.table.reshape(-1)
        for row in idx:
            np.add.at(flat, row, w)
        self.items_seen += added
        est = flat.take(idx[0])
        for row in idx[1:]:
            np.minimum(est, flat.take(row), out=est)
        return est

    def reset(self) -> None:
        """Clear all counters (done after each top-K query epoch)."""
        self.table[:] = 0
        self.items_seen = 0
