"""Bulk dict-merge kernel shared by the streaming summaries.

The software trackers keep ``{key: count}`` dicts because their
hardware counterparts are CAMs; the vectorized ingest still has to update
those dicts from numpy arrays without a per-key Python loop.  This
module provides the one primitive they all need: add an array of
weights into a count dict, preserving the dict's existing insertion
order (a summary iterated afterwards must see its keys in the order
the per-key loop would leave them) and appending unseen keys in array
order.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def merge_counts(
    counts: Dict[int, int], keys: np.ndarray, weights: np.ndarray
) -> Dict[int, int]:
    """Return ``counts`` with ``weights[i]`` added at ``keys[i]``.

    ``keys`` must be unique within the call.  Existing keys keep their
    position in the returned dict; new keys are appended in ``keys``
    order.  Equivalent to ``for k, w in zip(keys, weights):
    counts[k] = counts.get(k, 0) + w`` except for where the *existing*
    hits land (they stay in place rather than being touched last,
    which is what the sequential loop also does — dict assignment to a
    present key never reorders).
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    weights = np.atleast_1d(np.asarray(weights, dtype=np.int64))
    if not counts:
        return dict(zip(keys.tolist(), weights.tolist()))
    ex_keys = np.fromiter(counts.keys(), dtype=np.uint64, count=len(counts))
    ex_vals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    tracked = np.isin(keys, ex_keys)
    hit_keys = keys[tracked]
    if hit_keys.size:
        sorter = np.argsort(ex_keys, kind="stable")
        pos = sorter[np.searchsorted(ex_keys[sorter], hit_keys)]
        ex_vals[pos] += weights[tracked]
    merged = dict(zip(ex_keys.tolist(), ex_vals.tolist()))
    if hit_keys.size != keys.size:
        merged.update(zip(keys[~tracked].tolist(), weights[~tracked].tolist()))
    return merged
