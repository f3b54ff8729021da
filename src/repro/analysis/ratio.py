"""Tracker-sweep ratio (the §7.1 variant of the §4.1 metric).

The §4.1 access-count ratio scores a hot-page list against PAC's
ground truth: the summed true counts of the K identified pages over
the summed counts of the true top-K.  A whole run's ratio is
:func:`repro.sim.access_count_ratio`; this module scores a bare
tracker's top-K keys against exact per-key counts, for the sweeps
that run trackers without a simulation.
"""

from __future__ import annotations

from typing import Dict, Iterable


def tracker_ratio(
    true_counts: Dict[int, int], tracked_keys: Iterable[int], k: int
) -> float:
    """Score a tracker's top-K keys against exact per-key counts (PAC/
    WAC ground truth given as a dict)."""
    tracked = list(tracked_keys)[: int(k)]
    if not tracked:
        return 0.0
    top = sorted(true_counts.values(), reverse=True)[: len(tracked)]
    denom = sum(top)
    if denom <= 0:
        return 0.0
    num = sum(true_counts.get(int(key), 0) for key in tracked)
    return num / denom
