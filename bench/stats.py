"""The benchmark's arithmetic: calibration, percentiles and spreads.

Standard library only, so the parent process that schedules the runs
never imports numpy or ``repro``.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between ranks
    (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def highest_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ``SAMPLES_BEYOND`` of ``n``
    samples beyond it (None when not even the median has)."""
    best = None
    for q in PERCENTILES:
        if n * (100.0 - q) / 100.0 >= SAMPLES_BEYOND - 1e-9:
            best = q
    return best


def calibrate_steps(steps: Sequence[float], probes: Sequence[float],
                    ref_s: float) -> List[float]:
    """Host step times in reference-host seconds.

    ``probes[i]`` ran right before step ``i`` and ``probes[i + 1]``
    right after it; the step is scaled by ``ref_s`` over their mean.
    """
    if len(probes) != len(steps) + 1:
        raise ValueError(
            f"need one probe before each step and one after the last "
            f"({len(steps)} steps, {len(probes)} probes)"
        )
    if min(probes) <= 0 or ref_s <= 0:
        raise ValueError("probe times must be positive")
    return [step * ref_s / p for step, p in zip(steps, bracket_means(probes))]


def bracket_means(probes: Sequence[float]) -> List[float]:
    """Mean probe time around each step (``len(probes) - 1`` values)."""
    return [(probes[i] + probes[i + 1]) / 2.0 for i in range(len(probes) - 1)]


def step_profile(runs: Sequence[Sequence[float]],
                 clean: Sequence[Sequence[bool]]) -> List[float]:
    """Per-step median across runs of the same steps.

    Every run of one seed executes the same steps, so step ``i`` of
    each run did the same work.  The median for step ``i`` is taken
    over the runs whose step ``i`` is marked clean, or over all runs
    when none is.
    """
    n = min(len(r) for r in runs)
    profile = []
    for i in range(n):
        kept = [r[i] for r, ok in zip(runs, clean) if ok[i]]
        profile.append(statistics.median(kept or [r[i] for r in runs]))
    return profile


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them (the rule ``--compare`` uses)."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")
