"""Epoch-resolution timeline analysis.

The engine's telemetry bus records one ``"epoch"`` event per epoch
(tier occupancy, traffic split, promotions/demotions, overhead,
nominations and migration time, and in async mode the transactional
queue's ``mig_*`` outcomes and ``migration_pending`` depth, and at the
measurement points of an identification-only run the access-count
``ratio``); these land in ``RunResult.timeline``.
This module selects per-epoch columns from that event list — without
re-running the simulation.

Run *totals* are not re-derived here: the ring keeps only the most
recent events, so a long run's timeline is its tail.  The exact
totals are ``RunResult``'s fields and ``extra`` keys.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Event = Dict[str, Union[str, int, float]]

#: Columns of :func:`migration_outcomes`: fields of the async ``epoch``
#: record, named as their ``RunResult.extra`` run totals.
_MIGRATION_COLUMNS = (
    "epoch",
    "promoted",
    "demoted",
    "mig_enqueued",
    "mig_dropped_queue_full",
    "mig_aborted_dirty",
    "mig_aborted_injected",
    "mig_aborted_enomem",
    "mig_retries",
    "mig_dropped_retries",
    "migration_pending",
)


def migration_outcomes(timeline: Sequence[Event]) -> Dict[str, List[float]]:
    """The async queue's per-epoch outcomes as equal-length columns.

    Returns ``{"epoch": [...], "promoted": [...], "mig_aborted_dirty":
    [...], ...}`` with one row per async ``epoch`` record, zero rows
    included, so commits-vs-aborts trajectories plot directly.
    Commits are ``promoted + demoted``.  Empty dict in instant mode,
    whose records carry no queue fields.
    """
    rows = [
        e for e in timeline
        if e.get("stage") == "epoch" and "migration_pending" in e
    ]
    if not rows:
        return {}
    return {c: [float(e[c]) for e in rows] for c in _MIGRATION_COLUMNS}
