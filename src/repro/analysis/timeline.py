"""Epoch-resolution timeline analysis.

The engine's telemetry bus records one ``"epoch"`` event per epoch
(tier occupancy, traffic split, promotions/demotions, overhead,
nominations and migration time) plus ``"ratio"`` checkpoint events
and, in async mode, ``"migration.*"`` queue outcomes; these land in
``RunResult.timeline``.  This module pivots that event list into
per-epoch columns — without re-running the simulation.

Run *totals* are not re-derived here: the ring keeps only the most
recent events, so a long run's timeline is its tail.  The exact
totals are ``RunResult``'s fields and ``extra`` keys.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Event = Dict[str, Union[str, int, float]]


#: One pivot column: ``(column_name, stage, payload_field)`` with an
#: optional fourth element choosing the aggregation — ``"sum"`` (the
#: default) or ``"last"`` (keep the epoch's final value; right for
#: level-style fields like queue depth).
ColumnSpec = Sequence[str]


def pivot(
    timeline: Sequence[Event], columns: Sequence[ColumnSpec]
) -> Dict[str, List[float]]:
    """Pivot per-event payloads into per-epoch columns.

    Groups every event whose ``stage`` appears in ``columns`` by
    epoch, aggregates each column's field across the epoch's matching
    events, and returns ``{"epoch": [...], col: [...]}`` — equal-length
    columns, one row per epoch with at least one matching event,
    epochs sorted ascending, absent fields reading 0.0.  An empty
    match returns ``{}``.

    This is the aggregation loop behind :func:`migration_outcomes`;
    new event families get a table by declaring a column spec instead
    of re-writing the group-by.
    """
    specs = [
        (c[0], c[1], c[2], c[3] if len(c) > 3 else "sum") for c in columns
    ]
    for name, _, _, agg in specs:
        if agg not in ("sum", "last"):
            raise ValueError(f"column {name!r}: unknown aggregation {agg!r}")
    stages = {stage for _, stage, _, _ in specs}
    rows: Dict[int, Dict[str, float]] = {}
    for e in timeline:
        stage = e.get("stage")
        if stage not in stages:
            continue
        epoch = int(e["epoch"])
        row = rows.setdefault(epoch, {name: 0.0 for name, _, _, _ in specs})
        for name, at_stage, fieldname, agg in specs:
            if stage == at_stage and fieldname in e:
                if agg == "last":
                    row[name] = float(e[fieldname])
                else:
                    row[name] += float(e[fieldname])
    if not rows:
        return {}
    ordered = sorted(rows)
    out: Dict[str, List[float]] = {"epoch": [float(ep) for ep in ordered]}
    for name, _, _, _ in specs:
        out[name] = [rows[ep][name] for ep in ordered]
    return out


#: Per-epoch columns of :func:`migration_outcomes` — a :func:`pivot`
#: column spec over the async subsystem's ``migration.*`` events.
#: ``pending`` is a level (queue depth after the epoch's enqueues), so
#: it keeps the epoch's last value instead of summing.
_MIGRATION_COLUMNS = (
    ("enqueued", "migration.enqueue", "enqueued"),
    ("dropped_full", "migration.enqueue", "dropped_full"),
    ("committed", "migration.commit", "committed"),
    ("promoted", "migration.commit", "promoted"),
    ("demoted", "migration.commit", "demoted"),
    ("aborted", "migration.abort", "aborted"),
    ("aborted_dirty", "migration.abort", "dirty"),
    ("aborted_injected", "migration.abort", "injected"),
    ("aborted_enomem", "migration.abort", "enomem"),
    ("retried", "migration.retry", "retried"),
    ("dropped_retries", "migration.retry", "dropped"),
    ("pending", "migration.enqueue", "pending", "last"),
)


def migration_outcomes(timeline: Sequence[Event]) -> Dict[str, List[float]]:
    """Pivot the async subsystem's ``migration.*`` events per epoch.

    Returns ``{"epoch": [...], "committed": [...], "aborted": [...],
    ...}`` columns of equal length — one row per epoch that published
    at least one migration event — so commits-vs-aborts trajectories
    plot directly.  Empty dict when the run produced no migration
    events (instant mode).
    """
    return pivot(timeline, _MIGRATION_COLUMNS)
