"""Exporters: Prometheus text exposition, Chrome trace_event JSON,
and snapshot flatten/diff helpers for the ``repro metrics`` command.

Three output formats leave the observability layer:

* :func:`to_prometheus` — the text exposition format (``# HELP`` /
  ``# TYPE`` / one line per series; histograms as cumulative
  ``_bucket{le=...}`` plus ``_sum`` / ``_count``), scrapeable or
  diffable with standard tooling;
* registry ``snapshot()`` dicts — JSON-serialisable, attached to
  ``RunResult.metrics`` and written by ``repro run --metrics *.json``;
* :func:`chrome_trace` — a ``trace_event``-format object loadable in
  chrome://tracing or Perfetto, built from the tracer's spans.

:func:`flatten_snapshot`, :func:`parse_prometheus`, and
:func:`diff_snapshots` support the CLI's pretty-print/diff path over
either on-disk format.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracing import SpanRecord

# ----------------------------------------------------------------------
# Prometheus text exposition


def _fmt_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    f = float(v)
    return repr(int(f)) if f == int(f) else repr(f)


def _fmt_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in merged.items())
    return "{" + inner + "}"


def series_key(
    name: str, labels: Dict[str, str], extra: Optional[Dict[str, str]] = None
) -> str:
    """The flat-map key for one series: ``name{label="value",...}``.

    Exactly the exposition-format series identity, so keys built here
    line up with :func:`parse_prometheus` output and the recorder's
    column names.
    """
    return f"{name}{_fmt_labels(labels, extra)}"


def to_prometheus(snapshot: Dict) -> str:
    """Render a registry snapshot in the text exposition format."""
    lines: List[str] = []
    for metric in snapshot.get("metrics", []):
        name, kind = metric["name"], metric["kind"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for series in metric["series"]:
            labels = series.get("labels", {})
            if kind == "histogram":
                for le, n in series["buckets"]:
                    le_s = "+Inf" if le == "+Inf" else _fmt_value(float(le))
                    lines.append(
                        f"{name}_bucket{_fmt_labels(labels, {'le': le_s})} {n}"
                    )
                lines.append(
                    f"{name}_sum{_fmt_labels(labels)} {_fmt_value(series['sum'])}"
                )
                lines.append(f"{name}_count{_fmt_labels(labels)} {series['count']}")
            else:
                lines.append(
                    f"{name}{_fmt_labels(labels)} {_fmt_value(series['value'])}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse our own exposition output back into a flat series map.

    Handles the subset :func:`to_prometheus` emits — plain-value lines
    with optional ``{label="value",...}`` — which is all the diff path
    needs; it is not a general Prometheus parser.
    """
    flat: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            flat[key] = float(value)
        except ValueError:
            continue
    return flat


# ----------------------------------------------------------------------
# snapshot flatten / diff (the `repro metrics` command)


def flatten_snapshot(snapshot: Dict, buckets: bool = False) -> Dict[str, float]:
    """Flatten a registry snapshot to ``{series_key: value}``.

    Counter/gauge series flatten to one entry; histograms flatten to
    their ``_sum`` and ``_count`` (buckets are elided by default — the
    diff view cares about totals, the full shape lives in the snapshot
    file).  ``buckets=True`` also emits one ``_bucket{...,le=...}``
    entry per cumulative bucket, keyed exactly as
    :func:`to_prometheus` renders them, so a flattened snapshot and a
    parsed exposition scrape compare key-for-key.
    """
    flat: Dict[str, float] = {}
    for metric in snapshot.get("metrics", []):
        name, kind = metric["name"], metric["kind"]
        for series in metric["series"]:
            labels = series.get("labels", {})
            if kind == "histogram":
                if buckets:
                    for le, n in series["buckets"]:
                        le_s = "+Inf" if le == "+Inf" else _fmt_value(float(le))
                        key = series_key(f"{name}_bucket", labels, {"le": le_s})
                        flat[key] = float(n)
                flat[series_key(f"{name}_sum", labels)] = float(series["sum"])
                flat[series_key(f"{name}_count", labels)] = float(
                    series["count"]
                )
            else:
                flat[series_key(name, labels)] = float(series["value"])
    return flat


def load_metrics_file(path: str) -> Dict[str, float]:
    """Load a ``.json`` snapshot or ``.prom`` exposition into a flat map."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return flatten_snapshot(json.loads(stripped))
    return parse_prometheus(text)


def diff_snapshots(
    a: Dict[str, float], b: Dict[str, float]
) -> List[Dict[str, object]]:
    """Row-per-series diff of two flat maps (union of keys).

    Rows: ``{"series", "a", "b", "delta"}``, sorted by series key;
    series missing on one side read as 0.0.
    """
    rows: List[Dict[str, object]] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, 0.0), b.get(key, 0.0)
        rows.append({"series": key, "a": va, "b": vb, "delta": vb - va})
    return rows


# ----------------------------------------------------------------------
# Chrome trace_event


def chrome_trace(
    spans: Sequence[SpanRecord], pid: int = 1
) -> Dict[str, object]:
    """Spans as a Chrome ``trace_event`` JSON object.

    Complete (``"ph": "X"``) events with microsecond timestamps;
    loadable in chrome://tracing and Perfetto.  Each event carries its
    epoch in ``args``, the key that joins it to that epoch's ``epoch``
    telemetry record (simulated time); ``pid`` groups
    the events into one process row (fleet traces use one pid per
    tenant).
    """
    events: List[Dict[str, object]] = []
    for span in sorted(spans, key=lambda s: s.start_wall_s):
        events.append({
            "name": span.name,
            "cat": "pipeline",
            "ph": "X",
            "ts": span.start_wall_s * 1e6,
            "dur": span.dur_wall_s * 1e6,
            "pid": pid,
            "tid": 1,
            "args": {"epoch": span.epoch},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def merged_chrome_trace(
    groups: Sequence[Tuple[int, Sequence[SpanRecord]]],
) -> Dict[str, object]:
    """One trace object from several span groups, one pid per group.

    ``groups`` is ``[(pid, spans), ...]`` — e.g. one entry per fleet
    tenant — rendered as separate process rows in chrome://tracing.
    """
    events: List[Dict[str, object]] = []
    for pid, spans in groups:
        events.extend(chrome_trace(spans, pid=pid)["traceEvents"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[SpanRecord]) -> int:
    """Write the trace file; returns the number of events."""
    trace = chrome_trace(spans)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return len(trace["traceEvents"])
