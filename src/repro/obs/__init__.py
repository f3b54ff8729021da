"""Observability layer: metrics registry, stage tracing, exporters.

One :class:`Observability` object per run bundles the two concerns:

* ``obs.registry`` — a :class:`~repro.obs.metrics.MetricsRegistry`
  the engine, M5 manager, async migration engine, and CXL controller
  register counters/gauges/histograms into;
* ``obs.tracer`` — a :class:`~repro.obs.tracing.Tracer` timing every
  pipeline stage (and the migration tick as a nested span) in
  wall-clock time.  Simulated time is not in the spans: it lives in
  the per-epoch ``epoch`` telemetry record and ``sim_time_seconds``.

The default is **off**: :data:`NULL_OBS` hands out no-op instruments
and spans, so an uninstrumented run pays nothing and stays
bit-identical to the seed pipeline.  Enable per concern::

    obs = Observability(metrics=True, tracing=True)
    sim = Simulation(workload, config, policy="m5-hpt", obs=obs)
    sim.run()
    print(obs.prometheus())          # text exposition snapshot
    table = obs.flame_table()        # where the wall-clock went

Exports (``repro run --metrics/--trace``) live in
:mod:`repro.obs.exporters`.  The streaming ``/metrics`` HTTP endpoint
(:class:`~repro.obs.live.ObsServer`, ``--serve``) serves the same
registry live.  The per-epoch table is the ``epoch`` telemetry record
(``--timeline`` exports it); the SLO watchdog
(:class:`~repro.obs.slo.SloWatchdog`, ``--slo-rules``) judges each
record as it is published, whether or not metrics are on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.exporters import (
    chrome_trace,
    diff_snapshots,
    flatten_snapshot,
    load_metrics_file,
    merged_chrome_trace,
    parse_prometheus,
    series_key,
    to_prometheus,
    write_chrome_trace,
)
from repro.obs.live import ObsServer
from repro.obs.metrics import (
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NULL_METRIC,
    log2_buckets,
)
from repro.obs.slo import SloRule, SloWatchdog, build_watchdog, default_rules, load_rules
from repro.obs.tracing import NULL_SPAN, Span, SpanRecord, Tracer


class Observability:
    """Per-run bundle of a metrics registry and a tracer."""

    def __init__(self, metrics: bool = True, tracing: bool = True):
        self.registry = MetricsRegistry(enabled=metrics)
        self.tracer = Tracer(enabled=tracing)

    @property
    def metrics_on(self) -> bool:
        return self.registry.enabled

    @property
    def tracing_on(self) -> bool:
        return self.tracer.enabled

    @property
    def enabled(self) -> bool:
        return self.metrics_on or self.tracing_on

    # convenience pass-throughs

    def snapshot(self) -> Dict[str, object]:
        return self.registry.snapshot()

    def prometheus(self) -> str:
        return to_prometheus(self.registry.snapshot())

    def flame_table(self) -> List[Dict[str, float]]:
        return self.tracer.flame_table()

    def chrome_trace(self) -> Dict[str, object]:
        return chrome_trace(self.tracer.spans)


#: Shared disabled instance: the engine's default when no ``obs`` is
#: passed.  Stores nothing (its registry hands out null families), so
#: sharing it across simulations is safe.
NULL_OBS = Observability(metrics=False, tracing=False)

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "log2_buckets",
    "DURATION_BUCKETS",
    "NULL_METRIC",
    "Tracer",
    "Span",
    "SpanRecord",
    "NULL_SPAN",
    "to_prometheus",
    "parse_prometheus",
    "flatten_snapshot",
    "load_metrics_file",
    "diff_snapshots",
    "series_key",
    "chrome_trace",
    "merged_chrome_trace",
    "write_chrome_trace",
    "ObsServer",
    "SloRule",
    "SloWatchdog",
    "default_rules",
    "load_rules",
    "build_watchdog",
]
