"""Tests for the exporters: Prometheus text, flatten/diff, Chrome trace."""

import json

from repro.obs import Observability
from repro.obs.exporters import (
    chrome_trace,
    diff_snapshots,
    flatten_snapshot,
    load_metrics_file,
    merged_chrome_trace,
    parse_prometheus,
    to_prometheus,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("sim_epochs_total", "Epochs executed").inc(13)
    acc = reg.counter("sim_accesses_total", "Accesses by tier",
                      labels=("tier",))
    acc.labels(tier="ddr").inc(100)
    acc.labels(tier="cxl").inc(50)
    hist = reg.histogram("stage_seconds", "Stage wall-clock",
                         buckets=(0.5, 1.0))
    hist.observe(0.25)
    hist.observe(2.0)
    return reg


class TestPrometheus:
    def test_golden_exposition(self):
        text = to_prometheus(sample_registry().snapshot())
        assert text == (
            "# HELP sim_epochs_total Epochs executed\n"
            "# TYPE sim_epochs_total counter\n"
            "sim_epochs_total 13\n"
            "# HELP sim_accesses_total Accesses by tier\n"
            "# TYPE sim_accesses_total counter\n"
            'sim_accesses_total{tier="ddr"} 100\n'
            'sim_accesses_total{tier="cxl"} 50\n'
            "# HELP stage_seconds Stage wall-clock\n"
            "# TYPE stage_seconds histogram\n"
            'stage_seconds_bucket{le="0.5"} 1\n'
            'stage_seconds_bucket{le="1"} 1\n'
            'stage_seconds_bucket{le="+Inf"} 2\n'
            "stage_seconds_sum 2.25\n"
            "stage_seconds_count 2\n"
        )

    def test_parse_round_trip(self):
        text = to_prometheus(sample_registry().snapshot())
        flat = parse_prometheus(text)
        assert flat["sim_epochs_total"] == 13.0
        assert flat['sim_accesses_total{tier="ddr"}'] == 100.0
        assert flat["stage_seconds_sum"] == 2.25

    def test_non_integral_values_keep_precision(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(0.123456789)
        assert "g 0.123456789" in to_prometheus(reg.snapshot())


def labelled_histogram_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    lat = reg.histogram("stage_seconds", "Stage wall-clock by tenant",
                        labels=("tenant", "stage"), buckets=(0.5, 1.0))
    lat.labels(tenant="0", stage="perf").observe(0.25)
    lat.labels(tenant="0", stage="perf").observe(2.0)
    lat.labels(tenant="1", stage="migrate").observe(0.75)
    reg.counter("acc_total", labels=("tenant",)).labels(tenant="1").inc(3)
    return reg


class TestLabelledHistogramRoundTrip:
    """Exporter chain must be lossless for labelled histograms: a
    scrape parsed back must equal the bucket-level flatten of the
    snapshot key-for-key."""

    def test_parse_of_exposition_equals_bucket_flatten(self):
        snap = labelled_histogram_registry().snapshot()
        parsed = parse_prometheus(to_prometheus(snap))
        assert parsed == flatten_snapshot(snap, buckets=True)

    def test_bucket_keys_carry_series_labels_and_le(self):
        snap = labelled_histogram_registry().snapshot()
        flat = flatten_snapshot(snap, buckets=True)
        key = 'stage_seconds_bucket{tenant="0",stage="perf",le="+Inf"}'
        assert flat[key] == 2.0
        assert flat['stage_seconds_sum{tenant="1",stage="migrate"}'] == 0.75
        assert flat['stage_seconds_count{tenant="1",stage="migrate"}'] == 1.0

    def test_round_trip_survives_merge_widening(self):
        # widened families pad labels with ""; the exposition must
        # still parse back to the identical flat map
        reg = MetricsRegistry()
        reg.counter("slo_breaches_total", labels=("rule",)).labels(
            rule="deep"
        ).inc(2)
        reg.merge(labelled_histogram_registry().snapshot())
        snap = reg.snapshot()
        assert parse_prometheus(to_prometheus(snap)) == flatten_snapshot(
            snap, buckets=True
        )


class TestFlattenDiff:
    def test_flatten_matches_parsed_exposition(self):
        snap = sample_registry().snapshot()
        flat = flatten_snapshot(snap)
        parsed = parse_prometheus(to_prometheus(snap))
        # flatten elides buckets; everything else must agree
        assert flat == {k: v for k, v in parsed.items()
                        if "_bucket{" not in k}

    def test_diff_unions_and_subtracts(self):
        rows = diff_snapshots({"a": 1.0, "b": 2.0}, {"b": 5.0, "c": 1.0})
        assert rows == [
            {"series": "a", "a": 1.0, "b": 0.0, "delta": -1.0},
            {"series": "b", "a": 2.0, "b": 5.0, "delta": 3.0},
            {"series": "c", "a": 0.0, "b": 1.0, "delta": 1.0},
        ]

    def test_load_metrics_file_both_formats(self, tmp_path):
        snap = sample_registry().snapshot()
        json_path = tmp_path / "m.json"
        json_path.write_text(json.dumps(snap))
        prom_path = tmp_path / "m.prom"
        prom_path.write_text(to_prometheus(snap))
        from_json = load_metrics_file(str(json_path))
        from_prom = load_metrics_file(str(prom_path))
        assert from_json["sim_epochs_total"] == 13.0
        assert from_prom["sim_epochs_total"] == 13.0


class TestChromeTrace:
    def traced(self):
        tracer = Tracer()
        tracer.current_epoch = 3
        with tracer.span("run"), tracer.span("stage.perf"):
            pass
        return tracer

    def test_event_shape(self):
        trace = chrome_trace(self.traced().spans)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        # sorted by start: run opened first
        assert [e["name"] for e in events] == ["run", "stage.perf"]
        perf = events[1]
        assert perf["ph"] == "X"
        assert perf["cat"] == "pipeline"
        assert perf["pid"] == 1 and perf["tid"] == 1
        assert perf["dur"] >= 0.0
        assert perf["args"] == {"epoch": 3}

    def test_write_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), self.traced().spans)
        assert n == 2
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == 2

    def test_merged_trace_one_pid_per_group(self):
        groups = [(0, self.traced().spans), (1, self.traced().spans)]
        trace = merged_chrome_trace(groups)
        assert len(trace["traceEvents"]) == 4
        assert {e["pid"] for e in trace["traceEvents"]} == {0, 1}
        assert trace["displayTimeUnit"] == "ms"


class TestObservabilityFacade:
    def test_snapshot_prometheus_and_trace(self):
        obs = Observability()
        obs.registry.counter("x_total").inc(4)
        with obs.tracer.span("run"):
            pass
        assert "x_total 4" in obs.prometheus()
        assert obs.flame_table()[0]["name"] == "run"
        assert len(obs.chrome_trace()["traceEvents"]) == 1

    def test_null_obs_is_fully_disabled(self):
        from repro.obs import NULL_OBS

        assert not NULL_OBS.enabled
        assert not NULL_OBS.metrics_on
        assert not NULL_OBS.tracing_on
        assert NULL_OBS.snapshot() == {"metrics": []}
