"""Tests for the per-epoch time-series recorder."""

import json
import math

import numpy as np
import pytest

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    BASE_COLUMNS,
    DEFAULT_RECORD_SERIES,
    TimeSeriesRecorder,
    parse_series_spec,
)
from repro.sim import SimConfig, Simulation
from repro.workloads import uniform_workload


class TestParseSeriesSpec:
    def test_default_expands(self):
        assert parse_series_spec("default") == DEFAULT_RECORD_SERIES

    def test_all_is_wildcard(self):
        assert parse_series_spec("all") == ("*",)
        assert parse_series_spec("*") == ("*",)

    def test_explicit_list_deduplicates(self):
        assert parse_series_spec("a, b,a") == ("a", "b")

    def test_default_expands_inside_a_list(self):
        names = parse_series_spec("my_metric,default")
        assert names[0] == "my_metric"
        assert set(DEFAULT_RECORD_SERIES) <= set(names)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_series_spec(" , ")


def make_registry():
    reg = MetricsRegistry()
    reg.counter("reqs_total", "Requests").inc(0)
    reg.gauge("depth", "Queue depth").set(0)
    return reg


class TestRecorder:
    def test_samples_selected_families(self):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("reqs_total",), capacity=8)
        rec.sample(1, 0.5)
        assert rec.rows == 1
        assert set(rec.columns()) == {"reqs_total", "epoch", "t_s"}
        assert rec.last("reqs_total") == 0.0

    def test_wildcard_samples_everything(self):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("*",), capacity=8)
        rec.sample(1, 0.5)
        assert {"reqs_total", "depth"} <= set(rec.columns())

    def test_late_series_backfills_nan(self):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("*",), capacity=8)
        rec.sample(1, 1.0)
        reg.counter("late_total", "Appears at epoch 2").inc(7)
        rec.sample(2, 2.0)
        values = rec.column("late_total")
        assert math.isnan(values[0]) and values[1] == 7.0
        assert rec.last("late_total") == 7.0

    def test_ring_wrap_counts_dropped(self):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("reqs_total",), capacity=3)
        for epoch in range(5):
            rec.sample(epoch, float(epoch))
        assert rec.rows == 3
        assert rec.dropped == 2
        assert rec.samples_total == 5
        assert list(rec.column("epoch")) == [2.0, 3.0, 4.0]

    def test_memory_is_bounded(self):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("reqs_total",), capacity=100)
        for epoch in range(500):
            rec.sample(epoch, float(epoch))
        # 3 columns (reqs_total, epoch, t_s) x 100 rows x 8 bytes
        assert rec.memory_bytes == 3 * 100 * 8

    def test_rate_is_first_difference_over_sim_time(self):
        reg = make_registry()
        counter = reg.get("reqs_total")
        rec = TimeSeriesRecorder(reg, series=("reqs_total",), capacity=8)
        for epoch in range(4):
            counter.inc(10)
            rec.sample(epoch, float(epoch))
        # 30 units between t=0 and t=3
        assert rec.rate("reqs_total") == pytest.approx(10.0)

    def test_rate_with_single_point_is_zero(self):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("reqs_total",), capacity=8)
        rec.sample(1, 1.0)
        assert rec.rate("reqs_total") == 0.0

    def test_quantile_over_window(self):
        reg = make_registry()
        gauge = reg.get("depth")
        rec = TimeSeriesRecorder(reg, series=("depth",), capacity=16)
        for epoch, value in enumerate([1.0, 2.0, 3.0, 100.0]):
            gauge.set(value)
            rec.sample(epoch, float(epoch))
        assert rec.quantile("depth", 1.0) == 100.0
        assert rec.quantile("depth", 0.5, window=3) == 3.0

    def test_unknown_column_raises(self):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("reqs_total",), capacity=8)
        rec.sample(1, 1.0)
        with pytest.raises(KeyError):
            rec.column("misspelled_total")

    def test_window_returns_last_n_rows(self):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("reqs_total",), capacity=8)
        for epoch in range(5):
            rec.sample(epoch, float(epoch))
        tail = rec.window(2)
        assert list(tail["epoch"]) == [3.0, 4.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(make_registry(), capacity=0)

    def test_histograms_contribute_sum_and_count(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "Latency", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(2.0)
        rec = TimeSeriesRecorder(reg, series=("lat_seconds",), capacity=4)
        rec.sample(1, 1.0)
        assert rec.last("lat_seconds_sum") == 2.5
        assert rec.last("lat_seconds_count") == 2.0


class TestExport:
    def test_jsonl_round_trip_with_nulls(self, tmp_path):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("*",), capacity=8)
        rec.sample(1, 1.0)
        reg.counter("late_total", "").inc(3)
        rec.sample(2, 2.0)
        path = str(tmp_path / "series.jsonl")
        assert rec.to_jsonl(path) == 2
        rows = [json.loads(line) for line in open(path)]
        assert rows[0]["late_total"] is None
        assert rows[1]["late_total"] == 3.0
        assert all(set(BASE_COLUMNS[:2]) <= set(row) for row in rows)

    def test_csv_header_and_empty_cells(self, tmp_path):
        reg = make_registry()
        rec = TimeSeriesRecorder(reg, series=("*",), capacity=8)
        rec.sample(1, 1.0)
        reg.counter("late_total", "").inc(3)
        rec.sample(2, 2.0)
        path = str(tmp_path / "series.csv")
        assert rec.to_csv(path) == 2
        lines = open(path).read().splitlines()
        header = [c.strip('"') for c in lines[0].split(",")]
        idx = header.index("late_total")
        assert lines[1].split(",")[idx] == ""
        assert lines[2].split(",")[idx] == "3.0"


def run_sim(**cfg):
    defaults = dict(
        total_accesses=120_000,
        chunk_size=30_000,
        ddr_pages=512,
        cxl_pages=4096,
        pages_per_gb=1024,
    )
    defaults.update(cfg)
    obs = Observability(metrics=True, tracing=False)
    sim = Simulation(
        uniform_workload(footprint_pages=1024, seed=0),
        SimConfig(**defaults),
        policy="m5-hpt",
        obs=obs,
    )
    return sim, sim.run()


class TestEngineIntegration:
    def test_record_stage_samples_every_epoch(self):
        sim, result = run_sim(record_series="default")
        assert sim.recorder is not None
        assert sim.recorder.rows == 4  # 120k accesses / 30k chunk
        assert result.extra["recorded_epochs"] == 4.0
        assert "epoch_s" in sim.recorder.columns()

    def test_recording_does_not_perturb_the_run(self):
        _, plain = run_sim()
        _, recorded = run_sim(record_series="default")
        assert recorded.execution_time_s == plain.execution_time_s
        assert recorded.promoted == plain.promoted
        assert recorded.demoted == plain.demoted

    def test_no_recorder_without_spec(self):
        sim, _ = run_sim()
        assert sim.recorder is None
        assert "record" not in dict(sim.stage_table)

    def test_ring_capacity_honoured(self):
        sim, _ = run_sim(record_series="default", record_epochs=2)
        assert sim.recorder.rows == 2
        assert sim.recorder.dropped == 2
