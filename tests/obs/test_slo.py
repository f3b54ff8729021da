"""Tests for the SLO rule engine and watchdog."""

import json

import pytest

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloRule, SloWatchdog, default_rules, load_rules
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim import JsonlSink, RingBufferSink, SimConfig, Simulation, TelemetryBus
from repro.workloads import uniform_workload


class TestRuleValidation:
    def test_requires_name_and_series(self):
        with pytest.raises(ValueError):
            SloRule(name="", series="x")
        with pytest.raises(ValueError):
            SloRule(name="x", series="")

    def test_rejects_unknown_reduce_and_op(self):
        with pytest.raises(ValueError):
            SloRule(name="r", series="s", reduce="median")
        with pytest.raises(ValueError):
            SloRule(name="r", series="s", op="!=")

    def test_rejects_non_positive_windows(self):
        with pytest.raises(ValueError):
            SloRule(name="r", series="s", window=0)
        with pytest.raises(ValueError):
            SloRule(name="r", series="s", for_epochs=0)

    def test_breach_direction(self):
        above = SloRule(name="r", series="s", op=">", threshold=1.0)
        assert above.breaches(1.5) and not above.breaches(1.0)
        below = SloRule(name="r", series="s", op="<=", threshold=1.0)
        assert below.breaches(1.0) and not below.breaches(1.5)


class TestLoadRules:
    def test_default_catalogue_scales_with_config(self):
        rules = {r.name: r for r in default_rules(SimConfig())}
        assert rules["queue_saturation"].threshold == pytest.approx(
            0.8 * SimConfig().migration_queue_capacity
        )
        assert set(rules) == {
            "queue_saturation", "epoch_duration_p99",
            "invariant_violations", "bandwidth_starvation",
        }

    def test_default_spec_resolves(self):
        assert {r.name for r in load_rules("default", SimConfig())} == {
            r.name for r in default_rules(SimConfig())
        }

    def test_json_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "hot", "series": "depth", "op": ">=", "threshold": 3.0},
        ]}))
        rules = load_rules(str(path))
        assert rules[0].name == "hot" and rules[0].threshold == 3.0

    def test_json_file_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "hot", "series": "depth", "severity": "page"},
        ]}))
        with pytest.raises(ValueError, match="severity"):
            load_rules(str(path))

    def test_json_file_rejects_empty_rules(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": []}))
        with pytest.raises(ValueError):
            load_rules(str(path))


def make_watchdog(rules, bus=None):
    reg = MetricsRegistry()
    gauge = reg.gauge("depth", "Queue depth")
    rec = TimeSeriesRecorder(reg, series=("depth",), capacity=32)
    return gauge, rec, SloWatchdog(rules, rec, bus=bus)


class TestWatchdog:
    def test_fires_after_sustain_window(self):
        rule = SloRule(name="deep", series="depth", op=">=", threshold=5.0,
                       for_epochs=2)
        gauge, rec, wd = make_watchdog([rule])
        for epoch, value in enumerate([9.0, 9.0, 9.0], start=1):
            gauge.set(value)
            rec.sample(epoch, float(epoch))
            wd.evaluate(epoch, float(epoch))
        # epoch 1 starts the streak, epochs 2 and 3 fire
        assert wd.breaches_total == 2
        assert wd.breaches_by_rule() == {"deep": 2.0}

    def test_streak_resets_on_recovery(self):
        rule = SloRule(name="deep", series="depth", op=">=", threshold=5.0,
                       for_epochs=2)
        gauge, rec, wd = make_watchdog([rule])
        for epoch, value in enumerate([9.0, 1.0, 9.0], start=1):
            gauge.set(value)
            rec.sample(epoch, float(epoch))
            wd.evaluate(epoch, float(epoch))
        assert wd.breaches_total == 0

    def test_absent_series_is_idle_not_breaching(self):
        rule = SloRule(name="ghost", series="never_registered", op=">",
                       threshold=0.0)
        _, rec, wd = make_watchdog([rule])
        rec.sample(1, 1.0)
        assert wd.evaluate(1, 1.0) == 0
        assert wd.breaches_total == 0
        assert wd.rules_without_data() == ["ghost"]

    def test_a_rule_that_ever_had_data_is_judged(self):
        rule = SloRule(name="deep", series="depth", op=">", threshold=5.0)
        gauge, rec, wd = make_watchdog([rule])
        assert wd.rules_without_data() == ["deep"]
        gauge.set(1.0)
        rec.sample(1, 1.0)
        wd.evaluate(1, 1.0)
        assert wd.rules_without_data() == []

    def test_wildcard_judges_worst_matching_series(self):
        reg = MetricsRegistry()
        share = reg.gauge("share", "Granted share", labels=("tenant",))
        rec = TimeSeriesRecorder(reg, series=("share",), capacity=8)
        rule = SloRule(name="starved", series="share*", op="<",
                       threshold=0.05)
        wd = SloWatchdog([rule], rec)
        share.labels(tenant="0").set(0.9)
        share.labels(tenant="1").set(0.01)  # the starved one
        rec.sample(1, 1.0)
        assert wd.evaluate(1, 1.0) == 1

    def test_counter_and_alerts_and_bus(self):
        ring = RingBufferSink()
        bus = TelemetryBus([ring])
        rule = SloRule(name="deep", series="depth", op=">", threshold=0.0)
        gauge, rec, wd = make_watchdog([rule], bus=bus)
        gauge.set(3.0)
        rec.sample(4, 2.5)
        wd.evaluate(4, 2.5)
        snap = rec.registry.snapshot()
        flat = {
            m["name"]: m["series"] for m in snap["metrics"]
        }
        series = flat["slo_breaches_total"]
        assert {"labels": {"rule": "deep"}, "value": 1.0} in series
        assert wd.alerts[0]["rule"] == "deep"
        assert wd.alerts[0]["value"] == 3.0
        events = [e for e in ring.events if e["stage"] == "alert.deep"]
        assert events and events[0]["epoch"] == 4
        assert events[0]["threshold"] == 0.0

    def test_p99_over_p50_reducer(self):
        rule = SloRule(name="tail", series="depth", reduce="p99_over_p50",
                       op=">", threshold=10.0, window=16)
        gauge, rec, wd = make_watchdog([rule])
        for epoch, value in enumerate([1.0] * 9 + [1000.0], start=1):
            gauge.set(value)
            rec.sample(epoch, float(epoch))
        assert wd.evaluate(10, 10.0) == 1


class TestStarvedQueueAcceptance:
    """The acceptance demo: a starved copy engine must raise alerts."""

    def test_queue_saturation_fires_end_to_end(self, tmp_path):
        timeline = str(tmp_path / "timeline.jsonl")
        bus = TelemetryBus([JsonlSink(timeline)])
        obs = Observability(metrics=True, tracing=False)
        config = SimConfig(
            total_accesses=240_000,
            chunk_size=30_000,
            ddr_pages=256,
            cxl_pages=4096,
            pages_per_gb=1024,
            migration_mode="async",
            migration_copy_gbps=0.0001,  # starved copy engine
            migration_queue_capacity=64,
            slo_rules="default",
        )
        sim = Simulation(
            uniform_workload(footprint_pages=1024, seed=0),
            config,
            policy="m5-hpt",
            telemetry=bus,
            obs=obs,
        )
        result = sim.run()
        bus.close()
        assert sim.watchdog is not None
        assert sim.watchdog.breaches_by_rule()["queue_saturation"] > 0
        assert result.extra["slo_breaches"] > 0
        flat = {
            m["name"]: m["series"]
            for m in obs.registry.snapshot()["metrics"]
        }
        fired = [
            s for s in flat["slo_breaches_total"]
            if s["labels"]["rule"] == "queue_saturation"
        ]
        assert fired and fired[0]["value"] > 0
        alerts = [
            json.loads(line)
            for line in open(timeline)
            if '"alert.queue_saturation"' in line
        ]
        assert alerts
        assert all(e["value"] >= e["threshold"] for e in alerts)


def test_a_clean_invariant_checked_run_judges_the_invariant_rule():
    """The violations series exists from the first check, so a run
    without violations reads green on ``invariant_violations``; only
    the fleet-only rule has no data on a single async run."""
    config = SimConfig(
        total_accesses=60_000,
        chunk_size=15_000,
        ddr_pages=256,
        cxl_pages=4096,
        pages_per_gb=1024,
        migration_mode="async",
        check_invariants=True,
        slo_rules="default",
    )
    sim = Simulation(uniform_workload(footprint_pages=1024, seed=0), config,
                     policy="m5-hpt",
                     obs=Observability(metrics=True, tracing=False))
    sim.run()
    assert sim.watchdog.breaches_total == 0
    assert sim.watchdog.rules_without_data() == ["bandwidth_starvation"]
