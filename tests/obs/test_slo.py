"""Tests for the SLO rule engine and watchdog."""

import dataclasses
import json
import math

import pytest

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloRule, SloWatchdog, default_rules, load_rules
from repro.sim import JsonlSink, RingBufferSink, SimConfig, Simulation, TelemetryBus
from repro.verify import InvariantViolation
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
            "queue_saturation", "epoch_duration_p99", "bandwidth_starvation",
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
    return SloWatchdog(rules, MetricsRegistry(), bus=bus)


def feed(wd, values, key="depth"):
    """Observe one row per value (epochs 1.., t_s = epoch), returning
    the breaches fired by the last row."""
    fired = 0
    for epoch, value in enumerate(values, start=1):
        fired = wd.observe(epoch, float(epoch), {key: value})
    return fired


class TestWatchdog:
    def test_fires_after_sustain_window(self):
        rule = SloRule(name="deep", series="depth", op=">=", threshold=5.0,
                       for_epochs=2)
        wd = make_watchdog([rule])
        feed(wd, [9.0, 9.0, 9.0])
        # epoch 1 starts the streak, epochs 2 and 3 fire
        assert wd.breaches_total == 2
        assert wd.breaches_by_rule() == {"deep": 2.0}

    def test_streak_resets_on_recovery(self):
        rule = SloRule(name="deep", series="depth", op=">=", threshold=5.0,
                       for_epochs=2)
        wd = make_watchdog([rule])
        feed(wd, [9.0, 1.0, 9.0])
        assert wd.breaches_total == 0

    def test_absent_series_is_idle_not_breaching(self):
        rule = SloRule(name="ghost", series="never_published", op=">",
                       threshold=0.0)
        wd = make_watchdog([rule])
        assert wd.observe(1, 1.0, {"depth": 1.0}) == 0
        assert wd.breaches_total == 0
        assert wd.rules_without_data() == ["ghost"]

    def test_a_rule_that_ever_had_data_is_judged(self):
        rule = SloRule(name="deep", series="depth", op=">", threshold=5.0)
        wd = make_watchdog([rule])
        assert wd.rules_without_data() == ["deep"]
        wd.observe(1, 1.0, {"depth": 1.0})
        assert wd.rules_without_data() == []

    def test_wildcard_judges_worst_matching_series(self):
        rule = SloRule(name="starved", series="share*", op="<",
                       threshold=0.05)
        wd = make_watchdog([rule])
        row = {'share{tenant="0"}': 0.9,
               'share{tenant="1"}': 0.01}  # the starved one
        assert wd.observe(1, 1.0, row) == 1
        assert wd.alerts[0]["value"] == 0.01

    def test_counter_and_alerts_and_bus(self):
        ring = RingBufferSink()
        bus = TelemetryBus([ring])
        registry = MetricsRegistry()
        rule = SloRule(name="deep", series="depth", op=">", threshold=0.0)
        wd = SloWatchdog([rule], registry, bus=bus)
        wd.observe(4, 2.5, {"depth": 3.0})
        flat = {
            m["name"]: m["series"] for m in registry.snapshot()["metrics"]
        }
        series = flat["slo_breaches_total"]
        assert {"labels": {"rule": "deep"}, "value": 1.0} in series
        assert wd.alerts[0]["rule"] == "deep"
        assert wd.alerts[0]["value"] == 3.0
        events = [e for e in ring.events if e["stage"] == "alert.deep"]
        assert events and events[0]["epoch"] == 4
        assert events[0]["threshold"] == 0.0

    def test_breaches_count_without_a_live_registry(self):
        rule = SloRule(name="deep", series="depth", op=">", threshold=0.0)
        wd = SloWatchdog([rule], MetricsRegistry(enabled=False))
        wd.observe(1, 1.0, {"depth": 3.0})
        assert wd.breaches_total == 1

    def test_p99_over_p50_reducer(self):
        rule = SloRule(name="tail", series="depth", reduce="p99_over_p50",
                       op=">", threshold=10.0, window=16)
        wd = make_watchdog([rule])
        assert feed(wd, [1.0] * 9 + [1000.0]) == 1


def judged(rule, rows):
    """The value ``rule`` judged on the last of ``rows`` (``(t_s,
    fields)`` pairs), or None."""
    wd = make_watchdog([dataclasses.replace(rule, op=">=",
                                            threshold=-math.inf)])
    for epoch, (t_s, fields) in enumerate(rows, start=1):
        wd.observe(epoch, t_s, fields)
    last = wd.alerts[-1] if wd.alerts else {}
    return last["value"] if last.get("epoch") == len(rows) else None


class TestReducers:
    """Each reducer over the rule's window of observed rows."""

    # x over t_s = 0..5; the window of 5 drops the first row's 100 and
    # the NaN leaves [1, 2, 4, 8] at t_s = [1, 3, 4, 5].
    GAPPED = [(float(t), {"x": x})
              for t, x in enumerate([100.0, 1.0, math.nan, 2.0, 4.0, 8.0])]

    @pytest.mark.parametrize("reduce, expected", [
        ("last", 8.0), ("mean", 3.75), ("max", 8.0), ("min", 1.0),
        ("rate", 7.0 / 4.0), ("p50", 3.0), ("p95", 7.4), ("p99", 7.88),
        ("p99_over_p50", 7.88 / 3.0),
    ])
    def test_every_reducer_reads_the_finite_window(self, reduce, expected):
        rule = SloRule(name="r", series="x", reduce=reduce, window=5)
        assert judged(rule, self.GAPPED) == pytest.approx(expected)

    @pytest.mark.parametrize("op, worst", [
        (">", 0.7), (">=", 0.7), ("<", 0.2), ("<=", 0.2),
    ])
    def test_wildcard_judges_the_worst_key_for_the_op(self, op, worst):
        wd = make_watchdog([SloRule(
            name="r", series="s{*", op=op,
            threshold=-math.inf if op.startswith(">") else math.inf,
        )])
        wd.observe(1, 1.0, {'s{t="0"}': 0.2, 's{t="1"}': 0.7, "sx": 5.0})
        assert wd.alerts[0]["value"] == worst

    def test_window_sees_the_last_n_rows(self):
        rows = [(float(e), {"x": float(e)}) for e in range(5)]
        assert judged(SloRule(name="r", series="x", reduce="min",
                              window=2), rows) == 3.0
        assert judged(SloRule(name="r", series="x", reduce="mean",
                              window=4), rows) == 2.5
        assert judged(SloRule(name="r", series="x", reduce="max",
                              window=3), rows) == 4.0

    def test_quantile_over_window(self):
        rows = [(float(e), {"x": v})
                for e, v in enumerate([1.0, 2.0, 3.0, 100.0])]
        assert judged(SloRule(name="r", series="x", reduce="p99",
                              window=16), rows) == pytest.approx(97.09)
        assert judged(SloRule(name="r", series="x", reduce="p50",
                              window=3), rows) == 3.0

    def test_rate_is_first_difference_over_sim_time(self):
        # 30 units between t=0 and t=3, whatever the epoch numbers
        rows = [(float(t), {"x": 10.0 * (t + 1)}) for t in range(4)]
        assert judged(SloRule(name="r", series="x", reduce="rate"),
                      rows) == pytest.approx(10.0)
        rows = [(2.0 * t, {"x": 10.0 * (t + 1)}) for t in range(4)]
        assert judged(SloRule(name="r", series="x", reduce="rate"),
                      rows) == pytest.approx(5.0)

    def test_rate_with_single_point_is_zero(self):
        assert judged(SloRule(name="r", series="x", reduce="rate"),
                      [(1.0, {"x": 7.0})]) == 0.0

    def test_late_field_is_judged_from_its_first_row(self):
        rule = SloRule(name="r", series="late", reduce="mean")
        rows = [(1.0, {"x": 1.0}), (2.0, {"x": 1.0, "late": 7.0})]
        assert judged(rule, rows[:1]) is None
        assert judged(rule, rows) == 7.0
        rows.append((3.0, {"x": 1.0, "late": 9.0}))
        assert judged(rule, rows) == 8.0  # the earlier row has no value

    def test_non_finite_values_are_skipped(self):
        rows = [(1.0, {"x": 5.0}), (2.0, {"x": math.nan})]
        assert judged(SloRule(name="r", series="x"), rows) == 5.0

    def test_history_is_bounded_by_the_widest_window(self):
        wd = make_watchdog([
            SloRule(name="a", series="x", window=3),
            SloRule(name="b", series="x", window=5),
        ])
        for epoch in range(1, 21):
            wd.observe(epoch, float(epoch), {"x": float(epoch)})
        assert len(wd._rows) == 5
        assert [row["x"] for _, row in wd._rows] == [16.0, 17.0, 18.0,
                                                     19.0, 20.0]


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
        # One fact, one place: each alert judged its epoch's record.
        pending = {
            e["epoch"]: e["migration_pending"]
            for e in map(json.loads, open(timeline))
            if e["stage"] == "epoch"
        }
        assert all(e["value"] == pending[e["epoch"]] for e in alerts)


def run_sim(**cfg):
    config = dict(total_accesses=120_000, chunk_size=30_000, ddr_pages=512,
                  cxl_pages=4096, pages_per_gb=1024)
    config.update(cfg)
    ring = RingBufferSink()
    sim = Simulation(uniform_workload(footprint_pages=1024, seed=0),
                     SimConfig(**config), policy="m5-hpt",
                     telemetry=TelemetryBus([ring]))
    return sim, sim.run(), ring.events


class TestEngineIntegration:
    def test_watchdog_observes_every_epoch_record(self):
        sim, _, events = run_sim(slo_rules="default",
                                 migration_mode="async")
        records = [e for e in events if e["stage"] == "epoch"]
        assert len(records) == 4  # 120k accesses / 30k chunk
        assert [t_s for t_s, _ in sim.watchdog._rows] == [
            e["t_s"] for e in records
        ]
        assert all("migration_pending" in e for e in records)
        assert sim.watchdog.rules_without_data() == ["bandwidth_starvation"]

    def test_rule_on_an_outcome_field_fires_per_epoch(self, tmp_path):
        """The queue's aborts ride the record, so a rule can judge them."""
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "injected_aborts", "series": "mig_aborted_injected",
             "reduce": "max", "window": 1, "op": ">", "threshold": 0.0},
        ]}))
        sim, _, events = run_sim(slo_rules=str(path), migration_mode="async",
                                 migration_abort_rate=0.5)
        assert sim.watchdog.rules_without_data() == []
        injected = {
            e["epoch"]: e["mig_aborted_injected"]
            for e in events if e["stage"] == "epoch"
        }
        alerts = [e for e in events if e["stage"] == "alert.injected_aborts"]
        assert alerts
        assert all(e["value"] == injected[e["epoch"]] > 0 for e in alerts)
        assert len(alerts) == sum(v > 0 for v in injected.values())

    def test_instant_records_carry_no_queue_depth(self):
        _, _, events = run_sim()
        assert not any("migration_pending" in e for e in events)

    def test_rules_do_not_perturb_the_run(self):
        plain_sim, plain, plain_events = run_sim()
        sim, judged_run, events = run_sim(slo_rules="default")
        assert ([name for name, _ in sim.stage_table]
                == [name for name, _ in plain_sim.stage_table])
        assert judged_run.execution_time_s == plain.execution_time_s
        assert judged_run.promoted == plain.promoted
        assert events == plain_events  # nothing fired

    def test_no_watchdog_without_rules(self):
        sim, result, _ = run_sim()
        assert sim.watchdog is None
        assert "slo_breaches" not in result.extra


def test_an_invariant_violation_raises_before_any_rule_could_fire():
    """The engine's checker raises on the first violation, in the
    ``verify`` stage, so no watchdog rule could report it: the default
    catalogue has none, and the timeline ends at the broken epoch's
    record."""
    config = SimConfig(total_accesses=60_000, chunk_size=15_000,
                       ddr_pages=256, cxl_pages=4096, pages_per_gb=1024,
                       migration_mode="async", check_invariants=True,
                       slo_rules="default")
    ring = RingBufferSink()
    sim = Simulation(uniform_workload(footprint_pages=1024, seed=0), config,
                     policy="m5-hpt", telemetry=TelemetryBus([ring]),
                     obs=Observability(metrics=True, tracing=False))
    checker = sim.checker
    real = checker.check_mglru_bounds

    def broken(epoch):
        checker._check("mglru_bounds", epoch, epoch != 2, "injected")
        real(epoch)

    checker.check_mglru_bounds = broken
    with pytest.raises(InvariantViolation, match="mglru_bounds"):
        sim.run()
    last = ring.events[-1]
    assert (last["stage"], last["epoch"]) == ("epoch", 2)
    assert sim.watchdog.alerts == []
    assert not any(r.series.startswith("invariant")
                   for r in sim.watchdog.rules)
