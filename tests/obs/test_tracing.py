"""Tests for span tracing: nesting, the flame table, and coverage."""

import time

from repro.obs import tracing
from repro.obs.tracing import NULL_SPAN, Tracer


class FakeCounter:
    """Stands in for the ``time`` module: every read advances 1 µs."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1e-6
        return self.now


class TestSpanNesting:
    def test_depth_and_parent_child_attribution(self):
        tracer = Tracer()
        with tracer.span("run"), tracer.span("stage.migrate"), tracer.span("migrate.tick"):
            time.sleep(0.002)
        by_name = {r.name: r for r in tracer.spans}
        assert by_name["run"].depth == 0
        assert by_name["stage.migrate"].depth == 1
        assert by_name["migrate.tick"].depth == 2
        # child time flows up exactly one level
        assert by_name["stage.migrate"].child_wall_s == (
            by_name["migrate.tick"].dur_wall_s
        )
        assert by_name["run"].child_wall_s == (
            by_name["stage.migrate"].dur_wall_s
        )
        # self time excludes children but never goes negative
        assert 0.0 <= by_name["stage.migrate"].self_wall_s <= (
            by_name["stage.migrate"].dur_wall_s
        )

    def test_spans_record_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer"), tracer.span("inner"):
            pass
        assert [r.name for r in tracer.spans] == ["inner", "outer"]

    def test_epoch_stamped_from_tracer(self):
        tracer = Tracer()
        tracer.current_epoch = 7
        with tracer.span("stage.trace"):
            pass
        assert tracer.spans[0].epoch == 7


class TestDisabledTracer:
    def test_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything")
        assert span is NULL_SPAN
        with span:
            pass
        assert tracer.spans == []


class TestAggregation:
    def test_flame_table_rows_and_ordering(self):
        tracer = Tracer()
        with tracer.span("run"):
            for _ in range(3):
                with tracer.span("stage.snoop"):
                    time.sleep(0.001)
        table = tracer.flame_table()
        assert [row["name"] for row in table] == ["run", "stage.snoop"]
        snoop = table[1]
        assert snoop["count"] == 3
        assert snoop["total_s"] > 0.0
        # leaf spans: self == total
        assert snoop["self_s"] == snoop["total_s"]

    def test_coverage_of_fully_instrumented_root(self, monkeypatch):
        clock = FakeCounter()
        monkeypatch.setattr(tracing, "time", clock)
        tracer = Tracer()
        with tracer.span("run"):
            for _ in range(5):
                with tracer.span("stage.trace"):
                    clock.now += 0.002
        # Five 2 ms children; the root also pays the clock reads
        # between them, so coverage is high but not total.
        assert 0.95 <= tracer.coverage() < 1.0

    def test_coverage_zero_without_root(self):
        assert Tracer().coverage() == 0.0

    def test_clear_resets_state(self):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        tracer.clear()
        assert tracer.spans == []
