"""Tests for the telemetry bus, its sinks, and the engine timeline."""

import json

import pytest

from repro.sim import SimConfig, Simulation
from repro.sim.telemetry import (
    JsonlSink,
    RingBufferSink,
    TelemetryBus,
    TelemetrySink,
    read_jsonl,
)
from repro.workloads import uniform_workload


def small_config(**kw):
    defaults = dict(
        total_accesses=120_000,
        chunk_size=30_000,
        ddr_pages=512,
        cxl_pages=4096,
        checkpoints=3,
        pages_per_gb=1024,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class RecordingSink(TelemetrySink):
    def __init__(self):
        self.events = []
        self.closed = False

    def emit(self, event):
        self.events.append(event)

    def close(self):
        self.closed = True


class TestTelemetryBus:
    def test_sink_registration_and_fanout(self):
        bus = TelemetryBus()
        assert not bus.active
        a, b = RecordingSink(), RecordingSink()
        bus.attach(a)
        bus.attach(b)
        assert bus.active
        bus.publish("epoch", 1, 0.5, n_ddr=10)
        assert a.events == b.events
        assert a.events[0] == {"stage": "epoch", "epoch": 1, "t_s": 0.5, "n_ddr": 10}

    def test_detach_stops_delivery(self):
        bus = TelemetryBus()
        sink = RecordingSink()
        bus.attach(sink)
        bus.detach(sink)
        bus.publish("epoch", 1, 0.0)
        assert sink.events == []
        assert not bus.active

    def test_publish_without_sinks_is_noop(self):
        TelemetryBus().publish("epoch", 1, 0.0, anything=1)  # must not raise

    def test_close_closes_every_sink(self):
        bus = TelemetryBus([RecordingSink(), RecordingSink()])
        bus.close()
        assert all(s.closed for s in bus.sinks)


class TestRingBufferSink:
    def test_keeps_events_in_order(self):
        ring = RingBufferSink(capacity=10)
        for i in range(5):
            ring.emit({"epoch": i})
        assert [e["epoch"] for e in ring.events] == [0, 1, 2, 3, 4]
        assert len(ring) == 5

    def test_eviction_drops_oldest(self):
        ring = RingBufferSink(capacity=3)
        for i in range(7):
            ring.emit({"epoch": i})
        assert [e["epoch"] for e in ring.events] == [4, 5, 6]
        assert len(ring) == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_dropped_counts_evictions(self):
        ring = RingBufferSink(capacity=3)
        for i in range(7):
            ring.emit({"epoch": i})
        assert ring.dropped == 4

    def test_dropped_zero_without_overflow(self):
        ring = RingBufferSink(capacity=10)
        ring.emit({"epoch": 0})
        assert ring.dropped == 0

    def test_clear_resets_dropped(self):
        ring = RingBufferSink(capacity=1)
        ring.emit({"epoch": 0})
        ring.emit({"epoch": 1})
        ring.clear()
        assert ring.dropped == 0
        assert len(ring) == 0


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "timeline.jsonl")
        sink = JsonlSink(path)
        events = [
            {"stage": "epoch", "epoch": 1, "t_s": 0.25, "n_ddr": 3},
            {"stage": "ratio", "epoch": 2, "t_s": 0.50, "ratio": 0.9},
        ]
        for e in events:
            sink.emit(e)
        sink.close()
        assert read_jsonl(path) == events

    def test_lazy_open_creates_no_empty_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(str(path))
        sink.close()
        assert not path.exists()

    def test_flush_every_n_events(self, tmp_path):
        path = tmp_path / "batched.jsonl"
        sink = JsonlSink(str(path), flush_every=2)
        sink.emit({"stage": "epoch", "epoch": 1, "t_s": 0.0})
        flushed_after_one = path.read_text()
        sink.emit({"stage": "epoch", "epoch": 2, "t_s": 0.1})
        flushed_after_two = path.read_text()
        # the first event sits in the buffer; the second triggers a flush
        assert flushed_after_one == ""
        assert len(flushed_after_two.splitlines()) == 2
        sink.close()

    def test_flush_every_zero_defers_to_close(self, tmp_path):
        path = tmp_path / "deferred.jsonl"
        sink = JsonlSink(str(path), flush_every=0)
        for i in range(10):
            sink.emit({"stage": "epoch", "epoch": i, "t_s": 0.0})
        sink.close()
        assert len(read_jsonl(str(path))) == 10

    def test_negative_flush_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "x.jsonl"), flush_every=-1)

    def test_accepts_open_file_object(self, tmp_path):
        path = tmp_path / "fh.jsonl"
        with open(path, "w") as fh:
            sink = JsonlSink(fh)
            sink.emit({"stage": "epoch", "epoch": 1, "t_s": 0.0})
            sink.close()  # flushes, must not close the caller's handle
            assert not fh.closed
        assert len(read_jsonl(str(path))) == 1

    def test_emit_after_close_appends(self, tmp_path):
        """Regression: a close/re-emit cycle must not truncate.

        The sink used to reopen its path with mode "w" on the emit
        after a close, silently destroying every event written before
        — fatal for any long-running service that closes sinks between
        sessions.  The reopen must append.
        """
        path = str(tmp_path / "long_run.jsonl")
        sink = JsonlSink(path)
        sink.emit({"stage": "epoch", "epoch": 1, "t_s": 0.1})
        sink.emit({"stage": "epoch", "epoch": 2, "t_s": 0.2})
        sink.close()
        sink.emit({"stage": "epoch", "epoch": 3, "t_s": 0.3})
        sink.close()
        events = read_jsonl(path)
        assert [e["epoch"] for e in events] == [1, 2, 3]

    def test_repeated_close_reopen_cycles_keep_appending(self, tmp_path):
        path = str(tmp_path / "cycles.jsonl")
        sink = JsonlSink(path)
        for epoch in range(5):
            sink.emit({"stage": "epoch", "epoch": epoch, "t_s": 0.0})
            sink.close()
        assert [e["epoch"] for e in read_jsonl(path)] == list(range(5))

    def test_first_open_still_truncates_stale_file(self, tmp_path):
        # Append-on-reopen must not turn into append-always: a fresh
        # sink pointed at a leftover file starts a fresh timeline.
        path = tmp_path / "stale.jsonl"
        path.write_text('{"stage": "old", "epoch": 99, "t_s": 0.0}\n')
        sink = JsonlSink(str(path))
        sink.emit({"stage": "epoch", "epoch": 1, "t_s": 0.0})
        sink.close()
        assert [e["epoch"] for e in read_jsonl(str(path))] == [1]

    def test_pickle_roundtrip_resumes_in_append_mode(self, tmp_path):
        """A checkpointed sink must extend its file, not restart it."""
        import pickle

        path = str(tmp_path / "ckpt.jsonl")
        sink = JsonlSink(path)
        sink.emit({"stage": "epoch", "epoch": 1, "t_s": 0.0})
        blob = pickle.dumps(sink)
        sink.close()
        restored = pickle.loads(blob)
        restored.emit({"stage": "epoch", "epoch": 2, "t_s": 0.1})
        restored.close()
        assert [e["epoch"] for e in read_jsonl(path)] == [1, 2]

    def test_pickle_rejects_externally_owned_file(self, tmp_path):
        import pickle

        with open(tmp_path / "ext.jsonl", "w") as fh:
            sink = JsonlSink(fh)
            with pytest.raises(TypeError):
                pickle.dumps(sink)


class TestEngineTimeline:
    def test_run_result_has_epoch_timeline(self):
        sim = Simulation(
            uniform_workload(footprint_pages=1024, seed=0),
            small_config(),
            policy="none",
        )
        result = sim.run()
        epochs = [e for e in result.timeline if e["stage"] == "epoch"]
        assert len(epochs) == small_config().num_epochs
        assert epochs[0]["nr_pages_cxl"] == 1024
        assert all("overhead_us" in e and "migration_us" in e for e in epochs)

    def test_ratio_checkpoints_mirrored_on_timeline(self):
        sim = Simulation(
            uniform_workload(footprint_pages=1024, seed=0),
            small_config(migrate=False),
            policy="none",
        )
        result = sim.run()
        ratios = [e["ratio"] for e in result.timeline if e["stage"] == "ratio"]
        assert ratios == result.ratio_checkpoints

    def test_custom_bus_receives_engine_events(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        bus = TelemetryBus([JsonlSink(path)])
        sim = Simulation(
            uniform_workload(footprint_pages=1024, seed=0),
            small_config(),
            policy="none",
            telemetry=bus,
        )
        result = sim.run()
        bus.close()
        events = read_jsonl(path)
        assert [e for e in events if e["stage"] == "epoch"]
        # the JSONL stream and the in-memory timeline agree
        assert json.loads(json.dumps(result.timeline)) == events
