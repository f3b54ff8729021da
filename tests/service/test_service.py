"""Tests for the streaming service daemon (``repro serve``).

Covers the bounded-buffer ingest discipline, the deterministic
round-robin scheduler, per-stream labelled metrics, and the
kill/resume contract: a service killed after a checkpoint and resumed
must produce per-stream results bit-identical to a service that was
never interrupted (and never checkpointed).
"""

import dataclasses
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    Service,
    ServiceConfig,
    StreamEmpty,
    ServiceStream,
    StreamSpec,
    StreamWorkload,
)
from repro.sim import CheckpointError, SimConfig, Simulation
from repro.verify.differential import _metric_mismatches
from repro.workloads import (
    TraceCorruptError,
    TraceReader,
    TraceWriter,
    record,
    uniform_workload,
)

CHUNK = 4096


def sim_cfg(**kw):
    defaults = dict(
        chunk_size=CHUNK,
        ddr_pages=512,
        cxl_pages=4096,
        pages_per_gb=1024,
        seed=5,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def write_trace(tmp_path, name, n_chunks, seed):
    wl = uniform_workload(footprint_pages=2048, seed=seed)
    return record(wl, n_chunks * CHUNK, tmp_path / name, chunk_size=CHUNK)


def assert_results_bit_identical(a, b):
    assert set(a) == set(b)
    for name in a:
        da = dataclasses.asdict(a[name])
        db = dataclasses.asdict(b[name])
        ma, mb = da.pop("metrics"), db.pop("metrics")
        assert da == db, f"stream {name!r} diverged"
        assert _metric_mismatches(ma, mb) == 0, f"stream {name!r} metrics"


class TestStreamWorkload:
    @staticmethod
    def wl(capacity=1 << 20):
        spec = uniform_workload(footprint_pages=64).spec
        return StreamWorkload(spec, capacity=capacity)

    def test_fifo_across_chunk_boundaries(self):
        wl = self.wl()
        wl.feed(np.arange(10, dtype=np.uint64))
        wl.feed(np.arange(10, 20, dtype=np.uint64))
        assert np.array_equal(wl.chunk(5), np.arange(5, dtype=np.uint64))
        assert np.array_equal(wl.chunk(10), np.arange(5, 15, dtype=np.uint64))
        assert np.array_equal(wl.chunk(5), np.arange(15, 20, dtype=np.uint64))
        assert wl.buffered == 0
        assert wl.fed_total == 20 and wl.consumed_total == 20

    def test_over_ask_raises_stream_empty(self):
        wl = self.wl()
        wl.feed(np.arange(4, dtype=np.uint64))
        with pytest.raises(StreamEmpty):
            wl.chunk(5)
        # The refused read consumed nothing.
        assert wl.buffered == 4

    def test_backpressure_refuses_at_capacity(self):
        wl = self.wl(capacity=10)
        assert wl.feed(np.arange(8, dtype=np.uint64))  # 8 < 10
        # One chunk may overshoot the bound (a file chunk is the
        # transfer unit), but a full buffer refuses the next one.
        assert wl.feed(np.arange(8, dtype=np.uint64))  # 8 < 10 still
        assert wl.buffered == 16
        assert not wl.feed(np.arange(1, dtype=np.uint64))
        assert wl.free == 0
        wl.chunk(7)  # drain below capacity
        assert wl.feed(np.arange(1, dtype=np.uint64))

    def test_empty_chunk_is_accepted_without_effect(self):
        wl = self.wl()
        assert wl.feed(np.empty(0, dtype=np.uint64))
        assert wl.buffered == 0 and wl.fed_total == 0

    def test_pickle_carries_positions_not_addresses(self):
        """A pickled buffer holds its bookkeeping, never its addresses:
        its size does not grow with what is buffered, and it reads
        nothing until the same chunks refill it."""
        sizes = {}
        for n in (10, 1 << 16):
            wl = self.wl()
            wl.feed(np.arange(n, dtype=np.uint64))
            wl.feed(np.arange(n, n + 6, dtype=np.uint64))
            wl.chunk(3)
            sizes[n] = len(pickle.dumps(wl))
            clone = pickle.loads(pickle.dumps(wl))
            assert (clone.buffered, clone.chunks_held) == (n + 3, 2)
            assert clone.consumed_total == 3 and clone.fed_total == n + 6
            with pytest.raises(ValueError, match="do not refill"):
                clone.refill([np.arange(n, dtype=np.uint64)])
            clone.refill([np.arange(n, dtype=np.uint64),
                          np.arange(n, n + 6, dtype=np.uint64)])
            assert np.array_equal(clone.chunk(n + 3),
                                  np.arange(3, n + 6, dtype=np.uint64))
        # 65,542 buffered addresses would be 512 KiB; only wider
        # integers in the bookkeeping separate the two pickles.
        assert sizes[1 << 16] - sizes[10] < 16

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            self.wl(capacity=0)


class TestStreamSource:
    def test_source_reads_and_skips_the_trace(self, tmp_path):
        path = write_trace(tmp_path, "s.rtrace", 3, seed=1)
        stream = ServiceStream(StreamSpec("s", str(path)), sim_cfg(),
                               buffer_capacity=1 << 20)
        src = stream.source
        first = src.read_next()
        assert first.size == CHUNK
        assert src.chunks_read == 1
        assert src.skip(1) == 1
        assert src.read_next().size == CHUNK
        assert src.read_next() is None
        # The streaming reader learns "sealed" by walking to the
        # footer, so completeness is observable only at the end.
        assert src.complete
        assert src.total_addresses == 3 * CHUNK
        stream.close()

    def test_damaged_sealed_trace_fails_instead_of_waiting(self, tmp_path):
        """A flipped length bit in a sealed trace is corruption, not an
        in-flight append the service would poll for forever."""
        path = write_trace(tmp_path, "s.rtrace", 3, seed=1)
        with TraceReader(path) as r:
            r.read_next()
            second = r._fh.tell()
        data = bytearray(path.read_bytes())
        data[second + 4] ^= 0x01  # high byte of chunk 1's length
        path.write_bytes(bytes(data))
        cfg = ServiceConfig(max_rounds=50, poll_interval_s=0.0)
        with Service([StreamSpec("s", str(path))], sim_cfg(), cfg) as svc:
            with pytest.raises(TraceCorruptError):
                svc.run()


class TestValidation:
    def test_stream_spec_rejects_path_like_names(self):
        for bad in ("", "a/b", ".", ".."):
            with pytest.raises(ValueError):
                StreamSpec(name=bad, trace="t.rtrace")
        with pytest.raises(ValueError):
            StreamSpec(name="ok", trace="t.rtrace", budget=0)

    def test_service_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(buffer_capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(checkpoint_every=2)  # no checkpoint_dir
        with pytest.raises(ValueError):
            ServiceConfig(poll_interval_s=-1)

    def test_service_rejects_duplicate_names(self, tmp_path):
        path = write_trace(tmp_path, "s.rtrace", 1, seed=1)
        specs = [StreamSpec("a", str(path)), StreamSpec("a", str(path))]
        with pytest.raises(ValueError, match="duplicate"):
            Service(specs, sim_cfg())

    def test_service_rejects_engine_level_checkpointing(self, tmp_path):
        path = write_trace(tmp_path, "s.rtrace", 1, seed=1)
        cfg = sim_cfg(checkpoint_every=2, checkpoint_path="/tmp/x.ckpt")
        with pytest.raises(ValueError, match="owns checkpointing"):
            Service([StreamSpec("a", str(path))], cfg)

    def test_service_needs_streams(self):
        with pytest.raises(ValueError):
            Service([], sim_cfg())


class TestServiceRun:
    @staticmethod
    def specs(tmp_path):
        p1 = write_trace(tmp_path, "one.rtrace", 12, seed=21)
        p2 = write_trace(tmp_path, "two.rtrace", 8, seed=22)
        return [
            StreamSpec("one", str(p1), policy="m5-hpt", budget=2 * CHUNK),
            StreamSpec("two", str(p2), policy="anb", budget=CHUNK),
        ]

    def test_two_streams_run_to_completion(self, tmp_path):
        with Service(self.specs(tmp_path), sim_cfg()) as service:
            results = service.run()
        assert set(results) == {"one", "two"}
        assert results["one"].policy == "m5-hpt"
        assert results["two"].policy == "anb"
        for stream in service.streams:
            assert stream.finished
            assert stream.workload.buffered == 0
        assert service.streams[0].workload.consumed_total == 12 * CHUNK
        assert service.streams[1].workload.consumed_total == 8 * CHUNK
        assert service.round > 0

    def test_snapshot_labels_stream_series(self, tmp_path):
        with Service(self.specs(tmp_path), sim_cfg()) as service:
            service.run()
            snap = service.snapshot()
        families = {m["name"]: m for m in snap["metrics"]}
        assert families["service_rounds_total"]["series"][0]["value"] > 0
        consumed = {
            s["labels"]["stream"]: s["value"]
            for s in families["service_stream_accesses_total"]["series"]
        }
        assert consumed == {"one": 12 * CHUNK, "two": 8 * CHUNK}
        # Engine families arrive labelled per stream too.
        epoch_series = families["sim_epochs_total"]["series"]
        assert {s["labels"]["stream"] for s in epoch_series} == {"one", "two"}

    def test_streams_time_every_stage_of_every_epoch(self, tmp_path):
        with Service(self.specs(tmp_path), sim_cfg()) as service:
            service.run()
            snap = service.snapshot()
        families = {m["name"]: m for m in snap["metrics"]}
        epochs = {
            s["labels"]["stream"]: s["value"]
            for s in families["sim_epochs_total"]["series"]
        }
        assert epochs == {"one": 12, "two": 8}
        stage_series = families["pipeline_stage_seconds"]["series"]
        assert len(stage_series) == 2 * 6
        for s in stage_series:
            assert s["count"] == epochs[s["labels"]["stream"]], s["labels"]

    def test_max_rounds_caps_the_run(self, tmp_path):
        cfg = ServiceConfig(max_rounds=2)
        with Service(self.specs(tmp_path), sim_cfg(), cfg) as service:
            results = service.run()
        assert results == {}
        assert service.round == 2

    def test_request_stop_breaks_the_loop(self, tmp_path):
        with Service(self.specs(tmp_path), sim_cfg()) as service:
            service.request_stop()
            results = service.run()
        assert results == {}


class TestServiceCheckpointResume:
    def run_uninterrupted(self, tmp_path):
        with Service(TestServiceRun.specs(tmp_path), sim_cfg()) as svc:
            return svc.run()

    def test_kill_resume_bit_identical(self, tmp_path):
        baseline = self.run_uninterrupted(tmp_path)
        ckpt_dir = tmp_path / "ckpt"
        cfg = ServiceConfig(checkpoint_every=2, checkpoint_dir=str(ckpt_dir),
                            max_rounds=3)
        with Service(TestServiceRun.specs(tmp_path), sim_cfg(), cfg) as svc:
            partial = svc.run()
        assert partial == {}  # nothing finished in three rounds
        # The kill: the service object is gone, only the checkpoint
        # set (written at round 2) survives.
        resumed = Service.resume(ckpt_dir, max_rounds=0)
        with resumed:
            results = resumed.run()
        assert resumed.round > 3
        assert_results_bit_identical(baseline, results)

    def test_resume_overrides_only_what_was_asked(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(ckpt_dir),
                            max_rounds=1, poll_interval_s=0.25)
        with Service(TestServiceRun.specs(tmp_path), sim_cfg(), cfg) as svc:
            svc.run()
        resumed = Service.resume(ckpt_dir, max_rounds=7)
        with resumed:
            assert resumed.config.max_rounds == 7
            assert resumed.config.poll_interval_s == 0.25
            assert resumed.config.checkpoint_every == 1
            assert resumed.round == 1
            assert resumed.sim_config.chunk_size == CHUNK

    def test_resume_rejects_truncated_source(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        path = write_trace(tmp_path, "s.rtrace", 6, seed=3)
        cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(ckpt_dir),
                            max_rounds=2)
        spec = StreamSpec("s", str(path), budget=2 * CHUNK)
        with Service([spec], sim_cfg(), cfg) as svc:
            svc.run()
        # Replace the trace with a shorter one: the checkpoint has
        # consumed more chunks than the file now holds.
        write_trace(tmp_path, "s.rtrace", 1, seed=3)
        with pytest.raises(CheckpointError, match="holds only"):
            Service.resume(ckpt_dir)

    def test_resume_mid_buffer_is_bit_identical(self, tmp_path):
        """Trace chunks twice the epoch size and a three-epoch buffer:
        every checkpoint catches the buffer holding several chunks, the
        first of them half consumed, and the resumed run re-reads them
        from the trace."""
        wl = uniform_workload(footprint_pages=2048, seed=41)
        path = record(wl, 12 * CHUNK, tmp_path / "s.rtrace",
                      chunk_size=2 * CHUNK)
        spec = StreamSpec("s", str(path), budget=CHUNK)
        with Service([spec], sim_cfg()) as svc:
            baseline = svc.run()
        ckpt_dir = tmp_path / "ckpt"
        cfg = ServiceConfig(buffer_capacity=3 * CHUNK, checkpoint_every=1,
                            checkpoint_dir=str(ckpt_dir), max_rounds=3)
        with Service([spec], sim_cfg(), cfg) as svc:
            svc.run()
            wl_live = svc.streams[0].workload
            assert wl_live._head == CHUNK and wl_live.chunks_held == 2
        resumed = Service.resume(ckpt_dir, max_rounds=0)
        with resumed:
            assert resumed.streams[0].workload.buffered == wl_live.buffered
            results = resumed.run()
        assert_results_bit_identical(baseline, results)

    @pytest.mark.parametrize("damage", ("cut", "shorter", "rechunked"))
    def test_resume_rejects_a_source_short_inside_the_buffer(
        self, tmp_path, damage
    ):
        """The checkpoint read six chunks and buffered the last five.
        Skipping to the first buffered chunk still succeeds; reading
        the buffer back must not."""
        ckpt_dir = tmp_path / "ckpt"
        path = write_trace(tmp_path, "s.rtrace", 6, seed=3)
        cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(ckpt_dir),
                            max_rounds=1)
        spec = StreamSpec("s", str(path), budget=CHUNK)
        with Service([spec], sim_cfg(), cfg) as svc:
            svc.run()
            assert svc.streams[0].source.chunks_read == 6
            assert svc.streams[0].workload.chunks_held == 5
        if damage == "cut":  # the tail of chunk 3 onward never landed
            with TraceReader(path) as r:
                r.skip(3)
                cut = r._fh.tell() + 10
            path.write_bytes(path.read_bytes()[:cut])
            match = "holds only 3 of the 6"
        elif damage == "shorter":
            write_trace(tmp_path, "s.rtrace", 4, seed=3)
            match = "holds only 4 of the 6"
        else:  # same addresses, other chunk boundaries
            record(uniform_workload(footprint_pages=2048, seed=3),
                   6 * CHUNK, path, chunk_size=CHUNK // 2)
            match = "does not match the checkpoint's buffer"
        with TraceReader(path) as r:
            assert r.skip(1) == 1  # repositioning alone would succeed
        with pytest.raises(CheckpointError, match=f"stream 's'.*{match}"):
            Service.resume(ckpt_dir)

    def test_resume_rejects_a_damaged_source(self, tmp_path):
        """Repositioning walks the consumed blocks: a damaged length
        field there is corruption, not "the trace got shorter"."""
        ckpt_dir = tmp_path / "ckpt"
        path = write_trace(tmp_path, "s.rtrace", 6, seed=3)
        cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(ckpt_dir),
                            max_rounds=2)
        spec = StreamSpec("s", str(path), budget=2 * CHUNK)
        with Service([spec], sim_cfg(), cfg) as svc:
            svc.run()
        with TraceReader(path) as r:
            first = r._fh.tell()
        data = bytearray(path.read_bytes())
        data[first + 4] ^= 0x01  # high byte of chunk 0's length
        path.write_bytes(bytes(data))
        with pytest.raises(TraceCorruptError, match="sealed"):
            Service.resume(ckpt_dir)

    def test_resume_rejects_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            Service.resume(tmp_path / "nowhere")

    def test_resume_rejects_unknown_format(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        with open(ckpt_dir / "service.ckpt", "wb") as fh:
            pickle.dump({"format": 99, "kind": "service"}, fh)
        with pytest.raises(CheckpointError, match="format 99 "):
            Service.resume(ckpt_dir)

    def test_resume_rejects_a_simulation_checkpoint(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        path = write_trace(tmp_path, "s.rtrace", 2, seed=7)
        with Service([StreamSpec("s", str(path))], sim_cfg()) as svc:
            stream = svc.streams[0]
            stream.sim.save_state(ckpt_dir / "service.ckpt", stream.st)
        with pytest.raises(CheckpointError, match="'simulation' checkpoint"):
            Service.resume(ckpt_dir)

    def test_resume_restores_finished_results(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        tiny = write_trace(tmp_path, "tiny.rtrace", 1, seed=4)
        big = write_trace(tmp_path, "big.rtrace", 10, seed=5)
        specs = [StreamSpec("tiny", str(tiny), budget=2 * CHUNK),
                 StreamSpec("big", str(big), budget=CHUNK)]
        with Service(specs, sim_cfg()) as svc:
            baseline = svc.run()
        cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(ckpt_dir),
                            max_rounds=3)
        with Service(specs, sim_cfg(), cfg) as svc:
            svc.run()
            assert "tiny" in svc.results  # drained and finalized
        resumed = Service.resume(ckpt_dir, max_rounds=0)
        with resumed:
            assert set(resumed.results) == {"tiny"}
            assert [s.name for s in resumed.streams] == ["big"]
            results = resumed.run()
        assert_results_bit_identical(baseline, results)

    def test_checkpoint_is_one_file(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        path = write_trace(tmp_path, "s.rtrace", 4, seed=6)
        cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(ckpt_dir),
                            max_rounds=2)
        with Service([StreamSpec("s", str(path))], sim_cfg(), cfg) as svc:
            svc.run()
        assert svc.checkpoints_written == 2
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["service.ckpt"]

    def test_kill_after_every_replace_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """A kill right after any ``os.replace`` of a checkpointing run
        resumes bit-identically.  The small ingest buffer makes
        ``chunks_read`` differ between checkpoints, so a resume that
        paired one checkpoint's engine state with another's chunk
        count would consume chunks twice and diverge."""
        baseline = self.run_uninterrupted(tmp_path)
        cfg = dict(buffer_capacity=2 * CHUNK, checkpoint_every=2,
                   max_rounds=4)
        real_replace = os.replace
        replaces = []

        def counting_replace(src, dst):
            real_replace(src, dst)
            replaces.append(dst)
            if len(replaces) == kill_at:
                raise Killed

        monkeypatch.setattr(os, "replace", counting_replace)
        kill_at = 0
        with Service(TestServiceRun.specs(tmp_path), sim_cfg(),
                     ServiceConfig(checkpoint_dir=str(tmp_path / "count"),
                                   **cfg)) as svc:
            svc.run()
        total, failures = len(replaces), {}
        for kill_at in range(1, total + 1):
            replaces.clear()
            ckpt_dir = tmp_path / f"kill{kill_at}"
            with pytest.raises(Killed):
                with Service(TestServiceRun.specs(tmp_path), sim_cfg(),
                             ServiceConfig(checkpoint_dir=str(ckpt_dir),
                                           **cfg)) as svc:
                    svc.run()
            try:
                with Service.resume(ckpt_dir, max_rounds=0) as resumed:
                    assert_results_bit_identical(baseline, resumed.run())
            except (AssertionError, CheckpointError) as exc:
                failures[kill_at] = str(exc).splitlines()[0]
        assert failures == {}


class Killed(BaseException):
    """A kill injected right after an ``os.replace``."""


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """{kind: bytes} of one service and one simulation checkpoint."""
    root = tmp_path_factory.mktemp("ckpt")
    cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(root),
                        max_rounds=1)
    with Service(TestServiceRun.specs(root), sim_cfg(), cfg) as svc:
        svc.run()
        stream = svc.streams[0]
        stream.sim.save_state(root / "sim.ckpt", stream.st)
    return {"service": (root / "service.ckpt").read_bytes(),
            "simulation": (root / "sim.ckpt").read_bytes()}


class TestCheckpointTruncation:
    """Every cut of a checkpoint file fails loudly with
    :class:`CheckpointError`, never a raw unpickling error."""

    @pytest.mark.parametrize("kind", ["simulation", "service"])
    @settings(max_examples=60, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_every_truncation_raises_checkpoint_error(
        self, kind, cut, checkpoint_bytes, tmp_path_factory
    ):
        data = checkpoint_bytes[kind]
        ckpt_dir = tmp_path_factory.getbasetemp() / f"cut-{kind}"
        ckpt_dir.mkdir(exist_ok=True)
        truncated = ckpt_dir / "service.ckpt"
        truncated.write_bytes(data[:int(cut * len(data))])
        with pytest.raises(CheckpointError, match="truncated"):
            if kind == "simulation":
                Simulation.load_state(truncated)
            else:
                Service.resume(ckpt_dir)


def load_checkpoint(kind, ckpt_dir):
    """Load ``ckpt_dir/service.ckpt`` as a ``kind`` checkpoint; return
    the loaded state re-pickled, so two loads compare byte for byte."""
    path = ckpt_dir / "service.ckpt"
    if kind == "simulation":
        return pickle.dumps(Simulation.load_state(path))
    with Service.resume(ckpt_dir) as svc:
        return pickle.dumps((
            svc.round, svc.checkpoints_written, svc.sim_config, svc.config,
            svc.results,
            [(s.spec, s.source.chunks_read, s.sim, s.st, s.workload.buffered)
             for s in svc.streams],
        ))


class TestCheckpointByteFlips:
    """One flipped byte anywhere in a checkpoint either fails loudly
    with a :class:`CheckpointError` that calls the file corrupt, or
    loads exactly what the intact file loads.  Without the trailer's
    CRC a flip inside a pickled array loads silently."""

    @pytest.fixture(scope="class")
    def intact(self, checkpoint_bytes, tmp_path_factory):
        loaded = {}
        for kind, blob in checkpoint_bytes.items():
            ckpt_dir = tmp_path_factory.mktemp(f"intact-{kind}")
            (ckpt_dir / "service.ckpt").write_bytes(blob)
            loaded[kind] = load_checkpoint(kind, ckpt_dir)
        return loaded

    @pytest.mark.parametrize("kind", ["simulation", "service"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_flipped_byte_fails_loudly_or_loads_identically(
        self, kind, data, checkpoint_bytes, intact, tmp_path_factory
    ):
        blob = checkpoint_bytes[kind]
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        xor = data.draw(st.integers(1, 255), label="xor")
        damaged = bytearray(blob)
        damaged[pos] ^= xor
        ckpt_dir = tmp_path_factory.getbasetemp() / f"flip-{kind}"
        ckpt_dir.mkdir(exist_ok=True)
        (ckpt_dir / "service.ckpt").write_bytes(bytes(damaged))
        try:
            loaded = load_checkpoint(kind, ckpt_dir)
        except CheckpointError as exc:
            assert " corrupt" in str(exc), str(exc)
            return
        assert loaded == intact[kind]


class TestServiceTailsLiveSource:
    def test_resume_continues_a_growing_trace(self, tmp_path):
        """Producer still appending at checkpoint time; the appended
        tail is consumed after resume, and the final result matches a
        run over the sealed file."""
        wl = uniform_workload(footprint_pages=2048, seed=31)
        chunks = [wl.trace(CHUNK) for _ in range(4)]
        live = tmp_path / "live.rtrace"
        writer = TraceWriter(live, wl.spec)
        writer.append(chunks[0])
        writer.append(chunks[1])

        ckpt_dir = tmp_path / "ckpt"
        spec = StreamSpec("live", str(live), budget=2 * CHUNK)
        cfg = ServiceConfig(checkpoint_every=1, checkpoint_dir=str(ckpt_dir),
                            max_rounds=2, poll_interval_s=0.0)
        with Service([spec], sim_cfg(), cfg) as svc:
            assert svc.run() == {}  # in flight: nothing finished
            consumed_early = svc.streams[0].workload.consumed_total
        assert consumed_early == 2 * CHUNK

        writer.append(chunks[2])
        writer.append(chunks[3])
        writer.close()

        resumed = Service.resume(ckpt_dir, max_rounds=0)
        with resumed:
            results = resumed.run()
        assert set(results) == {"live"}

        # Same file, sealed from the start, never interrupted: the
        # tail-then-resume run must land on the identical result
        # (epoch boundaries match because the file chunking equals
        # the engine chunking).
        with Service([StreamSpec("live", str(live), budget=2 * CHUNK)],
                     sim_cfg()) as sealed:
            baseline = sealed.run()
        assert_results_bit_identical(baseline, results)
