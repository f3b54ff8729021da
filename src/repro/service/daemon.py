"""The streaming service daemon behind ``repro serve``.

A :class:`Service` multiplexes N concurrent trace streams onto the
epoch engine: every stream is its own :class:`~repro.sim.Simulation`
(own policy, own metrics registry, own telemetry ring) fed from a
chunked trace stream (:class:`~repro.workloads.TraceReader`), which
the daemon can tail while a producer is still appending.  A
deterministic round-robin scheduler drives each stream up to its
per-round access *budget*, ingestion applies the bounded-queue
backpressure discipline (:mod:`repro.service.streams`), and the
merged per-stream metrics are served live through
:class:`~repro.obs.live.ObsServer` under a ``stream`` label.

Checkpoint/resume: every ``checkpoint_every`` scheduler rounds the
service persists its whole state — the round counter, both configs,
the results of already finished streams, and each live stream's
engine state and source chunk ordinal — as one ``service.ckpt``
envelope (:func:`~repro.sim.engine.write_checkpoint`).  One atomic
replace publishes all of it, so a kill at any instant leaves either
the previous checkpoint or the new one.  Resuming re-opens each
source, repositions it with :meth:`~repro.workloads.TraceReader.skip`,
and continues; with complete (sealed) sources the resumed service's
final per-stream results are bit-identical to an uninterrupted run —
the scheduler has no wall-clock inputs, so the only nondeterminism
possible is a source that was still growing.
"""

from __future__ import annotations

import dataclasses
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import MetricsRegistry, Observability
from repro.service.streams import StreamWorkload
from repro.sim.config import SimConfig
from repro.sim.engine import (
    CheckpointError,
    RunResult,
    Simulation,
    read_checkpoint,
    write_checkpoint,
)
from repro.workloads.traceio import TraceReader

#: The one file a service checkpoint directory holds.
CHECKPOINT_FILE = "service.ckpt"


@dataclass
class StreamSpec:
    """One stream's static description.

    Attributes:
        name: unique stream label (appears on every metric series).
        trace: path to the source trace stream.
        policy: page-migration policy this stream runs.
        budget: accesses the scheduler drives per round — the
            per-stream fairness knob (a stream with twice the budget
            gets twice the engine throughput).
    """

    name: str
    trace: str
    policy: str = "m5-hpt"
    budget: int = 65_536

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stream name must be non-empty")
        if "/" in self.name or self.name in (".", ".."):
            raise ValueError(f"stream name {self.name!r} must be a plain "
                             "label, not a path")
        if self.budget < 1:
            raise ValueError("stream budget must be positive")


@dataclass
class ServiceConfig:
    """Daemon-level knobs (engine knobs stay on :class:`SimConfig`).

    Attributes:
        buffer_capacity: per-stream ingest buffer bound, in addresses;
            a full buffer back-pressures ingestion (the file is the
            overflow queue, nothing is dropped).
        checkpoint_every: scheduler rounds between checkpoints
            (0 disables).
        checkpoint_dir: directory the checkpoint file lives in.
        poll_interval_s: sleep between rounds when no stream made
            progress (all buffers empty, sources still in flight).
        max_rounds: stop after this many rounds even with streams
            unfinished (0 = run until all streams finish); the bounded
            mode tests and one-shot drains use.
    """

    buffer_capacity: int = 1 << 20
    checkpoint_every: int = 0
    checkpoint_dir: str = ""
    poll_interval_s: float = 0.05
    max_rounds: int = 0

    def __post_init__(self) -> None:
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError("checkpoint_every > 0 requires checkpoint_dir")
        if self.poll_interval_s < 0:
            raise ValueError("poll_interval_s must be non-negative")


class ServiceStream:
    """One live stream: source → buffer → engine, plus bookkeeping."""

    def __init__(
        self,
        spec: StreamSpec,
        sim_config: SimConfig,
        buffer_capacity: int,
    ) -> None:
        self.spec = spec
        self.source = TraceReader(spec.trace)
        workload = StreamWorkload(self.source.spec, capacity=buffer_capacity)
        self.sim = Simulation(
            workload,
            sim_config,
            policy=spec.policy,
            obs=Observability(metrics=True, tracing=False),
        )
        self.st = self.sim._initial_state()
        # The engine budgets a fresh state with the config's trace
        # length; the scheduler owns the budget here, one round at a
        # time, so the stream starts paused.
        self.st.remaining = 0
        self.policy = self.sim.epoch_policy
        self.result: Optional[RunResult] = None

    # -- restore path ---------------------------------------------------

    @classmethod
    def _restored(cls, spec: StreamSpec, chunks_read: int, sim: Simulation,
                  st) -> "ServiceStream":
        stream = cls.__new__(cls)
        stream.spec = spec
        stream.source = TraceReader(spec.trace)
        skipped = stream.source.skip(chunks_read)
        if skipped != chunks_read:
            raise CheckpointError(
                f"stream {spec.name!r}: source {spec.trace} holds only "
                f"{skipped} of the {chunks_read} chunks the checkpoint "
                "had consumed (trace truncated or replaced?)"
            )
        stream.sim = sim
        stream.st = st
        stream.policy = sim.epoch_policy
        stream.result = None
        return stream

    # -- scheduler hooks ------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def workload(self) -> StreamWorkload:
        return self.sim.workload

    @property
    def finished(self) -> bool:
        return self.result is not None

    def ingest(self) -> bool:
        """Pull source chunks until the buffer is full or the source
        has nothing more on disk.  Returns True if anything arrived."""
        got = False
        while self.workload.free > 0:
            chunk = self.source.read_next()
            if chunk is None:
                break
            self.workload.feed(chunk)
            got = True
        return got

    def drive(self) -> int:
        """Run up to one budget's worth of buffered accesses through
        the engine; returns the number of accesses consumed."""
        n = min(self.spec.budget, self.workload.buffered)
        if n <= 0:
            return 0
        self.st.remaining = n
        while self.st.remaining > 0:
            self.sim.step_epoch(self.st, self.policy)
        return n

    @property
    def drained(self) -> bool:
        """Source sealed and every buffered address consumed."""
        return self.source.complete and self.workload.buffered == 0

    def finish(self) -> RunResult:
        self.result = self.sim.finalize(self.st)
        self.source.close()
        return self.result

    def close(self) -> None:
        self.source.close()


class Service:
    """The daemon: N streams, one deterministic scheduler.

    Build one from stream specs (fresh) or :meth:`resume` (from a
    checkpoint directory), then call :meth:`run`.  The optional HTTP
    endpoint is the caller's to manage — :meth:`snapshot` is the
    merged, ``stream``-labelled metrics source an
    :class:`~repro.obs.ObsServer` serves.
    """

    def __init__(
        self,
        streams: List[StreamSpec],
        sim_config: Optional[SimConfig] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        if not streams:
            raise ValueError("a service needs at least one stream")
        names = [s.name for s in streams]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stream names in {names}")
        self.sim_config = sim_config if sim_config is not None else SimConfig()
        if self.sim_config.checkpoint_every > 0:
            raise ValueError(
                "the service owns checkpointing (ServiceConfig."
                "checkpoint_every); leave SimConfig.checkpoint_every at 0"
            )
        self.config = config if config is not None else ServiceConfig()
        self.streams = [
            ServiceStream(s, self.sim_config, self.config.buffer_capacity)
            for s in streams
        ]
        self.round = 0
        self.results: Dict[str, RunResult] = {}
        self._stop_requested = False
        self.checkpoints_written = 0
        self._init_metrics()

    # ------------------------------------------------------------------
    # construction from a checkpoint

    @classmethod
    def resume(
        cls, checkpoint_dir: Union[str, Path], **config_overrides: object
    ) -> "Service":
        """Rebuild a service from its checkpoint directory.

        ``config_overrides`` replace individual :class:`ServiceConfig`
        fields for the resumed session (e.g. ``max_rounds=0`` to run a
        previously round-capped service to completion); everything the
        engine state depends on comes from the checkpoint.
        """
        state = read_checkpoint(Path(checkpoint_dir) / CHECKPOINT_FILE,
                                "service")
        service = cls.__new__(cls)
        service.sim_config = state["sim_config"]
        service.config = dataclasses.replace(state["config"],
                                             **config_overrides)
        service.round = state["round"]
        service.checkpoints_written = state["checkpoints_written"]
        service._stop_requested = False
        service.results = state["results"]
        service.streams = [ServiceStream._restored(*entry)
                           for entry in state["streams"]]
        service._init_metrics()
        return service

    # ------------------------------------------------------------------
    # metrics

    def _init_metrics(self) -> None:
        self.registry = MetricsRegistry(enabled=True)
        self._mx_rounds = self.registry.counter(
            "service_rounds_total", "Scheduler rounds completed")
        self._mx_ckpts = self.registry.counter(
            "service_checkpoints_total", "Service checkpoints written")
        self._mx_active = self.registry.gauge(
            "service_streams_active", "Streams not yet finished")
        self._mx_buffered = self.registry.gauge(
            "service_stream_buffered", "Addresses waiting in the ingest "
            "buffer", labels=("stream",))
        self._mx_consumed = self.registry.counter(
            "service_stream_accesses_total", "Accesses driven through the "
            "engine", labels=("stream",))
        self._mx_active.set(len(self.streams))

    def snapshot(self) -> Dict[str, object]:
        """Service + per-stream metrics, merged under ``stream=``."""
        merged = MetricsRegistry(enabled=True)
        merged.merge(self.registry.snapshot())
        for stream in self.streams:
            merged.merge(
                stream.sim.obs.registry.snapshot(),
                extra_labels={"stream": stream.name},
            )
        return merged.snapshot()

    # ------------------------------------------------------------------
    # the scheduler

    def request_stop(self) -> None:
        """Ask the run loop to checkpoint (if configured) and return.
        Signal-handler safe: sets a flag, does no work itself."""
        self._stop_requested = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful stop (checkpoint, then exit)."""
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda *_: self.request_stop())

    @property
    def active_streams(self) -> List[ServiceStream]:
        return [s for s in self.streams if not s.finished]

    def run(self) -> Dict[str, RunResult]:
        """Drive every stream to completion (or until stopped).

        Returns the per-stream results accumulated so far; a stopped
        or round-capped run returns only the finished streams' results
        and leaves the rest checkpointed (if configured).
        """
        cfg = self.config
        while True:
            active = self.active_streams
            if not active or self._stop_requested:
                break
            self.round += 1
            progressed = False
            for stream in active:
                if stream.ingest():
                    progressed = True
                consumed = stream.drive()
                if consumed > 0:
                    progressed = True
                    self._mx_consumed.labels(stream=stream.name).inc(consumed)
                elif stream.drained:
                    self.results[stream.name] = stream.finish()
                    progressed = True
                self._mx_buffered.labels(stream=stream.name).set(
                    stream.workload.buffered)
            self._mx_rounds.inc()
            self._mx_active.set(len(self.active_streams))
            if cfg.checkpoint_every and self.round % cfg.checkpoint_every == 0:
                self.checkpoint()
            if cfg.max_rounds and self.round >= cfg.max_rounds:
                break
            if not progressed and cfg.poll_interval_s > 0:
                # Every live source is mid-append with nothing new on
                # disk; idle briefly instead of spinning on the files.
                time.sleep(cfg.poll_interval_s)
        if self._stop_requested and cfg.checkpoint_every:
            self.checkpoint()
        return dict(self.results)

    # ------------------------------------------------------------------
    # checkpointing

    def checkpoint(self) -> Path:
        """Persist the whole service state as one file.

        ``service.ckpt`` holds the round counter, both configs, the
        finished streams' results, and one ``(spec, chunks_read, sim,
        epoch_state)`` tuple per live stream, published by a single
        atomic replace.  Only those tuples are pickled, never a
        :class:`ServiceStream` or the service itself: sources hold
        open file handles, and profilers wrap methods on those
        instances.
        """
        ckpt_dir = Path(self.config.checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        path = ckpt_dir / CHECKPOINT_FILE
        self.checkpoints_written += 1
        write_checkpoint(path, "service", {
            "round": self.round,
            "checkpoints_written": self.checkpoints_written,
            "sim_config": self.sim_config,
            "config": self.config,
            "results": self.results,
            "streams": [(s.spec, s.source.chunks_read, s.sim, s.st)
                        for s in self.active_streams],
        })
        self._mx_ckpts.inc()
        return path

    def close(self) -> None:
        for stream in self.streams:
            stream.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

