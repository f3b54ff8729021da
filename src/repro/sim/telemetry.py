"""Per-epoch telemetry bus for the simulation pipeline.

Pipeline stages publish structured events while a run is in flight —
the per-epoch record and SLO alerts — and any number of *sinks*
consume them.  Two sinks ship with the bus:

* :class:`RingBufferSink` — bounded in-memory history; the engine
  attaches one by default and copies it into ``RunResult.timeline``
  so callers get epoch-resolution data without re-running;
* :class:`JsonlSink` — streams one JSON object per event to a file
  (togglable from the CLI via ``--timeline``), for offline tooling.

Events are plain dicts with three reserved keys — ``stage`` (the
pipeline stage that published), ``epoch`` (1-based), ``t_s`` (the
simulated clock) — plus arbitrary numeric payload fields.  Publishing
with no sinks attached is a cheap no-op, so instrumented code never
needs to guard its publish calls.

Event kinds published by the pipeline: ``epoch`` (the epoch's one
record and the run's one per-epoch table: traffic split, tier
occupancy, promotions/demotions, policy overhead and nominations,
migration time, epoch duration, in async mode the transactional
queue's ``mig_*`` outcomes and depth ``migration_pending`` — select
them with :func:`repro.analysis.timeline.migration_outcomes` — and, at
the measurement points of an identification-only run, the
access-count ``ratio``) and ``alert.<rule>`` (SLO breaches, judged on
the ``epoch`` record; see :mod:`repro.obs.slo`).
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Dict, Iterable, List, Optional, Union

Event = Dict[str, Union[str, int, float]]


class TelemetrySink:
    """Consumer of pipeline events.  Subclasses override :meth:`emit`."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default is a no-op
        """Release any resources (files, sockets).  Idempotent."""


class RingBufferSink(TelemetrySink):
    """Keep the most recent ``capacity`` events in memory.

    Overflow is *counted*, not silent: once the ring is full, every
    new event evicts the oldest and increments :attr:`dropped`.  The
    engine surfaces the count as ``RunResult.timeline_dropped`` (and
    the ``telemetry_ring_dropped_total`` metric), so a truncated
    timeline is always detectable.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._events: deque = deque(maxlen=self.capacity)
        #: Events evicted because the ring was at capacity.
        self.dropped = 0

    def emit(self, event: Event) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


class JsonlSink(TelemetrySink):
    """Append one JSON object per event to a file.

    Accepts a path (opened lazily on first emit, so constructing a
    sink never creates an empty file) or an already-open file object
    (not closed by :meth:`close` unless the sink opened it).

    The stream is flushed every ``flush_every`` events (as well as on
    :meth:`close`), so a run that crashes mid-flight still leaves a
    usable timeline on disk instead of a page of buffered-and-lost
    events.  ``flush_every=0`` disables periodic flushing.

    A path-backed sink survives close/re-emit cycles: the first open
    truncates (``"w"``), every reopen *appends* (``"a"``), so a
    resumed run extends the timeline it left on disk instead of
    destroying it.  For the same reason the sink pickles (checkpoints
    carry the telemetry bus): the file handle is dropped and the next
    emit reopens in append mode.  Sinks wrapping an externally-owned
    file object cannot be pickled.
    """

    def __init__(
        self, path_or_file: Union[str, bytes, IO[str]], flush_every: int = 64
    ) -> None:
        if flush_every < 0:
            raise ValueError("flush_every must be non-negative")
        self._path: Optional[Union[str, bytes]] = None
        self._fh: Optional[IO[str]] = None
        self._owns_fh = False
        #: True once the path was opened (and truncated) at least
        #: once; reopens after that must append, never truncate.
        self._opened_once = False
        self.flush_every = int(flush_every)
        self._emitted = 0
        if isinstance(path_or_file, (str, bytes)):
            self._path = path_or_file
        else:
            self._fh = path_or_file

    @property
    def path(self) -> Optional[Union[str, bytes]]:
        return self._path

    def emit(self, event: Event) -> None:
        if self._fh is None:
            assert self._path is not None
            self._fh = open(self._path, "a" if self._opened_once else "w")
            self._owns_fh = True
            self._opened_once = True
        self._fh.write(json.dumps(event) + "\n")
        self._emitted += 1
        if self.flush_every and self._emitted % self.flush_every == 0:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None and self._owns_fh:
            self._fh.close()
            self._fh = None
            self._owns_fh = False
        elif self._fh is not None:
            self._fh.flush()

    def __getstate__(self) -> Dict[str, Any]:
        if self._path is None:
            raise TypeError(
                "cannot pickle a JsonlSink wrapping an external file "
                "object; construct it from a path to make it "
                "checkpointable"
            )
        if self._fh is not None:
            self._fh.flush()
        state = self.__dict__.copy()
        # The handle is process-local; the restored sink reopens the
        # path lazily in append mode (``_opened_once`` survives).
        state["_fh"] = None
        state["_owns_fh"] = False
        return state


def read_jsonl(path: str) -> List[Event]:
    """Load a JSONL timeline back into a list of events."""
    events: List[Event] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class TelemetryBus:
    """Fan-out from pipeline stages to the attached sinks."""

    def __init__(self, sinks: Iterable[TelemetrySink] = ()) -> None:
        self.sinks: List[TelemetrySink] = list(sinks)

    # ------------------------------------------------------------------
    # sink management

    def attach(self, sink: TelemetrySink) -> TelemetrySink:
        """Register a sink; returns it for chaining."""
        self.sinks.append(sink)
        return sink

    def detach(self, sink: TelemetrySink) -> None:
        self.sinks.remove(sink)

    @property
    def active(self) -> bool:
        """True when at least one sink would see a publish."""
        return bool(self.sinks)

    # ------------------------------------------------------------------
    # publication

    def publish(self, stage: str, epoch: int, t_s: float, **fields: Any) -> None:
        """Publish one event to every sink (no-op with no sinks)."""
        if not self.sinks:
            return
        event: Event = {"stage": stage, "epoch": int(epoch), "t_s": float(t_s)}
        event.update(fields)
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        """Close every sink (flush files)."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        """Close the sinks even when the surrounded run raises, so a
        crashed run still leaves flushed JSONL timelines on disk."""
        self.close()
