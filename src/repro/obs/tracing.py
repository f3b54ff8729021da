"""Stage tracing: nestable spans over the pipeline's hot paths.

A :class:`Tracer` times named regions of the run in wall-clock
(``time.perf_counter``).  Spans nest: the engine opens one ``run``
root span, each pipeline stage (``stage.trace`` … ``stage.perf``)
is a child, and the async migration tick appears as a grandchild
under ``stage.migrate``, so the per-run *flame table* attributes
every wall-clock second to the stage that burned it.  The span list
exports to a Chrome ``trace_event`` JSON via
:mod:`repro.obs.exporters` for chrome://tracing / Perfetto.

Wall time lives only in the spans.  Simulated time lives only in the
engine's per-epoch ``epoch`` telemetry record and the
``sim_time_seconds`` gauge; each span carries the epoch it ran in, so
the two join on the epoch.

The engine times its stages by wrapping each one in a
:class:`TimedStage` when the stage tuple is built, and only when
observability is on; with it off the stages run unwrapped, so no span
is opened and no clock is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass
class SpanRecord:
    """One completed span."""

    name: str
    #: Wall-clock start relative to the tracer's origin, seconds.
    start_wall_s: float
    dur_wall_s: float
    depth: int
    epoch: int
    #: Wall-clock seconds spent in child spans (self = dur - child).
    child_wall_s: float = 0.0

    @property
    def self_wall_s(self) -> float:
        return max(0.0, self.dur_wall_s - self.child_wall_s)


class _NullSpan:
    """Shared no-op context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """A live timed region; use via ``with tracer.span(name):``."""

    __slots__ = (
        "tracer", "name", "depth", "epoch",
        "_t0", "_child_wall_s", "dur_wall_s",
    )

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.depth = 0
        self.epoch = 0
        self._t0 = 0.0
        self._child_wall_s = 0.0
        self.dur_wall_s = 0.0

    def __enter__(self) -> Span:
        tr = self.tracer
        self.depth = len(tr._stack)
        self.epoch = tr.current_epoch
        tr._stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        tr = self.tracer
        self.dur_wall_s = t1 - self._t0
        tr._stack.pop()
        if tr._stack:
            tr._stack[-1]._child_wall_s += self.dur_wall_s
        tr.spans.append(SpanRecord(
            name=self.name,
            start_wall_s=self._t0 - tr.origin,
            dur_wall_s=self.dur_wall_s,
            depth=self.depth,
            epoch=self.epoch,
            child_wall_s=self._child_wall_s,
        ))


class TimedStage:
    """A pipeline stage wrapped in its ``stage.<name>`` span and its
    ``pipeline_stage_seconds{stage=<name>}`` observation.

    Each call reads the clock once on entry and once on exit: with
    tracing on, the span's own pair, whose duration the histogram then
    observes; with tracing off (a metrics-only run), a bare pair.  A
    class rather than a closure because the stage tuple rides inside
    checkpoint pickles.
    """

    __slots__ = ("fn", "span_name", "tracer", "hist")

    def __init__(self, fn: Callable, name: str, tracer: "Tracer", hist) -> None:
        self.fn = fn
        self.span_name = f"stage.{name}"
        self.tracer = tracer
        self.hist = hist

    def __call__(self, *args) -> None:
        if self.tracer.enabled:
            with self.tracer.span(self.span_name) as span:
                self.fn(*args)
            self.hist.observe(span.dur_wall_s)
        else:
            t0 = time.perf_counter()
            self.fn(*args)
            self.hist.observe(time.perf_counter() - t0)


class Tracer:
    """Collects :class:`SpanRecord` objects for one run.

    Args:
        enabled: a disabled tracer returns a shared no-op span.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self.spans: List[SpanRecord] = []
        self.origin = time.perf_counter()
        #: Current epoch, stamped onto spans (the engine maintains it).
        self.current_epoch = 0
        self._stack: List[Span] = []

    def span(self, name: str):
        """Open a nestable timed region as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------
    # aggregation

    def flame_table(self) -> List[Dict[str, float]]:
        """Per-span-name aggregate: where the run's wall-clock went.

        One row per span name with ``count``, ``total_s`` (inclusive
        wall) and ``self_s`` (exclusive wall), sorted by inclusive time
        descending.  ``total_s`` of the stage rows sums
        to (almost exactly) the root span's duration, which is the
        run's measured wall-clock.
        """
        rows: Dict[str, Dict[str, float]] = {}
        for r in self.spans:
            row = rows.setdefault(
                r.name,
                {"name": r.name, "count": 0.0, "total_s": 0.0, "self_s": 0.0},
            )
            row["count"] += 1
            row["total_s"] += r.dur_wall_s
            row["self_s"] += r.self_wall_s
        return sorted(rows.values(), key=lambda r: -r["total_s"])

    def total_wall_s(self, name: str) -> float:
        """Total inclusive wall-clock of every span named ``name``."""
        return sum(r.dur_wall_s for r in self.spans if r.name == name)

    def coverage(self, root: str = "run", depth: int = 1) -> float:
        """Fraction of the root span's wall-clock covered by spans at
        ``depth`` (the per-stage children).  The acceptance bar for
        the pipeline instrumentation is ≥0.95."""
        total = self.total_wall_s(root)
        if total <= 0:
            return 0.0
        covered = sum(r.dur_wall_s for r in self.spans if r.depth == depth)
        return covered / total
