"""Stage tracing: nestable spans over the pipeline's hot paths.

A :class:`Tracer` times named regions of the run in both wall-clock
(``time.perf_counter``) and — when the engine wires its simulated
clock in — simulated time.  Spans nest: the engine opens one ``run``
root span, each pipeline stage (``stage.trace`` … ``stage.checkpoint``)
is a child, and the async migration tick appears as a grandchild
under ``stage.migrate``, so the per-run *flame table* attributes
every wall-clock second to the stage that burned it.

Completed spans can optionally be published to the run's
:class:`~repro.sim.telemetry.TelemetryBus` (``stage="span"`` events),
and the whole span list exports to a Chrome ``trace_event`` JSON via
:mod:`repro.obs.exporters` for chrome://tracing / Perfetto.

The engine times its stages by wrapping each one in a
:class:`TimedStage` when the stage tuple is built, and only when
observability is on; with it off the stages run unwrapped, so no span
is opened and no clock is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class SpanRecord:
    """One completed span."""

    name: str
    #: Wall-clock start relative to the tracer's origin, seconds.
    start_wall_s: float
    dur_wall_s: float
    #: Simulated-clock window (0.0 when no sim clock was wired in).
    start_sim_s: float
    dur_sim_s: float
    depth: int
    epoch: int
    #: Wall-clock seconds spent in child spans (self = dur - child).
    child_wall_s: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def self_wall_s(self) -> float:
        return max(0.0, self.dur_wall_s - self.child_wall_s)


class _NullSpan:
    """Shared no-op context manager for disabled tracers."""

    __slots__ = ()
    dur_wall_s = 0.0

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """A live timed region; use via ``with tracer.span(name):``."""

    __slots__ = (
        "tracer", "name", "attrs", "depth", "epoch",
        "_t0", "_sim0", "_child_wall_s", "dur_wall_s",
    )

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, float]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.epoch = 0
        self._t0 = 0.0
        self._sim0 = 0.0
        self._child_wall_s = 0.0
        self.dur_wall_s = 0.0

    def set(self, **attrs) -> None:
        """Attach payload fields (exported into the Chrome trace)."""
        self.attrs.update(attrs)

    def __enter__(self) -> Span:
        tr = self.tracer
        self.depth = len(tr._stack)
        self.epoch = tr.current_epoch
        tr._stack.append(self)
        self._sim0 = tr._sim_now()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        tr = self.tracer
        self.dur_wall_s = t1 - self._t0
        tr._stack.pop()
        if tr._stack:
            tr._stack[-1]._child_wall_s += self.dur_wall_s
        record = SpanRecord(
            name=self.name,
            start_wall_s=self._t0 - tr.origin,
            dur_wall_s=self.dur_wall_s,
            start_sim_s=self._sim0,
            dur_sim_s=max(0.0, tr._sim_now() - self._sim0),
            depth=self.depth,
            epoch=self.epoch,
            child_wall_s=self._child_wall_s,
            attrs=self.attrs,
        )
        tr.spans.append(record)
        bus = tr.bus
        if bus is not None and bus.active and tr.publish_spans:
            bus.publish(
                "span",
                record.epoch,
                record.start_sim_s,
                name=record.name,
                wall_us=record.dur_wall_s * 1e6,
                depth=record.depth,
            )


class SimClock:
    """Picklable simulated-clock binding for :attr:`Tracer.sim_clock`.

    The engine points the tracer at its epoch state with an instance
    of this class rather than a ``lambda: st.now_s`` closure: the
    tracer rides inside checkpoint pickles, and a lambda on the
    attribute would fail the first ``pickle.dump`` it meets.
    """

    __slots__ = ("_state",)

    def __init__(self, state) -> None:
        self._state = state

    def __call__(self) -> float:
        return float(self._state.now_s)


class TimedStage:
    """A pipeline stage wrapped in its ``stage.<name>`` span and its
    ``pipeline_stage_seconds{stage=<name>}`` observation.

    A class rather than a closure for the same reason as
    :class:`SimClock`: the stage tuple rides inside checkpoint pickles.
    """

    __slots__ = ("fn", "span_name", "tracer", "hist")

    def __init__(self, fn: Callable, name: str, tracer: "Tracer", hist) -> None:
        self.fn = fn
        self.span_name = f"stage.{name}"
        self.tracer = tracer
        self.hist = hist

    def __call__(self, *args) -> None:
        t0 = time.perf_counter()
        with self.tracer.span(self.span_name):
            self.fn(*args)
        self.hist.observe(time.perf_counter() - t0)


class Tracer:
    """Collects :class:`SpanRecord` objects for one run.

    Args:
        enabled: a disabled tracer returns a shared no-op span.
        bus: optional telemetry bus; completed spans publish
            ``stage="span"`` events onto it (see ``publish_spans``).
    """

    def __init__(self, enabled: bool = True, bus=None):
        self.enabled = bool(enabled)
        self.bus = bus
        #: Publish completed spans onto ``bus`` (needs an active bus).
        self.publish_spans = True
        self.spans: List[SpanRecord] = []
        self.origin = time.perf_counter()
        #: Current epoch, stamped onto spans (the engine maintains it).
        self.current_epoch = 0
        #: Simulated clock; the engine wires a :class:`SimClock`.
        self.sim_clock: Optional[Callable[[], float]] = None
        self._stack: List[Span] = []

    def _sim_now(self) -> float:
        return self.sim_clock() if self.sim_clock is not None else 0.0

    def span(self, name: str, **attrs):
        """Open a nestable timed region as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------
    # aggregation

    def flame_table(self) -> List[Dict[str, float]]:
        """Per-span-name aggregate: where the run's wall-clock went.

        One row per span name with ``count``, ``total_s`` (inclusive
        wall), ``self_s`` (exclusive wall), ``total_sim_s``, sorted by
        inclusive time descending.  ``total_s`` of the stage rows sums
        to (almost exactly) the root span's duration, which is the
        run's measured wall-clock.
        """
        rows: Dict[str, Dict[str, float]] = {}
        for r in self.spans:
            row = rows.setdefault(
                r.name,
                {"name": r.name, "count": 0.0, "total_s": 0.0,
                 "self_s": 0.0, "total_sim_s": 0.0},
            )
            row["count"] += 1
            row["total_s"] += r.dur_wall_s
            row["self_s"] += r.self_wall_s
            row["total_sim_s"] += r.dur_sim_s
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
