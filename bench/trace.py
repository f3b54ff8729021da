"""Outside-in span tracer: per-layer self time without touching ``src/``.

The tracer wraps *public* callables of the simulator's objects, so a
layer's span starts when the benchmark-visible call into it starts and
ends when that call returns.  Spans nest on a stack; a span's self
time is its duration minus the time of the spans it directly encloses,
so the self times of all spans add up to the traced time exactly.

Only the traced child installs wrappers, and never on an object that a
checkpoint pickles: a wrapper is a closure, and a closure inside the
``Simulation`` object graph makes ``save_state`` fail.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List


class Tracer:
    """A span stack accumulating self time and call counts per name.

    Args:
        clock: monotonic seconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # Open spans: [name, start, time spent in child spans].
        self._stack: List[list] = []
        self._restore: List[Callable[[], None]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span called ``name``."""
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = self.clock() - frame[1]
            self._stack.pop()
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call timed as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def instrument(self, obj: Any, method: str, name: str) -> None:
        """Wrap one bound method on one instance (undone by :meth:`restore`)."""
        had_own = method in vars(obj)
        original = vars(obj).get(method)
        setattr(obj, method, self.wrap(getattr(obj, method), name))

        def undo() -> None:
            if had_own:
                setattr(obj, method, original)
            else:
                delattr(obj, method)

        self._restore.append(undo)

    def instrument_class(self, cls: type, method: str, name: str) -> None:
        """Wrap a method for every instance of ``cls``, including
        instances created later (undone by :meth:`restore`)."""
        original = vars(cls)[method]
        setattr(cls, method, self.wrap(original, name))
        self._restore.append(lambda: setattr(cls, method, original))

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._restore:
            self._restore.pop()()

    def coverage(self, wall_s: float, exclude: tuple = ()) -> float:
        """Share of ``wall_s`` that the named spans account for.

        Spans in ``exclude`` (a root span's own bookkeeping) do not
        count as covered time.
        """
        if wall_s <= 0:
            raise ValueError("wall time must be positive")
        covered = sum(s for name, s in self.self_s.items() if name not in exclude)
        return covered / wall_s
