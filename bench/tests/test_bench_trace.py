"""The outside-in tracer, on a fake clock."""

from __future__ import annotations

import pytest

from conftest import load

Tracer = load("trace").Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_self_time_is_total_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        clock.advance(1.0)
        with tracer.span("a"):
            clock.advance(2.0)
            with tracer.span("b"):
                clock.advance(3.0)
            clock.advance(0.5)
        with tracer.span("b"):
            clock.advance(4.0)
        clock.advance(0.25)
    assert tracer.self_s["b"] == pytest.approx(7.0)
    assert tracer.self_s["a"] == pytest.approx(2.5)
    assert tracer.self_s["root"] == pytest.approx(1.25)
    assert tracer.calls == {"root": 1, "a": 1, "b": 2}
    # Self times partition the root span exactly.
    assert sum(tracer.self_s.values()) == pytest.approx(clock.now)


def test_coverage_counts_named_spans_against_wall_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    for _ in range(3):
        with tracer.span("root"):
            clock.advance(0.1)
            with tracer.span("layer"):
                clock.advance(0.9)
    clock.advance(1.0)  # outside every span
    assert tracer.coverage(clock.now) == pytest.approx(0.75)
    assert tracer.coverage(clock.now, exclude=("root",)) == pytest.approx(0.675)
    with pytest.raises(ValueError):
        tracer.coverage(0.0)


def test_wrapped_methods_time_calls_and_restore():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Layer:
        def work(self, seconds):
            clock.advance(seconds)
            return seconds * 2

    class Batch:
        def digest(self):
            clock.advance(0.5)
            return "d"

    layer = Layer()
    tracer.instrument(layer, "work", "layer.work")
    tracer.instrument_class(Batch, "digest", "batch.digest")
    assert layer.work(1.5) == 3.0
    assert Batch().digest() == "d"
    assert tracer.self_s == {"layer.work": 1.5, "batch.digest": 0.5}
    tracer.restore()
    assert "work" not in vars(layer)
    assert "__wrapped__" not in vars(Batch.digest)
    layer.work(1.0)
    assert tracer.calls["layer.work"] == 1


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    traced = tracer.wrap(boom, "boom")
    with tracer.span("root"):
        with pytest.raises(KeyError):
            traced()
        clock.advance(2.0)
    assert tracer.self_s == {"boom": 1.0, "root": 2.0}
