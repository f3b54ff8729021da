"""Metrics registry: counters, gauges, and log2-bucket histograms.

The pipeline's components (engine, M5 manager, the async migration
engine, the CXL controller) register their instruments into one
:class:`MetricsRegistry` per run.  Three metric kinds exist:

* :class:`Counter` — monotonically increasing total;
* :class:`Gauge` — a value that can go up and down (queue depth,
  resident pages);
* :class:`Histogram` — fixed power-of-two buckets (``le`` semantics),
  plus ``sum`` and ``count``, so latency distributions export to
  Prometheus without any quantile estimation at runtime.

Metrics are registered as *families* — a name, a help string, and a
tuple of label names — and instantiated per label combination with
:meth:`MetricFamily.labels`.  A family with no labels acts as its own
single series (``family.inc()`` works directly), which keeps call
sites terse.

**Disabled registries are free.**  A registry constructed with
``enabled=False`` hands out shared null families whose ``inc`` /
``set`` / ``observe`` are empty methods and stores nothing, so
instrumented hot paths never need ``if metrics:`` guards and the
default (observability-off) pipeline stays bit-identical and fast.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def log2_buckets(min_exp: int, max_exp: int) -> Tuple[float, ...]:
    """Histogram bounds ``2**min_exp .. 2**max_exp`` (inclusive).

    Fixed powers of two: cheap to reason about, and two snapshots
    taken with the same exponent range always diff bucket-for-bucket.
    """
    if min_exp > max_exp:
        raise ValueError("min_exp must be <= max_exp")
    return tuple(2.0 ** e for e in range(min_exp, max_exp + 1))


#: Default bounds for wall-clock durations in seconds: ~1 µs to 16 s.
DURATION_BUCKETS = log2_buckets(-20, 4)


class Counter:
    """Monotonic total.  ``inc`` with a negative amount raises."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with ``le`` (at-or-below) semantics.

    ``counts[i]`` is the number of observations in bucket *i*
    (non-cumulative internally; snapshots export the Prometheus
    cumulative form).  Observations above the last bound land in the
    implicit ``+Inf`` bucket.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...] = DURATION_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(le_bound, cumulative_count), ...]`` ending at +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation in-bucket.

        The classic Prometheus ``histogram_quantile`` estimator: find
        the bucket holding the target rank and interpolate linearly
        between its bounds (the first bucket interpolates from 0, the
        +Inf bucket clamps to the last finite bound).  NaN when the
        histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        running = 0
        for i, n in enumerate(self.counts[:-1]):
            running += n
            if running >= target and n > 0:
                hi = self.bounds[i]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                frac = (target - (running - n)) / n
                return lo + (hi - lo) * frac
        # Target rank lands in the +Inf bucket: clamp to the last
        # finite bound (there is no upper edge to interpolate toward).
        return self.bounds[-1]

    def p50(self) -> float:
        return self.quantile(0.50)

    def p95(self) -> float:
        return self.quantile(0.95)

    def p99(self) -> float:
        return self.quantile(0.99)


class _NullMetric:
    """Shared do-nothing instrument handed out by disabled registries."""

    kind = "null"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, *values, **kv) -> _NullMetric:
        return self


NULL_METRIC = _NullMetric()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its per-label-combination series."""

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: Tuple[str, ...] = (),
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._series: Dict[Tuple[str, ...], object] = {}

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or DURATION_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, *values, **kv):
        """The series for one label combination (created on demand).

        Accepts positional values in ``label_names`` order or keyword
        values; a label-less family has exactly one series, fetched
        with no arguments.
        """
        if kv:
            if values:
                raise ValueError("pass labels positionally or by name, not both")
            try:
                values = tuple(str(kv.pop(n)) for n in self.label_names)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r}") from exc
            if kv:
                raise ValueError(f"unknown labels {sorted(kv)}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {values}"
            )
        series = self._series.get(values)
        if series is None:
            series = self._series[values] = self._make()
        return series

    # Label-less convenience: the family proxies its single series.

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def series(self) -> List[Tuple[Dict[str, str], object]]:
        """``[(label_dict, metric), ...]`` in insertion order."""
        return [
            (dict(zip(self.label_names, values)), metric)
            for values, metric in self._series.items()
        ]


class MetricsRegistry:
    """Get-or-create registry of metric families.

    Re-registering an existing name returns the same family (so every
    component can declare its instruments idempotently); re-registering
    with a different kind or label set is an error.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._families: Dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help: str,
        kind: str,
        labels: Iterable[str],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        if not self.enabled:
            return NULL_METRIC
        labels = tuple(labels)
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != labels:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}"
                )
            return family
        family = MetricFamily(name, help, kind, labels, buckets=buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()):
        return self._register(name, help, "counter", labels)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()):
        return self._register(name, help, "gauge", labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        return self._register(name, help, "histogram", labels, buckets=buckets)

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def _widen(
        self, family: MetricFamily, label_names: Tuple[str, ...]
    ) -> None:
        """Extend a family's label set in place (merge support only).

        New label names append in incoming order; every existing
        series is re-keyed with ``""`` for the added labels, so its
        identity (and insertion order) is preserved.
        """
        union = family.label_names + tuple(
            n for n in label_names if n not in family.label_names
        )
        if union == family.label_names:
            return
        pad = ("",) * (len(union) - len(family.label_names))
        family._series = {
            key + pad: metric for key, metric in family._series.items()
        }
        family.label_names = union

    def merge(
        self,
        snapshot: Dict[str, object],
        extra_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Fold a registry ``snapshot()`` into this registry.

        The fleet-aggregation primitive: sweep cells and fleet
        tenants each keep their own registry, and the parent merges
        their snapshot dicts into one registry — optionally widened
        by ``extra_labels`` (e.g. ``{"tenant": "3"}``) so same-named
        series from different cells or tenants stay distinct.  Counters and histograms accumulate; gauges take the
        incoming value (last write wins).  No-op on a disabled
        registry.

        When the same family name arrives with a *different* label set
        (a fleet-scope ``slo_breaches_total{rule=}`` meeting tenant
        ``slo_breaches_total{rule=,tenant=}``), the family is widened
        to the union and series missing a label carry ``""`` for it —
        the Prometheus data model treats an empty label value as the
        label being absent, so identities are preserved.
        """
        if not self.enabled:
            return
        extra = {str(k): str(v) for k, v in (extra_labels or {}).items()}
        for metric in snapshot.get("metrics", []):
            series_list = metric.get("series", [])
            if not series_list:
                continue
            name, kind = metric["name"], metric["kind"]
            label_names = tuple(series_list[0].get("labels", {})) + tuple(extra)
            buckets = None
            if kind == "histogram":
                buckets = tuple(
                    float(le)
                    for le, _ in series_list[0]["buckets"]
                    if le != "+Inf"
                )
            existing = self._families.get(name)
            if (
                existing is not None
                and existing.kind == kind
                and existing.label_names != label_names
            ):
                self._widen(existing, label_names)
                label_names = existing.label_names
            family = self._register(
                name, metric.get("help", ""), kind, label_names,
                buckets=buckets,
            )
            for series in series_list:
                labels = {n: "" for n in family.label_names}
                labels.update(series.get("labels", {}))
                labels.update(extra)
                target = family.labels(**labels)
                if kind == "counter":
                    target.inc(float(series["value"]))
                elif kind == "gauge":
                    target.set(float(series["value"]))
                else:
                    cumulative = [int(n) for _, n in series["buckets"]]
                    previous = 0
                    for i, running in enumerate(cumulative):
                        target.counts[i] += running - previous
                        previous = running
                    target.sum += float(series["sum"])
                    target.count += int(series["count"])

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable dump of every family and series.

        Histograms export Prometheus-style cumulative buckets
        (``[le, cumulative_count]`` pairs, +Inf encoded as the string
        ``"+Inf"`` so the snapshot survives ``json.dumps``).
        """
        metrics: List[Dict[str, object]] = []
        for family in self._families.values():
            series: List[Dict[str, object]] = []
            for labels, metric in family.series():
                if family.kind == "histogram":
                    series.append({
                        "labels": labels,
                        "count": metric.count,
                        "sum": metric.sum,
                        "buckets": [
                            ["+Inf" if le == float("inf") else le, n]
                            for le, n in metric.cumulative()
                        ],
                    })
                else:
                    series.append({"labels": labels, "value": metric.value})
            metrics.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "series": series,
            })
        return {"metrics": metrics}
