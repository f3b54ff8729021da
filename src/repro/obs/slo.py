"""Declarative SLO rules evaluated over the per-epoch recorder.

A :class:`SloWatchdog` turns the :class:`~repro.obs.timeseries.
TimeSeriesRecorder` into an alerting surface: each epoch it evaluates
a list of :class:`SloRule` objects — *reduce a recorder column over a
window, compare against a threshold, sustain for N consecutive
epochs* — and on breach increments the ``slo_breaches_total{rule=}``
counter and publishes an ``alert.<rule>`` event onto the run's
telemetry bus (so alerts land in the same timeline as the signals
that caused them).

Rule fields:

* ``series`` — a recorder column key, with ``fnmatch`` wildcards for
  labelled families (``fleet_tenant_bandwidth_share*`` matches every
  tenant×tier series); when several columns match, the *worst* value
  with respect to ``op`` is judged (any starved tenant fires the
  starvation rule).
* ``reduce`` — ``last`` / ``mean`` / ``max`` / ``min`` / ``rate`` /
  ``p50`` / ``p95`` / ``p99`` / ``p99_over_p50`` (the self-normalising
  tail-latency shape, so epoch-duration rules need no absolute
  threshold), applied over the last ``window`` rows.
* ``op`` + ``threshold`` — ``>``, ``>=``, ``<``, ``<=``.
* ``for_epochs`` — consecutive breaching evaluations required before
  the rule fires (debounce); the streak resets on any non-breaching
  epoch or while the series has no finite value yet.

``SimConfig.slo_rules`` accepts ``"default"`` (the built-in catalogue
resolved against the run's config — see :func:`default_rules`) or a
path to a JSON file ``{"rules": [{...}, ...]}`` with the field names
above.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import DEFAULT_RECORD_SERIES, TimeSeriesRecorder, parse_series_spec

if TYPE_CHECKING:
    # Import cycle: repro.sim imports the engine, which imports
    # repro.obs; the watchdog therefore only type-references sim
    # objects here and imports SimConfig lazily where needed.
    from repro.sim.config import SimConfig
    from repro.sim.telemetry import TelemetryBus

_REDUCERS = (
    "last", "mean", "max", "min", "rate", "p50", "p95", "p99",
    "p99_over_p50",
)
_OPS = (">", ">=", "<", "<=")


@dataclass
class SloRule:
    """One declarative SLO condition over a recorder column."""

    name: str
    series: str
    reduce: str = "last"
    op: str = ">"
    threshold: float = 0.0
    #: Rows of recorder history the reducer sees.
    window: int = 32
    #: Consecutive breaching evaluations before the rule fires.
    for_epochs: int = 1

    def __post_init__(self) -> None:
        if not self.name or not self.series:
            raise ValueError("SLO rules need a name and a series")
        if self.reduce not in _REDUCERS:
            raise ValueError(
                f"unknown reduce {self.reduce!r} (known: {_REDUCERS})"
            )
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r} (known: {_OPS})")
        if not isinstance(self.threshold, numbers.Real):
            raise ValueError(
                f"threshold must be a number, not {self.threshold!r}"
            )
        for knob in ("window", "for_epochs"):
            value = getattr(self, knob)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(
                    f"{knob} must be a positive integer, not {value!r}"
                )

    def breaches(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        if self.op == "<":
            return value < self.threshold
        return value <= self.threshold


def default_rules(config: "SimConfig") -> List[SloRule]:
    """The built-in catalogue, resolved against one run's config.

    * ``queue_saturation`` — the async migration queue holds ≥80% of
      its capacity for 2 epochs (a starved copy engine, e.g. a tiny
      ``--mig-copy-gbps``, pins it there);
    * ``epoch_duration_p99`` — the p99/p50 ratio of epoch durations
      exceeds 10× (self-normalising: no absolute time threshold);
    * ``invariant_violations`` — any recorded invariant violation;
    * ``bandwidth_starvation`` — any tenant's granted share of any
      tier's channel stays under 5% for 3 epochs (fleet runs only;
      single runs never register the series, so the rule stays idle).
    """
    return [
        SloRule(
            name="queue_saturation",
            series="migration_pending",
            reduce="last",
            op=">=",
            threshold=0.8 * config.migration_queue_capacity,
            for_epochs=2,
        ),
        SloRule(
            name="epoch_duration_p99",
            series="epoch_s",
            reduce="p99_over_p50",
            op=">",
            threshold=10.0,
            window=64,
        ),
        SloRule(
            name="invariant_violations",
            series="invariant_violations_total*",
            reduce="last",
            op=">",
            threshold=0.0,
        ),
        SloRule(
            name="bandwidth_starvation",
            series="fleet_tenant_bandwidth_share*",
            reduce="last",
            op="<",
            threshold=0.05,
            for_epochs=3,
        ),
    ]


def load_rules(
    spec: str, config: Optional["SimConfig"] = None
) -> List[SloRule]:
    """Resolve a ``slo_rules`` spec: ``"default"`` or a JSON file path.

    A file that cannot be read, is not JSON, or does not describe
    valid rules raises ``ValueError`` naming the file.
    """
    if spec == "default":
        if config is None:
            from repro.sim.config import SimConfig

            config = SimConfig()
        return default_rules(config)
    try:
        with open(spec) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{spec}: cannot read SLO rules ({exc})") from exc
    raw_rules = payload.get("rules") if isinstance(payload, dict) else None
    if not isinstance(raw_rules, list) or not raw_rules:
        raise ValueError(f"{spec}: expected a non-empty 'rules' list")
    allowed = (
        "name", "series", "reduce", "op", "threshold", "window", "for_epochs"
    )
    rules: List[SloRule] = []
    for raw in raw_rules:
        if not isinstance(raw, dict):
            raise ValueError(f"{spec}: a rule must be an object, not {raw!r}")
        unknown = [k for k in raw if k not in allowed]
        if unknown:
            raise ValueError(
                f"{spec}: unknown rule fields {unknown} "
                f"(allowed: {list(allowed)})"
            )
        try:
            rules.append(SloRule(**raw))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{spec}: bad rule {raw!r} ({exc})") from exc
    return rules


class SloWatchdog:
    """Evaluate SLO rules each epoch; count and publish breaches.

    Args:
        rules: the rule list (see :func:`load_rules`).
        recorder: the recorder whose columns the rules read.
        bus: telemetry bus for ``alert.<rule>`` events (optional).
    """

    def __init__(
        self,
        rules: List[SloRule],
        recorder: TimeSeriesRecorder,
        bus: Optional["TelemetryBus"] = None,
    ) -> None:
        self.rules = list(rules)
        self.recorder = recorder
        self.bus = bus
        self._m_breaches = recorder.registry.counter(
            "slo_breaches_total",
            "SLO rule breaches (after the rule's sustain window)",
            labels=("rule",),
        )
        self._mx_breaches = {
            rule.name: self._m_breaches.labels(rule=rule.name)
            for rule in self.rules
        }
        self._streaks: Dict[str, int] = {rule.name: 0 for rule in self.rules}
        #: Rules that have produced a value at least once.  A rule never
        #: in here had no data (no column matched its series), which
        #: is not the same as green.
        self._judged: Set[str] = set()
        #: Total breaching evaluations across all rules (post-sustain).
        self.breaches_total = 0
        #: Chronological record of every fired breach.
        self.alerts: List[Dict[str, object]] = []

    # ------------------------------------------------------------------

    def _matching_columns(self, pattern: str) -> List[str]:
        if any(ch in pattern for ch in "*?["):
            return [
                key
                for key in self.recorder.columns()
                if fnmatchcase(key, pattern)
            ]
        return [pattern] if pattern in self.recorder.columns() else []

    def _reduce_column(self, rule: SloRule, key: str) -> float:
        rec = self.recorder
        if rule.reduce == "last":
            return rec.last(key)
        if rule.reduce == "rate":
            return rec.rate(key, window=rule.window)
        if rule.reduce == "p99_over_p50":
            p50 = rec.quantile(key, 0.50, window=rule.window)
            p99 = rec.quantile(key, 0.99, window=rule.window)
            if not math.isfinite(p50) or p50 <= 0.0:
                return float("nan")
            return p99 / p50
        if rule.reduce in ("p50", "p95", "p99"):
            q = {"p50": 0.50, "p95": 0.95, "p99": 0.99}[rule.reduce]
            return rec.quantile(key, q, window=rule.window)
        values = rec.column(key, window=rule.window)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return float("nan")
        if rule.reduce == "mean":
            return float(finite.mean())
        if rule.reduce == "max":
            return float(finite.max())
        return float(finite.min())

    def evaluate_rule(self, rule: SloRule) -> Optional[float]:
        """The rule's judged value this epoch (None = series absent).

        Across several matching columns the *worst* reduced value
        w.r.t. the rule's direction is judged: the max for ``>``/
        ``>=`` rules, the min for ``<``/``<=``.
        """
        keys = self._matching_columns(rule.series)
        values = [self._reduce_column(rule, key) for key in keys]
        values = [v for v in values if math.isfinite(v)]
        if not values:
            return None
        return max(values) if rule.op in (">", ">=") else min(values)

    def evaluate(self, epoch: int, t_s: float) -> int:
        """Evaluate every rule once; returns breaches fired this call."""
        fired = 0
        for rule in self.rules:
            value = self.evaluate_rule(rule)
            if value is not None:
                self._judged.add(rule.name)
            if value is None or not rule.breaches(value):
                self._streaks[rule.name] = 0
                continue
            self._streaks[rule.name] += 1
            if self._streaks[rule.name] < rule.for_epochs:
                continue
            fired += 1
            self.breaches_total += 1
            self._mx_breaches[rule.name].inc()
            alert = {
                "epoch": float(epoch),
                "t_s": float(t_s),
                "value": float(value),
                "threshold": float(rule.threshold),
                "streak": float(self._streaks[rule.name]),
            }
            self.alerts.append(dict(alert, rule=rule.name))
            if self.bus is not None and self.bus.active:
                # Event names are built dynamically on purpose: the
                # catalogue of alert kinds is user-defined (JSON rule
                # files), not a fixed registry entry.
                self.bus.publish(
                    f"alert.{rule.name}",
                    epoch,
                    t_s,
                    value=float(value),
                    threshold=float(rule.threshold),
                    streak=int(self._streaks[rule.name]),
                )
        return fired

    def rules_without_data(self) -> List[str]:
        """Names of the rules that never produced a value."""
        return [rule.name for rule in self.rules
                if rule.name not in self._judged]

    def breaches_by_rule(self) -> Dict[str, float]:
        """Total fired breaches per rule name."""
        totals: Dict[str, float] = {rule.name: 0.0 for rule in self.rules}
        for alert in self.alerts:
            totals[str(alert["rule"])] += 1.0
        return totals


def live_stack(
    registry: MetricsRegistry,
    config: "SimConfig",
    default_series: Tuple[str, ...] = DEFAULT_RECORD_SERIES,
    bus: Optional["TelemetryBus"] = None,
) -> Tuple[Optional[TimeSeriesRecorder], Optional[SloWatchdog]]:
    """The per-epoch recorder and SLO watchdog that ``config`` asks for.

    ``record_series = "default"`` records ``default_series``.  Rules
    read recorder columns, so ``slo_rules`` without ``record_series``
    records the default set too.  Both need a live registry: with
    metrics off, or neither knob set, this returns ``(None, None)``.
    """
    spec = config.record_series or ("default" if config.slo_rules else "")
    if not spec or not registry.enabled:
        return None, None
    series = default_series if spec == "default" else parse_series_spec(spec)
    recorder = TimeSeriesRecorder(
        registry, series=series, capacity=config.record_epochs
    )
    watchdog = None
    if config.slo_rules:
        watchdog = SloWatchdog(
            load_rules(config.slo_rules, config), recorder, bus=bus
        )
    return recorder, watchdog
