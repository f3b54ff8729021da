"""Declarative SLO rules judged on the per-epoch record.

A :class:`SloWatchdog` turns the run's per-epoch table into an
alerting surface.  The engine hands it each ``epoch`` record's fields
as the record is published (:meth:`SloWatchdog.observe`); a fleet
hands it one row of per-tenant slowdown and bandwidth share per epoch.
Each epoch it evaluates a list of :class:`SloRule` objects — *reduce a
field over a window, compare against a threshold, sustain for N
consecutive epochs* — and on breach increments the
``slo_breaches_total{rule=}`` counter and publishes an
``alert.<rule>`` event onto the run's telemetry bus (so alerts land in
the same timeline as the records that caused them).  Its only history
is a deque of the last ``max(rule.window)`` rows.

Rule fields:

* ``series`` — a field of the ``epoch`` record (``epoch_s``,
  ``n_ddr``, ``migration_pending`` in async mode, ``ratio`` at the
  measurement points of an identification-only run, ...) or a fleet-row
  key (``fleet_tenant_bandwidth_share{tenant="0",tier="ddr"}``), with
  ``fnmatch`` wildcards (``fleet_tenant_bandwidth_share*`` matches
  every tenant×tier key); when several keys match, the *worst* value
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
from collections import deque
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry

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
    """One declarative SLO condition over a per-epoch field."""

    name: str
    series: str
    reduce: str = "last"
    op: str = ">"
    threshold: float = 0.0
    #: Rows of per-epoch history the reducer sees.
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
    * ``bandwidth_starvation`` — any tenant's granted share of any
      tier's channel stays under 5% for 3 epochs (fleet runs only;
      a single run's record has no such field, so the rule stays
      idle).

    No rule watches invariant violations: the engine's checker raises
    ``InvariantViolation`` on the first one, in the ``verify`` stage,
    so no later epoch is ever judged.
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
    """Judge SLO rules on each per-epoch row; count and publish breaches.

    Args:
        rules: the rule list (see :func:`load_rules`).
        registry: where ``slo_breaches_total`` is counted (a disabled
            registry hands out a null counter).
        bus: telemetry bus for ``alert.<rule>`` events (optional).
    """

    def __init__(
        self,
        rules: List[SloRule],
        registry: MetricsRegistry,
        bus: Optional["TelemetryBus"] = None,
    ) -> None:
        self.rules = list(rules)
        self.bus = bus
        breaches = registry.counter(
            "slo_breaches_total",
            "SLO rule breaches (after the rule's sustain window)",
            labels=("rule",),
        )
        self._mx_breaches = {
            rule.name: breaches.labels(rule=rule.name) for rule in self.rules
        }
        #: ``(t_s, fields)`` of the last ``max(window)`` epochs: the
        #: watchdog's only history.
        self._rows: Deque[Tuple[float, Mapping[str, float]]] = deque(
            maxlen=max((rule.window for rule in self.rules), default=1)
        )
        self._streaks: Dict[str, int] = {rule.name: 0 for rule in self.rules}
        #: Rules that have produced a value at least once.  A rule never
        #: in here had no data (no field matched its series), which is
        #: not the same as green.
        self._judged: Set[str] = set()
        #: Total breaching evaluations across all rules (post-sustain).
        self.breaches_total = 0
        #: Chronological record of every fired breach.
        self.alerts: List[Dict[str, object]] = []

    # ------------------------------------------------------------------

    def _reduce(self, rule: SloRule, key: str) -> float:
        """``rule.reduce`` over the finite values of ``key`` in the
        rule's window (NaN when it has none)."""
        rows = list(self._rows)[-rule.window:]
        values = np.array([fields.get(key, math.nan) for _, fields in rows],
                          dtype=np.float64)
        finite = np.isfinite(values)
        values = values[finite]
        if rule.reduce == "rate":
            # Mean per-simulated-second increase; 0.0 below two points
            # or when no simulated time elapsed between them.
            clock = np.array([t_s for t_s, _ in rows])[finite]
            elapsed_s = float(clock[-1] - clock[0]) if values.size > 1 else 0.0
            if elapsed_s <= 0.0:
                return 0.0
            return float(values[-1] - values[0]) / elapsed_s
        if values.size == 0:
            return math.nan
        if rule.reduce == "last":
            return float(values[-1])
        if rule.reduce == "mean":
            return float(values.mean())
        if rule.reduce == "max":
            return float(values.max())
        if rule.reduce == "min":
            return float(values.min())
        if rule.reduce == "p99_over_p50":
            p50, p99 = np.quantile(values, (0.50, 0.99))
            return float(p99 / p50) if p50 > 0.0 else math.nan
        q = {"p50": 0.50, "p95": 0.95, "p99": 0.99}[rule.reduce]
        return float(np.quantile(values, q))

    def _judge(self, rule: SloRule, keys: Dict[str, float]) -> Optional[float]:
        """The rule's value this epoch (None = no key matches).

        Across several matching keys the *worst* reduced value w.r.t.
        the rule's direction is judged: the max for ``>``/``>=``
        rules, the min for ``<``/``<=``.
        """
        if any(ch in rule.series for ch in "*?["):
            keys = [k for k in keys if fnmatchcase(k, rule.series)]
        else:
            keys = [rule.series] if rule.series in keys else []
        values = [self._reduce(rule, key) for key in keys]
        values = [v for v in values if math.isfinite(v)]
        if not values:
            return None
        return max(values) if rule.op in (">", ">=") else min(values)

    def observe(self, epoch: int, t_s: float, fields: Mapping[str, float]) -> int:
        """Append one epoch's row and evaluate every rule once;
        returns the breaches fired.  The row is kept, not copied."""
        self._rows.append((float(t_s), fields))
        keys: Dict[str, float] = {}  # every key in the history, in order
        for _, row in self._rows:
            keys.update(row)
        fired = 0
        for rule in self.rules:
            value = self._judge(rule, keys)
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


def build_watchdog(
    config: "SimConfig",
    registry: MetricsRegistry,
    bus: Optional["TelemetryBus"] = None,
) -> Optional[SloWatchdog]:
    """The SLO watchdog ``config.slo_rules`` asks for, or None."""
    if not config.slo_rules:
        return None
    return SloWatchdog(load_rules(config.slo_rules, config), registry, bus=bus)
