"""Declarative SLO rules evaluated against the time-series sampler.

A rule states an *objective* — a condition that should hold, e.g.
``eval.chaos.op_latency p99 < 2ms for 10ms`` — and the monitor turns
sampled violations into a deterministic alert log: an alert **fires**
once the objective has been violated continuously for the rule's
``for`` duration, and **resolves** on the first healthy sample after.
Because evaluation happens on sampler ticks of the simulated clock, the
alert log obeys the same contract as every other telemetry artifact:
same seed, byte-identical log.

Rule grammar (one line)::

    <metric path> <stat> <op> <threshold>[unit] [for <duration>[unit]]

where ``stat`` is ``value`` (counters/gauges), ``count``, ``mean``,
``max``, ``p99`` (histogram series produced by the sampler), or
``rate`` (the windowed per-second slope of the raw series); ``op`` is
one of ``< <= > >=``; units are ``ns us ms s`` (durations and
latency thresholds) or bare numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.units import parse_quantity
from repro.telemetry.timeseries import Sampler

__all__ = ["SloRule", "SloAlert", "SloMonitor"]

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_STATS = ("value", "count", "mean", "max", "p99", "rate")

@dataclass(frozen=True)
class SloRule:
    """One objective: a sampled statistic compared against a threshold."""

    name: str
    path: str
    stat: str
    op: str
    threshold: float
    for_duration: float = 0.0

    def __post_init__(self) -> None:
        if self.stat not in _STATS:
            raise ConfigurationError(
                f"SLO {self.name}: unknown stat {self.stat!r} "
                f"(expected one of {', '.join(_STATS)})"
            )
        if self.op not in _OPS:
            raise ConfigurationError(
                f"SLO {self.name}: unknown operator {self.op!r}"
            )
        if self.for_duration < 0:
            raise ConfigurationError(
                f"SLO {self.name}: negative for-duration"
            )

    @classmethod
    def parse(cls, text: str, name: Optional[str] = None) -> "SloRule":
        """Parse ``"rpc.call.latency p99 < 2ms for 10ms"`` into a rule."""
        tokens = text.split()
        if len(tokens) not in (4, 6) or (len(tokens) == 6
                                         and tokens[4] != "for"):
            raise ConfigurationError(
                f"cannot parse SLO rule {text!r}: expected "
                "'<path> <stat> <op> <threshold> [for <duration>]'"
            )
        path, stat, op, threshold = tokens[:4]
        try:
            threshold_value = parse_quantity(threshold)
            for_duration = (parse_quantity(tokens[5]) if len(tokens) == 6
                            else 0.0)
        except ConfigurationError as error:
            raise ConfigurationError(
                f"cannot parse SLO rule {text!r}: {error}") from None
        return cls(
            name=name if name is not None else text,
            path=path,
            stat=stat,
            op=op,
            threshold=threshold_value,
            for_duration=for_duration,
        )

    @property
    def series_name(self) -> str:
        """The sampler series this rule reads."""
        if self.stat in ("value", "rate"):
            return self.path
        return f"{self.path}.{self.stat}"

    def holds(self, value: float) -> bool:
        """Whether *value* satisfies this rule's threshold."""
        return _OPS[self.op](value, self.threshold)

    def describe(self) -> str:
        """Human-readable restatement of the rule, used in alert lines."""
        tail = (
            f" for {self.for_duration!r}s" if self.for_duration else ""
        )
        return (
            f"{self.path} {self.stat} {self.op} {self.threshold!r}{tail}"
        )


@dataclass(frozen=True)
class SloAlert:
    """One alert-log entry: a rule fired or resolved at a sampled time."""

    rule: str
    state: str  # "firing" | "resolved"
    at: float
    value: float

    def line(self) -> str:
        """One canonical log line for this alert (deterministic per seed)."""
        return (
            f"slo {self.state} rule={self.rule} at={self.at!r} "
            f"value={self.value!r}"
        )


class SloMonitor:
    """Evaluates rules on every sampler tick, keeping a breach log.

    Attaching the monitor registers it on ``sampler.on_sample``; a rule
    whose series has no data yet is simply skipped (no data is neither
    healthy nor breaching).
    """

    def __init__(self, sampler: Sampler,
                 rules: Sequence[SloRule] = ()) -> None:
        self.sampler = sampler
        self._recorder = getattr(sampler.clock, "recorder", None)
        self.rules: List[SloRule] = []
        self.alerts: List[SloAlert] = []
        #: Alert hooks: each callable receives every :class:`SloAlert`
        #: (firing *and* resolved) synchronously, on the sampler tick
        #: that produced it. This is the SLO→action wiring surface —
        #: autoscalers, brownout escalators, and pagers subscribe here
        #: instead of polling :attr:`alerts`. Hooks run in registration
        #: order and must not raise.
        self.on_alert: List[Callable[[SloAlert], None]] = []
        self._violating_since: Dict[str, Optional[float]] = {}
        self._firing: Dict[str, bool] = {}
        for rule in rules:
            self.add(rule)
        sampler.on_sample.append(self.check)

    def add(self, rule: SloRule) -> "SloMonitor":
        """Register *rule* for evaluation on every sampler tick; returns self."""
        if any(existing.name == rule.name for existing in self.rules):
            raise ConfigurationError(f"duplicate SLO rule name {rule.name!r}")
        self.rules.append(rule)
        self._violating_since[rule.name] = None
        self._firing[rule.name] = False
        return self

    # -- evaluation ----------------------------------------------------------
    def _evaluate(self, rule: SloRule) -> Optional[float]:
        series = self.sampler.series(rule.series_name)
        if series is None or len(series) == 0:
            return None
        if rule.stat == "rate":
            window = rule.for_duration if rule.for_duration else None
            return series.rate(window)
        last = series.last
        assert last is not None
        return last[1]

    def check(self, now: float) -> None:
        """One evaluation pass (normally invoked by the sampler)."""
        for rule in self.rules:
            value = self._evaluate(rule)
            if value is None:
                continue
            if rule.holds(value):
                if self._firing[rule.name]:
                    alert = SloAlert(rule.name, "resolved", now, value)
                    self.alerts.append(alert)
                    if self._recorder is not None:
                        self._recorder.record("slo", alert.line())
                    for hook in self.on_alert:
                        hook(alert)
                self._firing[rule.name] = False
                self._violating_since[rule.name] = None
                continue
            since = self._violating_since[rule.name]
            if since is None:
                since = now
                self._violating_since[rule.name] = now
            if not self._firing[rule.name] \
                    and now - since >= rule.for_duration:
                self._firing[rule.name] = True
                alert = SloAlert(rule.name, "firing", now, value)
                self.alerts.append(alert)
                if self._recorder is not None:
                    # An objective just started failing: journal it and
                    # snapshot a post-mortem before the rings roll on.
                    self._recorder.record("slo", alert.line())
                    self._recorder.dump(f"slo-firing:{rule.name}")
                for hook in self.on_alert:
                    hook(alert)

    # -- reading -------------------------------------------------------------
    @property
    def firing(self) -> List[str]:
        """Rules currently in the firing state, sorted by name."""
        return sorted(name for name, on in self._firing.items() if on)

    def fired_count(self, rule_name: Optional[str] = None) -> int:
        """Alerts fired so far, optionally filtered to one rule name."""
        return sum(
            1 for alert in self.alerts
            if alert.state == "firing"
            and (rule_name is None or alert.rule == rule_name)
        )

    def alert_log_bytes(self) -> bytes:
        """The alert log as canonical bytes (same seed => same bytes)."""
        return "\n".join(alert.line() for alert in self.alerts).encode()

    def summary(self) -> str:
        """One line per rule: state, fired/resolved counts."""
        lines = []
        for rule in self.rules:
            fired = self.fired_count(rule.name)
            state = "FIRING" if self._firing[rule.name] else "ok"
            lines.append(
                f"{rule.name}: {state} (fired {fired}x) — {rule.describe()}"
            )
        return "\n".join(lines)
