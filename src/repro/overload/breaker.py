"""A deterministic CLOSED -> OPEN -> HALF_OPEN circuit breaker.

The failure mode this prevents: a dead backend costs every caller a
full per-call deadline (timeout + retries + backoff), and under load
those stalled calls *are* the congestion — capacity wasted probing a
corpse. The breaker counts consecutive failures; past the threshold it
opens and every subsequent :meth:`allow` is an immediate, free ``False``
until ``reset_timeout`` of simulated time has passed. Then it admits
half-open probes one at a time — a single probe in flight, so a storm
of waiting callers cannot re-trip the breaker off its own traffic —
and enough probe successes close it, any probe failure re-opens it.

All transitions happen at simulated times and are appended to a
transition log, so two same-seed runs produce byte-identical breaker
histories — the same contract as fault schedules and SLO alert logs.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

from repro.common.errors import ConfigurationError
from repro.telemetry import MetricScope

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    """Breaker positions: CLOSED passes, OPEN refuses, HALF_OPEN probes."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding of the state (for telemetry snapshots).
_STATE_GAUGE = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
}


class CircuitBreaker:
    """One breaker guarding one backend (a replica, a memory tier).

    Protocol: call :meth:`allow` before attempting the guarded
    operation (``False`` means fail over immediately), then exactly one
    of :meth:`record_success` / :meth:`record_failure` for attempts
    that were allowed.
    """

    def __init__(
        self,
        clock,
        metrics: MetricScope,
        failure_threshold: int = 5,
        reset_timeout: float = 50e-3,
    ):
        if failure_threshold < 1:
            raise ConfigurationError("breaker thresholds must be >= 1")
        if reset_timeout <= 0:
            raise ConfigurationError("reset_timeout must be positive")
        self.clock = clock
        self._recorder = getattr(clock, "recorder", None)
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: (time, from-state, to-state) — canonical per-seed history.
        self.transition_log: List[Tuple[float, str, str]] = []
        self._metrics = metrics
        self._state_gauge = metrics.gauge("state")
        self._opened = metrics.counter("opened")
        self._half_opened = metrics.counter("half_opened")
        self._closed = metrics.counter("closed")
        self._rejected = metrics.counter("rejected")

    def _transition(self, to: BreakerState) -> None:
        self.transition_log.append(
            (self.clock.now, self.state.value, to.value)
        )
        if self._recorder is not None:
            self._recorder.record(
                "breaker",
                f"breaker {self.state.value}->{to.value} at={self.clock.now!r}",
            )
        # Per-edge counters (e.g. ``transitions.closed_to_open``) so a
        # Prometheus scrape sees *which* transitions happened, not just
        # how often each state was entered.
        edge = (f"{self.state.value}_to_{to.value}").replace("-", "_")
        self._metrics.counter(f"transitions.{edge}").inc()
        self.state = to
        self._state_gauge.set(_STATE_GAUGE[to])
        if to is BreakerState.OPEN:
            self._opened.inc()
            self._opened_at = self.clock.now
        elif to is BreakerState.HALF_OPEN:
            self._half_opened.inc()
            self._probe_in_flight = False
        else:
            self._closed.inc()
            self._consecutive_failures = 0

    def transition_log_bytes(self) -> bytes:
        """The transition history as canonical bytes."""
        return "\n".join(
            f"breaker {frm}->{to} at={at!r}"
            for at, frm, to in self.transition_log
        ).encode()

    # -- the guard -------------------------------------------------------
    def allow(self) -> bool:
        """May the caller attempt the guarded operation right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.clock.now - self._opened_at >= self.reset_timeout:
                self._transition(BreakerState.HALF_OPEN)
            else:
                self._rejected.inc()
                return False
        # HALF_OPEN: exactly one probe in flight at a time. A storm of
        # waiting callers must not all rush the recovering backend — the
        # surge itself could re-fail the probe and re-trip the breaker
        # off its own traffic. Everyone but the probe is refused until
        # the probe's outcome comes back.
        if not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        self._rejected.inc()
        return False

    # -- outcomes --------------------------------------------------------
    def record_success(self) -> None:
        """Record a successful call; a successful probe closes a half-open
        breaker."""
        if self.state is BreakerState.HALF_OPEN:
            self._probe_in_flight = False
            self._transition(BreakerState.CLOSED)
            return
        if self.state is BreakerState.OPEN:
            # An out-of-band verified success (a call that bypassed the
            # breaker): the backend is demonstrably back.
            self._transition(BreakerState.CLOSED)
            return
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Record a failed call; enough failures trip the breaker open."""
        if self.state is BreakerState.HALF_OPEN:
            # A failed probe re-opens immediately: the backend is not back.
            self._probe_in_flight = False
            self._transition(BreakerState.OPEN)
            return
        if self.state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._transition(BreakerState.OPEN)
