"""Token-bucket + AIMD admission control with priority-class shedding.

Admission control is the *front door* of overload protection: excess
load is refused before it costs any service time. The controller is a
token bucket refilled deterministically from the simulated clock, whose
refill rate adapts by AIMD — additive increase while the system is
healthy, multiplicative decrease on an overload signal (a queue-full
drop, a breaker trip, an SLO firing) — so the admitted rate converges
on the actual service capacity without ever being configured to it.

Priority classes implement *graceful* shedding: each class has a shed
threshold expressed as a bucket-fill fraction, so as the bucket drains
under load, scrub traffic is refused first, then background work, and
user gets/puts only when the bucket is empty outright.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.telemetry import MetricScope

__all__ = ["Priority", "TokenBucket", "AdmissionController"]


class Priority(enum.IntEnum):
    """Load-shedding classes, most-protected first."""

    USER = 0        # foreground gets/puts: shed last
    BACKGROUND = 1  # compaction, repair traffic
    SCRUB = 2       # integrity scans: shed first


#: Minimum bucket fill fraction each class needs to be admitted. USER
#: needs only enough tokens for its own cost; lower classes need the
#: bucket visibly healthy.
SHED_THRESHOLDS: Dict[Priority, float] = {
    Priority.USER: 0.0,
    Priority.BACKGROUND: 0.25,
    Priority.SCRUB: 0.50,
}


#: The bucket holds this many seconds' worth of the rate (and at least
#: one token).
BURST_SECONDS = 0.01

#: The AIMD rate stays between these multiples of the initial rate.
MIN_RATE_FACTOR = 0.05
MAX_RATE_FACTOR = 4.0

#: Additive step per healthy tick, as a fraction of the *initial* rate
#: (so the climb-back speed does not depend on the current rate).
ADDITIVE_INCREASE = 0.05
#: Rate multiplier on an overloaded tick. A harsh halving oscillates the
#: admitted rate far below capacity; a gentle step keeps it hugging the
#: service rate.
MULTIPLICATIVE_DECREASE = 0.85


class TokenBucket:
    """A deterministic token bucket on any ``now``-bearing clock.

    Refill is lazy: tokens accrue as ``rate * elapsed`` at each consult,
    capped at ``capacity`` — no background process, so two same-seed
    runs consult at identical times and see identical levels.
    """

    def __init__(self, clock, rate: float, capacity: float):
        if rate <= 0 or capacity <= 0:
            raise ConfigurationError("token bucket needs positive rate/capacity")
        self.clock = clock
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._last = clock.now

    def _refill(self) -> None:
        now = self.clock.now
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._last = now

    @property
    def tokens(self) -> float:
        """Tokens available right now, after lazy refill at the current rate."""
        self._refill()
        return self._tokens

    @property
    def level(self) -> float:
        """Fill fraction in [0, 1]."""
        return self.tokens / self.capacity

    def try_take(self) -> bool:
        """Take one token if available; ``False`` means the caller sheds."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def set_rate(self, rate: float) -> None:
        """Retarget the refill rate (tokens/s), settling accrued tokens first."""
        # Settle accrued tokens at the old rate before switching.
        self._refill()
        self.rate = rate


class AdmissionController:
    """Per-priority admission over an AIMD-adapted token bucket.

    Usage: the protected entry point calls :meth:`admit` per request
    and :meth:`record_overload` whenever downstream pressure is seen
    (queue-full drop, breaker trip, SLO firing); something periodic —
    a sampler hook, a control-loop process — calls :meth:`tick` to
    apply the AIMD step for the elapsed window.
    """

    def __init__(
        self,
        clock,
        metrics: MetricScope,
        rate: float,
    ):
        self.bucket = TokenBucket(clock, rate, max(rate * BURST_SECONDS, 1.0))
        self.initial_rate = rate
        self.min_rate = rate * MIN_RATE_FACTOR
        self.max_rate = rate * MAX_RATE_FACTOR
        self.multiplicative_decrease = MULTIPLICATIVE_DECREASE
        self._overloaded_this_window = False
        self._rate_gauge = metrics.gauge("rate")
        self._tokens_gauge = metrics.gauge("tokens")
        self._rate_gauge.set(rate)
        self._admitted = {
            p: metrics.counter(f"admitted.{p.name.lower()}") for p in Priority
        }
        self._shed = {
            p: metrics.counter(f"shed.{p.name.lower()}") for p in Priority
        }
        self._decreases = metrics.counter("aimd_decreases")

    @property
    def rate(self) -> float:
        """The current AIMD-controlled admission rate, in requests/s."""
        return self.bucket.rate

    def shed(self, priority: Priority = Priority.USER) -> int:
        """Requests shed so far at *priority*."""
        return self._shed[priority].value

    # -- the decision ----------------------------------------------------
    def admit(self, priority: Priority = Priority.USER) -> bool:
        """Admit or shed one request (one token) of the given class."""
        if (self.bucket.level < SHED_THRESHOLDS[priority]
                or not self.bucket.try_take()):
            self._shed[priority].value += 1
            self._tokens_gauge.set(self.bucket._tokens)
            return False
        self._admitted[priority].value += 1
        self._tokens_gauge.set(self.bucket._tokens)
        return True

    # -- AIMD ------------------------------------------------------------
    def record_overload(self) -> None:
        """Flag downstream pressure; applied at the next :meth:`tick`."""
        self._overloaded_this_window = True

    def tick(self, overloaded: Optional[bool] = None) -> float:
        """One AIMD step for the window just ended; returns the new rate.

        ``overloaded`` overrides (ORs with) the recorded flag, so a
        control loop can feed an externally observed signal (queue
        saturation, an SLO firing) directly.
        """
        pressed = self._overloaded_this_window or bool(overloaded)
        self._overloaded_this_window = False
        if pressed:
            new_rate = max(
                self.min_rate, self.rate * self.multiplicative_decrease
            )
            self._decreases.value += 1
        else:
            new_rate = min(
                self.max_rate,
                self.rate + ADDITIVE_INCREASE * self.initial_rate,
            )
        self.bucket.set_rate(new_rate)
        self._rate_gauge.set(new_rate)
        return new_rate
