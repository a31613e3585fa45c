"""Bounded, policy-driven queues with backpressure telemetry.

The implicit queues this replaces (RPC pending handlers, NVMe
submission) shared the same failure mode: under overload they buffer
without limit, so sojourn time grows past every client deadline and
the server ends up doing work nobody is waiting for. A
:class:`BoundedQueue` makes the limit explicit and the overflow
*visible*: a full queue rejects at enqueue (``dropped_full``),
and the CoDel-style policy additionally drops entries at dequeue once
queueing delay has exceeded the target sojourn for a full interval
(``dropped_deadline``) — serving fresh requests instead of stale ones.

Every queue emits its depth and saturation as telemetry gauges, which
is the backpressure signal the admission/brownout layers (and the SLO
monitor) act on.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.sim import Event, Simulator
from repro.telemetry import MetricScope

__all__ = ["QueuePolicy", "BoundedQueue"]


class QueuePolicy(enum.Enum):
    """How a bounded queue orders service and sheds excess delay."""

    #: First-in first-out; overflow rejected at enqueue.
    FIFO = "fifo"
    #: Last-in first-out: under overload, fresh requests (whose clients
    #: are still waiting) are served before stale ones.
    LIFO = "lifo"
    #: FIFO plus CoDel-style sojourn control: once the head-of-line
    #: delay has exceeded ``codel_target`` continuously for
    #: ``codel_interval``, stale entries are dropped at dequeue.
    CODEL = "codel"


class BoundedQueue:
    """A bounded queue of ``(enqueue time, item)`` entries.

    Unlike :class:`repro.sim.Store`, a full queue never blocks the
    producer: :meth:`try_put` returns ``False`` (counted and, when an
    ``on_drop`` hook is set, reported) so backpressure propagates
    *immediately* instead of accumulating as hidden putter state.

    Consumption comes in two shapes: :meth:`poll` synchronously returns
    an item or ``None`` (a worker between two requests), and :meth:`get`
    returns an :class:`~repro.sim.Event` for a process with nothing to
    do — the next :meth:`try_put` hands it the item and resumes it
    inline.
    """

    def __init__(
        self,
        sim: Simulator,
        metrics: MetricScope,
        capacity: int,
        policy: QueuePolicy = QueuePolicy.FIFO,
        codel_target: float = 5e-3,
        codel_interval: float = 10e-3,
        on_drop: Optional[Callable[[Any, str], None]] = None,
    ):
        if capacity < 1:
            raise ConfigurationError("bounded queue capacity must be >= 1")
        if codel_target <= 0 or codel_interval <= 0:
            raise ConfigurationError("CoDel target/interval must be positive")
        self.sim = sim
        self.capacity = capacity
        self.policy = policy
        self.codel_target = codel_target
        self.codel_interval = codel_interval
        self.on_drop = on_drop
        self._entries: Deque[Tuple[float, Any]] = deque()
        self._getters: Deque[Event] = deque()
        #: When head-of-line sojourn first exceeded the CoDel target
        #: (None while below target).
        self._first_above: Optional[float] = None
        self._depth = metrics.gauge("depth")
        self._saturation = metrics.gauge("saturation")
        self._enqueued = metrics.counter("enqueued")
        self._dequeued = metrics.counter("dequeued")
        self._dropped_full = metrics.counter("dropped_full")
        self._dropped_deadline = metrics.counter("dropped_deadline")
        self._sojourn = metrics.histogram("sojourn")

    # -- gauges ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def depth(self) -> int:
        """Items currently waiting in the queue."""
        return len(self._entries)

    @property
    def saturation(self) -> float:
        """Fill fraction in [0, 1] — the backpressure signal."""
        return len(self._entries) / self.capacity

    @property
    def dropped_full(self) -> int:
        """Arrivals rejected because the queue was at capacity."""
        return self._dropped_full.value

    @property
    def dropped_deadline(self) -> int:
        """Items dropped at dequeue because their deadline had passed."""
        return self._dropped_deadline.value

    def _sync_gauges(self) -> None:
        self._depth.set(len(self._entries))
        self._saturation.set(len(self._entries) / self.capacity)

    # -- producing -------------------------------------------------------
    def try_put(self, item: Any) -> bool:
        """Enqueue ``item``; ``False`` (and a counted drop) when full."""
        if self._getters:
            # Direct handoff to a waiting consumer: zero sojourn. The
            # consumer starts on the item inside this call (an inline
            # wake), so the accounting is settled first.
            self._enqueued.inc()
            self._dequeued.inc()
            self._sojourn.observe(0.0)
            self._getters.popleft().wake(item)
            return True
        if len(self._entries) >= self.capacity:
            self._dropped_full.inc()
            if self.on_drop is not None:
                self.on_drop(item, "full")
            return False
        self._entries.append((self.sim.now, item))
        self._enqueued.inc()
        self._sync_gauges()
        return True

    # -- consuming -------------------------------------------------------
    def _take(self) -> Optional[Any]:
        """Pop one entry per policy, applying CoDel deadline drops."""
        while self._entries:
            if self.policy is QueuePolicy.LIFO:
                enqueued_at, item = self._entries.pop()
            else:
                enqueued_at, item = self._entries.popleft()
            sojourn = self.sim.now - enqueued_at
            if self.policy is QueuePolicy.CODEL:
                if sojourn <= self.codel_target:
                    self._first_above = None
                elif self._first_above is None:
                    # First sighting above target: start the interval
                    # clock but still serve this entry.
                    self._first_above = self.sim.now
                elif self.sim.now - self._first_above >= self.codel_interval:
                    # Delay has been above target for a whole interval:
                    # this entry is stale — drop it and try the next.
                    self._dropped_deadline.inc()
                    if self.on_drop is not None:
                        self.on_drop(item, "deadline")
                    continue
            self._dequeued.inc()
            self._sojourn.observe(sojourn)
            self._sync_gauges()
            return item
        self._sync_gauges()
        return None

    def poll(self) -> Optional[Any]:
        """Synchronous dequeue: one item, or ``None`` when drained."""
        return self._take()

    def get(self) -> Event:
        """Process-facing dequeue: fires with the item (waits if empty)."""
        event = Event(self.sim)
        item = self._take()
        if item is not None:
            event.succeed(item)
        else:
            self._getters.append(event)
        return event
