"""Shared resources for simulated contention: a mutex and a queue."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, Simulator


class Resource:
    """A mutex over one unit of hardware (an ICAP port, a PCIe channel,
    a flash die or channel, a CPU core).

    ``request()`` returns an event that fires when the unit is granted;
    ``acquire()`` takes a free unit on the spot. The holder must call
    ``release()`` exactly once per grant. Waiters are granted in FIFO
    order.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.held = False
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        event = Event(self.sim)
        if self.held:
            self._waiters.append(event)
        else:
            self.held = True
            event.succeed(self)
        return event

    def release(self) -> None:
        if not self.held:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed(self)
        else:
            self.held = False

    def acquire(self) -> Optional[Event]:
        """Take a free unit and return ``None`` (no generator, no entry),
        or queue and return the grant to ``yield``: it fires with the
        unit. A free unit cannot overtake a queued waiter — it is only
        ever free while nobody waits, because :meth:`release` hands it
        straight on."""
        if self.held:
            grant = Event(self.sim)
            self._waiters.append(grant)
            return grant
        self.held = True
        return None


class Store:
    """An unbounded FIFO of items passed between processes."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> Event:
        event = Event(self.sim)
        self.put_nowait(item)
        event.succeed(None)
        return event

    def put_nowait(self, item: Any) -> None:
        """Hand *item* to a waiting getter or append it; no completion event.

        For producers that are callbacks rather than processes: nothing
        could wait on a put event, so none is allocated.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)
