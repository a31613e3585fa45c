"""Shared resources for simulated contention: counted resources and queues."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Tuple

from repro.sim.engine import Event, Simulator


class Resource:
    """A counted resource (e.g. a DMA engine with N channels).

    ``request()`` returns an event that fires when a unit is granted; the
    holder must call ``release()`` exactly once per grant.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a free unit synchronously; ``False`` when none is free.

        An uncontended grant then costs no engine entry (see
        :meth:`acquire`). It cannot overtake a queued waiter — a unit is
        only ever free while nobody waits, because :meth:`release` hands
        units straight on.
        """
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1

    def acquire(self):
        """Generator helper: ``yield from resource.acquire()`` — takes
        a free unit on the spot, waits for a grant only when none is."""
        if not self.try_acquire():
            yield self.request()


class Store:
    """An unbounded-or-bounded FIFO of items passed between processes."""

    def __init__(self, sim: Simulator, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        event = Event(self.sim)
        if self._getters:
            self._getters.popleft().succeed(item)
            event.succeed(None)
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def put_nowait(self, item: Any) -> None:
        """Hand *item* to a waiting getter or append it; no completion event.

        For producers that are callbacks rather than processes (a link's
        delivery, a socket's reassembly): nothing could wait on a put
        event, so none is allocated. A full bounded store raises instead
        of blocking.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
        else:
            raise RuntimeError(
                f"put_nowait({item!r}) on a full store "
                f"(capacity {self.capacity})"
            )

    def get(self) -> Event:
        event = Event(self.sim)
        if self.items:
            item = self.items.popleft()
            event.succeed(item)
            if self._putters:
                put_event, pending = self._putters.popleft()
                self.items.append(pending)
                put_event.succeed(None)
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)
