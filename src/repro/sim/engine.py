"""Core event loop, events, and generator-driven processes.

Hot-path design notes (every simulated operation crosses this module):

* All event classes carry ``__slots__`` — at E16 scale the engine
  allocates millions of events per run, and slotted instances are both
  smaller and faster to touch than ``__dict__``-backed ones.
* Queue entries are plain ``(when, eid, event, thunk)`` tuples. ``eid``
  is a global monotonically increasing sequence number, so ``(when,
  eid)`` is a total order over everything ever scheduled: same-time
  events run in exact scheduling order, which is the root of the
  same-seed => byte-identical guarantee.
* The dominant ``delay == 0.0`` case (event completions, process
  wakeups) skips the heap entirely: zero-delay entries go to an append
  /popleft *immediate lane* (a deque). Because simulated time never
  moves backwards, every lane entry's timestamp equals the current
  ``now`` and lane entries are already in ``(when, eid)`` order, so a
  two-way merge against the heap head preserves the exact total order
  the single heap produced.
* Spawning a :class:`Process` does not allocate a bootstrap event: the
  first generator resume is scheduled directly as a *thunk* entry
  (``event is None``), consuming one eid exactly like the old bootstrap
  event did.
* A process nobody waits on is started with :meth:`Simulator.spawn`:
  the same bootstrap entry, no completion entry, and a failure raises
  out of ``run()`` rather than vanishing onto an event nobody holds.
* The same thunk entries are the public *scheduled callback*:
  :meth:`Simulator.call_later` / :meth:`Simulator.call_at` run a bare
  callable at a simulated instant — one eid, no Event, no generator.
  A fixed-latency stage (a frame propagating down a link, a switch
  forwarding it) is a scheduled callback; a process is for anything
  that waits on more than one thing.
* An entry is a modeled latency or a real wait. Where a waiter can
  proceed at the current instant and the caller is at the root of its
  own entry, :meth:`Event.wake` runs the waiter inline instead of
  queueing a lane entry for it (see its docstring for the contract).
* Consecutive latencies of one actor are one wait. A chain of sleeps
  with nothing observable between them folds its instants left to
  right and sleeps once on :meth:`Simulator.timeout_at`, which fires at
  exactly the float the chain reached.
* The queue push is inlined at the hot call sites
  (``Timeout.__init__``, ``succeed``/``fail``, process completion), and
  ``run()`` inlines the drain loop rather than calling :meth:`step` per
  entry — with or without ``until``. ``step()`` remains the
  single-entry API and both share the exact pop order.
* Scheduling into the past is rejected (``delay < 0``) — the immediate
  lane's ordering proof needs monotonic time, and a negative delay was
  never meaningful in a causal simulation anyway. (:class:`Timeout`
  already enforced this at construction.)
"""

from __future__ import annotations

import os
from collections import deque
from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.telemetry.flightrec import FlightRecorder
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called;
    its callbacks run when the simulator reaches the trigger time (the
    event's ``_fire_at``, recorded when it is scheduled).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_fire_at")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, now, with an optional payload."""
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        sim = self.sim
        self._fire_at = now = sim.now
        sim._eid = eid = sim._eid + 1
        sim._imm.append((now, eid, self, None))
        self._value = value
        self._ok = True
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event, now, with an exception.

        The exception is re-raised inside every process waiting on it.
        """
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        sim = self.sim
        self._fire_at = now = sim.now
        sim._eid = eid = sim._eid + 1
        sim._imm.append((now, eid, self, None))
        self._value = exception
        self._ok = False
        return self

    def wake(self, value: Any = None) -> "Event":
        """Trigger successfully and run the callbacks *now*, inside the
        engine entry that is executing — no queue entry, no eid.

        The waiter proceeds at the current instant anyway; this skips
        the lane hop :meth:`succeed` would take to get there. The event
        is processed when this returns, so a process that yields it
        later resumes at once with *value*. Everything the waiters do up
        to their next yield runs inside this call: use it only from the
        root of a delivery or scheduled-callback entry, or as the last
        thing a process does before it yields — never while the caller
        still holds a half-updated invariant. A callback's exception
        propagates to the caller (and so out of :meth:`Simulator.run`);
        nothing was queued, so the queues stay consistent.
        """
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        self._fire_at = self.sim.now
        self._value = value
        self._ok = True
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run the callback immediately so late
            # waiters still observe the value (success or failure alike).
            callback(self)
        else:
            self.callbacks.append(callback)


#: What :func:`expire` wakes an event with: nothing triggered it in time.
TIMED_OUT = object()


def expire(event: Event) -> None:
    """Wake *event* with :data:`TIMED_OUT` unless it was triggered first.

    A bounded wait is one event plus ``sim.call_later(wait,
    partial(expire, event))``: the expiry thunk wakes the waiter inline,
    and is a no-op entry once something else answered — where an
    ``any_of([event, timeout])`` costs a second event and a hop.
    """
    if event._value is _PENDING:
        event.wake(TIMED_OUT)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + schedule: this constructor runs once
        # per modeled latency, which makes it the hottest allocation site
        # in the whole simulation.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        sim._eid = eid = sim._eid + 1
        if delay == 0.0:
            self._fire_at = now = sim.now
            sim._imm.append((now, eid, self, None))
        else:
            self._fire_at = when = sim.now + delay
            heappush(sim._heap, (when, eid, self, None))


class _Bootstrap:
    """Sentinel 'event' that resumes a process generator for the first time."""

    __slots__ = ()
    _ok = True
    _value = None


_BOOT = _Bootstrap()


class Process(Event):
    """A generator executing in simulated time.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the uncaught exception.
    """

    __slots__ = ("_generator", "_waiting_on", "_resume_cb")

    #: Whether anything can wait on this process: its completion is
    #: then an entry of its own, and a failure is stored on the event.
    _awaited = True

    def __init__(self, sim: "Simulator", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        Event.__init__(self, sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # One bound method per process instead of one per yield: the same
        # callback object is appended to every event this process waits on.
        self._resume_cb = self._resume
        # Kick off the process on the next simulator step. Scheduled as a
        # bare thunk: no bootstrap Event allocation, same eid accounting.
        sim.call_later(0.0, self._bootstrap)

    def _bootstrap(self) -> None:
        self._resume(_BOOT)

    def result(self) -> Any:
        """The return value once the simulator has run dry; a failure is
        re-raised, and a process that never finished raises a
        ``RuntimeError`` naming where it is stuck: the generator, the
        innermost generator it delegates to with ``yield from`` and that
        one's line, and the class of the awaited event. All of it is read
        off the suspended frames, so nothing is recorded per wait."""
        if self._value is _PENDING:
            inner = self._generator
            while hasattr(inner.gi_yieldfrom, "gi_frame"):
                inner = inner.gi_yieldfrom
            where = os.path.basename(inner.gi_code.co_filename)
            raise RuntimeError(
                "process did not finish (deadlock?): "
                f"{self._generator.__qualname__} suspended in "
                f"{inner.__qualname__} ({where}:{inner.gi_frame.f_lineno}), "
                f"waiting on {type(self._waiting_on).__name__}"
            )
        if not self._ok:
            raise self._value
        return self._value

    def _resume(self, event) -> None:
        # Ignore wakeups after the process finished, or from an event
        # it no longer waits on.
        if self._value is not _PENDING:
            return
        waiting = self._waiting_on
        if waiting is not None and event is not waiting:
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._value = stop.value
            self._ok = True
            if not self._awaited:
                return
            sim = self.sim
            self._fire_at = now = sim.now
            sim._eid = eid = sim._eid + 1
            sim._imm.append((now, eid, self, None))
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self._value = exc
            self._ok = False
            if not self._awaited:
                raise
            sim = self.sim
            self._fire_at = now = sim.now
            sim._eid = eid = sim._eid + 1
            sim._imm.append((now, eid, self, None))
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: resume immediately (late waiter).
            self._resume(target)
        else:
            callbacks.append(self._resume_cb)


class _Spawned(Process):
    """A process nobody waits on (:meth:`Simulator.spawn`): finishing
    queues no completion entry, and a failure raises out of the entry
    that resumed it instead of being stored where nobody looks."""

    __slots__ = ()
    _awaited = False


class _MultiEvent(Event):
    """Base for AnyOf/AllOf composition events."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        Event.__init__(self, sim)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event._add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_MultiEvent):
    """Triggers when the first of its child events triggers.

    The result dict contains every successful child whose occurrence
    time has arrived: children already processed by the event loop *and*
    children that triggered with a fire time at (or before) the current
    timestamp but are still queued behind this one. A ``Timeout`` or a
    ``succeed(delay=...)`` due strictly in the future is excluded — it
    has not happened yet — but a same-timestamp completion is never
    silently dropped just because its callbacks have not run yet (the
    old ``processed``-only filter's bug, pinned by a regression test).
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if event._ok:
            now = self.sim.now
            self.succeed({
                e: e._value for e in self.events
                if e._ok and (
                    e.callbacks is None
                    or (e._value is not _PENDING and e._fire_at <= now)
                )
            })
        else:
            self.fail(event._value)


class AllOf(_MultiEvent):
    """Triggers when all child events have triggered."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed({e: e._value for e in self.events})


class Simulator:
    """The event loop: a time-ordered heap plus a zero-delay fast lane."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List = []
        #: Zero-delay fast lane; every entry's time equals the current
        #: ``now`` and eids are appended in increasing order, so the
        #: deque is always sorted by (when, eid).
        self._imm: deque = deque()
        self._eid = 0
        self._telemetry: Optional[MetricsRegistry] = None
        self._tracer: Optional[Tracer] = None
        self._recorder: Optional[FlightRecorder] = None
        # C-level factories: shadow the identically-named methods below
        # with ``partial`` objects, skipping one Python call frame per
        # spawned event/timeout/process (the methods stay as the
        # documented API surface).
        self.event = partial(Event, self)
        self.timeout = partial(Timeout, self)
        self.process = partial(Process, self)

    # -- telemetry ---------------------------------------------------------
    @property
    def telemetry(self) -> MetricsRegistry:
        """The metrics registry for everything running on this simulator.

        Lazily created, so a fresh simulator always measures from a
        clean slate — the root of the same-seed => byte-identical
        snapshot guarantee.
        """
        if self._telemetry is None:
            self._telemetry = MetricsRegistry()
        return self._telemetry

    @property
    def tracer(self) -> Tracer:
        """The span tracer bound to this simulator's clock (off by default)."""
        if self._tracer is None:
            self._tracer = Tracer(self)
        return self._tracer

    @property
    def recorder(self) -> FlightRecorder:
        """The always-on flight recorder (journal + sampled-trace ring).

        Lazily created like the registry and tracer; control-plane
        components (breakers, the SLO monitor, the fault injector...)
        resolve it once at construction via
        ``getattr(clock, "recorder", None)``.
        """
        if self._recorder is None:
            self._recorder = FlightRecorder(self)
        return self._recorder

    # -- scheduling --------------------------------------------------------
    def call_later(self, delay: float, thunk: Callable[[], None]) -> None:
        """Run the bare callable *thunk* after *delay* (one eid, no Event).

        An exception *thunk* raises propagates out of :meth:`run` /
        :meth:`step` unchanged; the entry is already off the queue, so
        the next ``run()`` continues with the one after it.
        """
        if delay == 0.0:
            self._eid = eid = self._eid + 1
            self._imm.append((self.now, eid, None, thunk))
        elif delay > 0:
            self._eid = eid = self._eid + 1
            heappush(self._heap, (self.now + delay, eid, None, thunk))
        else:  # negative, or NaN
            raise ValueError(f"cannot call_later into the past: {delay}")

    def call_at(self, when: float, thunk: Callable[[], None]) -> None:
        """Run *thunk* at the absolute simulated time *when*.

        For callers that derive an instant from earlier instants
        (``t_done + propagation``, ``busy_until + latency``): the entry
        fires at exactly that float, never at ``now + (when - now)``.
        """
        now = self.now
        if when == now:
            self._eid = eid = self._eid + 1
            self._imm.append((now, eid, None, thunk))
        elif when > now:
            self._eid = eid = self._eid + 1
            heappush(self._heap, (when, eid, None, thunk))
        else:  # earlier, or NaN
            raise ValueError(f"cannot call_at the past: {when} (now {now})")

    def timeout_at(self, when: float) -> Event:
        """An event that fires at the absolute simulated time *when*:
        the waitable twin of :meth:`call_at` (one eid, lane when *when*
        is now, heap when later, a past or NaN *when* raises before
        anything is queued).

        For an actor whose next observable instant lies several modeled
        latencies ahead: fold them onto the clock left to right —
        ``when = sim.now + a; when += b; when += c`` — and sleep once.
        That is the float a chain of ``timeout(a)``, ``timeout(b)``,
        ``timeout(c)`` reaches; ``timeout(a + b + c)`` is not.

        The event comes from the public ``event`` factory, so whatever
        counts factory calls still sees one entry per wait.
        """
        event = self.event()
        now = self.now
        if when == now:
            self._eid = eid = self._eid + 1
            self._imm.append((now, eid, event, None))
        elif when > now:
            self._eid = eid = self._eid + 1
            heappush(self._heap, (when, eid, event, None))
        else:  # earlier, or NaN
            raise ValueError(f"cannot timeout_at the past: {when} (now {now})")
        event._fire_at = when
        event._value = None
        return event

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def spawn(self, generator: Generator) -> None:
        """Start *generator* as a process nobody waits on.

        It starts exactly as :meth:`process` starts one — one bootstrap
        entry, at the same place in the order — but its end queues no
        completion entry, and an exception it raises propagates out of
        :meth:`run` with its original traceback instead of being stored
        on an event no one holds. There is no handle to wait on: use
        :meth:`process` for that.
        """
        _Spawned(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the single next entry in exact (when, eid) order."""
        imm = self._imm
        if imm:
            heap = self._heap
            if heap:
                head = heap[0]
                first = imm[0]
                # Heap entries are >= now; lane entries are == now. The
                # heap head wins only on a same-time, smaller-eid tie.
                if head[0] < first[0] or (
                    head[0] == first[0] and head[1] < first[1]
                ):
                    entry = heappop(heap)
                else:
                    entry = imm.popleft()
            else:
                entry = imm.popleft()
        else:
            entry = heappop(self._heap)
        when, __, event, thunk = entry
        self.now = when
        if event is None:
            thunk()
            return
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or simulated time passes ``until``.

        Boundary semantics (pinned by tests): entries scheduled exactly
        at ``until`` still run; the first entry strictly later does not,
        and the clock is left at ``until`` — also when the queues drain
        before reaching it.
        """
        imm = self._imm
        heap = self._heap
        limit = inf if until is None else until
        # Drain loop with the step body inlined: one call frame per
        # entry saved, identical (when, eid) pop order.
        while True:
            if imm:
                if heap:
                    head = heap[0]
                    first = imm[0]
                    if head[0] < first[0] or (
                        head[0] == first[0] and head[1] < first[1]
                    ):
                        entry = heappop(heap)
                    else:
                        entry = imm.popleft()
                else:
                    entry = imm.popleft()
            elif heap:
                entry = heappop(heap)
            else:
                if until is not None and until > self.now:
                    self.now = until
                return
            when, __, event, thunk = entry
            if when > limit:
                # Past the horizon: put it back (the heap takes lane
                # entries too — the merge orders by (when, eid) alone).
                heappush(heap, entry)
                self.now = until
                return
            self.now = when
            if event is None:
                thunk()
                continue
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)

    def run_process(self, generator: Generator) -> Any:
        """Convenience: run a generator to completion and return its value."""
        process = self.process(generator)
        self.run()
        return process.result()
