"""Core event loop, events, and generator-driven processes.

Hot-path design notes (every simulated operation crosses this module):

* All event classes carry ``__slots__`` — at E16 scale the engine
  allocates millions of events per run, and slotted instances are both
  smaller and faster to touch than ``__dict__``-backed ones.
* Queue entries are plain ``(when, eid, event, thunk)`` tuples on one
  heap. ``eid`` is a global monotonically increasing sequence number,
  so ``(when, eid)`` is a total order over everything ever scheduled:
  at one instant, earlier-scheduled entries run first, which is the
  root of the same-seed => byte-identical guarantee.
* Spawning a :class:`Process` does not allocate a bootstrap event: the
  first generator resume is scheduled directly as a *thunk* entry
  (``event is None``, the thunk ``partial(process._resume, _BOOT)``),
  consuming one eid exactly like the old bootstrap event did.
* A process nobody waits on is started with :meth:`Simulator.spawn`:
  the same bootstrap entry, no completion entry, and a failure raises
  out of ``run()`` rather than vanishing onto an event nobody holds.
* The same thunk entries are the public *scheduled callback*:
  :meth:`Simulator.call_later` runs a bare callable at a simulated
  instant — one eid, no Event, no generator.
  A fixed-latency stage (a frame propagating down a link, a switch
  forwarding it) is a scheduled callback; a process is for anything
  that waits on more than one thing.
* An entry is a modeled latency or a real wait. Where a waiter can
  proceed at the current instant and the caller is at the root of its
  own entry, :meth:`Event.wake` runs the waiter inline instead of
  queueing an entry for it (see its docstring for the contract).
* Consecutive latencies of one actor are one wait. A chain of sleeps
  with nothing observable between them folds its instants left to
  right and sleeps once on :meth:`Simulator.timeout_at`, which fires at
  exactly the float the chain reached.
* The queue push is inlined at the hot call sites (``Timeout`` and
  ``Process`` construction, ``succeed``/``fail``, process completion,
  and the frame hops: a switch's ingress stage and ``Link.forward``
  push a thunk entry for the absolute instant they computed), and
  ``run()`` inlines the drain loop rather than calling :meth:`step` per
  entry — with or without ``until``. ``step()`` remains the
  single-entry API and both share the exact pop order.
* A process's one resume callback sits only on the event it last
  yielded, and an event drops its callbacks as it fires: no resume is
  stale, so ``_resume`` checks for none.
* A finished process holds no reference to itself: it drops its resume
  callback (a bound method of itself) as its generator returns or
  raises, and a stored failure keeps no traceback entry of ``_resume``.
  Refcounting frees the process, its generator and what its frame held
  at once, without waiting for the cyclic GC.
* A bounded wait is one event plus :meth:`Simulator.expire_later`:
  whichever comes first wakes the waiter (see :func:`expire`). The
  queue holds only entries that can still act: an answered wait's
  expiry is dropped unrun, and a drain still ends at its instant.
* Scheduling into the past is rejected (``delay < 0``): simulated time
  never moves backwards.
"""

from __future__ import annotations

import os
from functools import partial
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.telemetry.flightrec import FlightRecorder
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called;
    its callbacks run in the queue entry the trigger schedules.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

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
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (sim.now, eid, self, None))
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
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (sim.now, eid, self, None))
        self._value = exception
        self._ok = False
        return self

    def wake(self, value: Any = None) -> "Event":
        """Trigger successfully and run the callbacks *now*, inside the
        engine entry that is executing — no queue entry, no eid.

        The waiter proceeds at the current instant anyway; this skips
        the entry :meth:`succeed` would queue to get there. The event
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

    A bounded wait is one event plus ``sim.expire_later(wait, event)``:
    the expiry thunk wakes the waiter inline, and is a no-op entry once
    something else answered. The waiter tells the two apart by the
    value it resumes with.
    """
    if event._value is _PENDING:
        event.wake(TIMED_OUT)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + schedule: this constructor runs once
        # per modeled latency, which makes it the hottest allocation site
        # in the whole simulation.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (sim.now + delay, eid, self, None))


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
        self.sim = sim  # Event.__init__ and call_later inlined
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # One bound method per process instead of one per yield: the same
        # callback object is appended to every event this process waits on.
        self._resume_cb = resume = self._resume
        # Kick off the process on the next simulator step. Scheduled as a
        # bare thunk: no bootstrap Event allocation, same eid accounting,
        # and the thunk enters no Python frame of its own.
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (sim.now, eid, None, partial(resume, _BOOT)))

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
            # The traceback keeps this frame: drop what would make the
            # failure a cycle through this process before it leaves.
            failure = self._value
            del self
            try:
                raise failure
            finally:
                del failure
        return self._value

    def _resume(self, event) -> None:
        # Never a stale wakeup: see the module notes.
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._resume_cb = None  # the one self-reference: see the notes
            self._value = stop.value
            self._ok = True
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self._resume_cb = None
            if not self._awaited:
                raise
            # Stored without this frame's traceback entry, whose ``self``
            # would make the failure a cycle through this process.
            self._value = exc.with_traceback(exc.__traceback__.tb_next)
            self._ok = False
        else:
            try:
                callbacks = target.callbacks
            except AttributeError:
                raise TypeError(f"process yielded {target!r}; processes "
                                "must yield Event objects") from None
            self._waiting_on = target
            if callbacks is None:
                # Already processed: resume immediately (late waiter).
                self._resume(target)
            else:
                callbacks.append(self._resume_cb)
            return
        if self._awaited:  # the completion entry its waiters resume in
            sim = self.sim
            sim._eid = eid = sim._eid + 1
            heappush(sim._heap, (sim.now, eid, self, None))


class _Spawned(Process):
    """A process nobody waits on (:meth:`Simulator.spawn`): finishing
    queues no completion entry, and a failure raises out of the entry
    that resumed it instead of being stored where nobody looks."""

    __slots__ = ()
    _awaited = False


class AllOf(Event):
    """Triggers when all child events have triggered."""

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
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed({e: e._value for e in self.events})


#: A heap shorter than this is never searched for answered expiries.
COMPACT_FLOOR = 32


class Simulator:
    """The event loop: one heap of entries in ``(when, eid)`` order."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List = []
        self._eid = 0
        #: When ``expire_later`` next drops answered expiries, and the
        #: latest instant it scheduled one for (a drain ends no earlier).
        self._compact_at = COMPACT_FLOOR
        self._expiries_until = 0.0
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
        if delay >= 0:
            self._eid = eid = self._eid + 1
            heappush(self._heap, (self.now + delay, eid, None, thunk))
        else:  # negative, or NaN
            raise ValueError(f"cannot call_later into the past: {delay}")

    def expire_later(self, delay: float, event: Event) -> None:
        """After *delay*, :func:`expire` *event* (one eid, the entry
        ``call_later(delay, partial(expire, event))`` would push).

        Once the heap has doubled since the last pass, this first drops
        every queued expiry whose event is already triggered (a no-op if
        it popped) and re-heaps the rest in place, as ``run()`` holds the
        list. ``(when, eid)`` is a total order, so nothing is reordered.
        """
        heap = self._heap
        if len(heap) >= self._compact_at:
            heap[:] = [entry for entry in heap if not (
                type(entry[3]) is partial and entry[3].func is expire
                and entry[3].args[0]._value is not _PENDING)]
            heapify(heap)
            self._compact_at = max(2 * len(heap), COMPACT_FLOOR)
        if delay >= 0:
            self._eid = eid = self._eid + 1
            when = self.now + delay
            if when > self._expiries_until:
                self._expiries_until = when
            heappush(heap, (when, eid, None, partial(expire, event)))
        else:  # negative, or NaN
            raise ValueError(f"cannot expire_later into the past: {delay}")

    def timeout_at(self, when: float) -> Event:
        """An event that fires at the absolute simulated time *when*
        (one eid; a past or NaN *when* raises before anything is
        queued). It fires at exactly that float, never at ``now + (when
        - now)``.

        For an actor whose next observable instant lies several modeled
        latencies ahead: fold them onto the clock left to right —
        ``when = sim.now + a; when += b; when += c`` — and sleep once.
        That is the float a chain of ``timeout(a)``, ``timeout(b)``,
        ``timeout(c)`` reaches; ``timeout(a + b + c)`` is not.

        The event comes from the public ``event`` factory, so whatever
        counts factory calls still sees one entry per wait.
        """
        event = self.event()
        if when >= self.now:
            self._eid = eid = self._eid + 1
            heappush(self._heap, (when, eid, event, None))
        else:  # earlier, or NaN
            raise ValueError(
                f"cannot timeout_at the past: {when} (now {self.now})")
        event._value = None
        return event

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

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

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the single next entry in exact (when, eid) order."""
        when, __, event, thunk = heappop(self._heap)
        self.now = when
        if event is None:
            thunk()
            return
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time passes ``until``.

        Boundary semantics (pinned by tests): entries scheduled exactly
        at ``until`` still run; the first entry strictly later does not,
        and the clock is left at ``until`` — also when the queue drains
        before reaching it. A drain ends at the latest instant queued,
        an expiry's that ``expire_later`` dropped unrun included.
        """
        heap = self._heap
        limit = inf if until is None else until
        # Drain loop with the step body inlined: one call frame per
        # entry saved, identical (when, eid) pop order.
        while heap:
            entry = heappop(heap)
            when, __, event, thunk = entry
            if when > limit:
                heappush(heap, entry)  # past the horizon: put it back
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
        if until is None:
            if self._expiries_until > self.now:
                self.now = self._expiries_until
        elif until > self.now:
            self.now = until

    def run_process(self, generator: Generator) -> Any:
        """Convenience: run a generator to completion and return its value."""
        process = self.process(generator)
        del generator  # the process holds it; a failure keeps this frame
        self.run()
        try:
            return process.result()
        finally:
            del process
