"""Point-to-point links with serialization and propagation delay."""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappush
from typing import Any, Callable, Deque, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import gbps
from repro.faults import FaultInjector, FaultKind
from repro.hw.net.frames import Frame
from repro.sim import Event, Simulator

#: 100 Gbit/s in bytes/second.
QSFP28_100G = gbps(100)

#: Propagation within one datacenter rack/row (~2-5 us is typical including
#: switch transit; links default to 1 us each way and switches add more).
DEFAULT_PROPAGATION = 1e-6


class Link:
    """A unidirectional link delivering frames to its :attr:`sink`.

    The transmitter serializes one frame at a time — a busy flag plus a
    FIFO backlog — so back-to-back frames leave at line rate;
    propagation is pipelined (multiple frames can be in flight). No
    process runs per frame: serialization is one timeout whose first
    callback is the link's own bookkeeping, propagation one scheduled
    callback that hands the frame to :attr:`sink`. A frame nobody waits
    on (:meth:`forward`, a switch egress) skips the serialization entry:
    when it will have left is busy-until arithmetic. A frame that had to
    queue behind another is woken as the one before it has left: in an
    entry of its own when its sender waits on it, inline (no entry) when
    nobody does — a sender waits on :meth:`enqueue`'s event in the entry
    that sent, or never.

    :attr:`sink` is a one-argument callable the consumer installs (via
    :meth:`NetworkPort.listen`); until then a frame raises
    ``ConfigurationError``. A link that feeds a switch has an
    :attr:`ingress` instead: it is told, as the frame leaves the
    transmitter, the instant the frame will arrive, and schedules its
    own stage from that — the propagation costs no entry of its own.

    A fault injector attached via :meth:`attach_faults` can drop frames
    (FRAME_DROP), corrupt them (FRAME_CORRUPT — the receiver's FCS check
    discards them), or hold the link down for a window (LINK_DOWN).

    All counters live in the simulator's telemetry registry under this
    link's component path (the same id the fault injector consults).
    """

    #: Span name/substrate for transmits; WAN links override these so a
    #: cross-region trace shows where the flow left the datacenter.
    TX_SPAN = "net.tx"
    TX_SUBSTRATE = "net"

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = QSFP28_100G,
        propagation: float = DEFAULT_PROPAGATION,
        injector: Optional[FaultInjector] = None,
        component: str = "link",
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation < 0:
            raise ValueError("propagation must be non-negative")
        self.sim = sim
        self._tracer = sim.tracer
        self.bandwidth = bandwidth
        self.propagation = propagation
        #: Where a frame goes once it has propagated.
        self.sink: Callable[[Frame], None] = self._unheard
        #: ``ingress(frame, arrive_at)``, set by the switch this link
        #: feeds; takes the place of the propagation entry and the sink.
        self.ingress: Optional[Callable[[Frame, float], None]] = None
        #: The frame being serialized, its net.tx span (None untraced)
        #: and what wakes its sender if it had to queue (else None); then
        #: ``(frame, span, done)`` of those waiting, in FIFO order.
        self._sending: Optional[Frame] = None
        self._sending_span: Any = None
        self._sending_done: Optional[Event] = None
        self._backlog: Deque[Tuple[Frame, Any, Event]] = deque()
        #: When the last :meth:`forward`-ed frame has left the
        #: transmitter; an enqueued frame cannot start before it.
        self._busy_until = 0.0
        self._on_serialized_cb = self._on_serialized
        self.injector = injector
        #: Whether a serialized frame consults :meth:`_fault_outcome`:
        #: only once something here can fail one.
        self._screened = injector is not None
        self.component = component
        self._metrics = sim.telemetry.unique_scope(component)
        self._frames_sent = self._metrics.counter("frames_sent")
        self._frames_dropped = self._metrics.counter("frames_dropped")
        self._frames_corrupted = self._metrics.counter("frames_corrupted")
        self._bytes_sent = self._metrics.counter("bytes_sent")

    def attach_faults(self, injector: FaultInjector, component: str) -> "Link":
        """Bind this link to a fault injector under the given component id.

        The link's metrics move to the same path, so the fault schedule
        and the telemetry snapshot agree on names.
        """
        self.injector = injector
        self._screened = True
        self.component = component
        self._metrics.rename(component)
        return self

    def _fault_outcome(self, frame: Frame) -> Optional[str]:
        """Consult the injector once per transmitted frame."""
        if self.injector is None:
            return None
        if self.injector.active(self.component, FaultKind.LINK_DOWN):
            return "drop"
        if self.injector.fires(self.component, FaultKind.FRAME_DROP):
            return "drop"
        if self.injector.fires(self.component, FaultKind.FRAME_CORRUPT):
            return "corrupt"
        return None

    def enqueue(self, frame: Frame) -> Event:
        """Offer *frame* to the transmitter; the returned event fires once
        it has been serialized (delivery follows ``propagation`` later).

        On an idle transmitter that event is the serialization timeout
        itself, so the sender resumes in the same engine entry the link's
        bookkeeping runs in.
        """
        # net.tx is the highest-frequency span site in the system; the
        # attrs dict is only built when tracing is actually on.
        span = self._tx_span(frame) if self._tracer.enabled else None
        if self._sending is None:  # _start inlined: the common case
            self._sending, self._sending_span = frame, span
            self._sending_done = None
            sim = self.sim
            delay = frame.wire_size / self.bandwidth
            if self._busy_until > sim.now:
                serialized = sim.timeout_at(self._busy_until + delay)
            else:
                serialized = sim.timeout(delay)
            serialized.callbacks.append(self._on_serialized_cb)
            return serialized
        done = Event(self.sim)
        self._backlog.append((frame, span, done))
        return done

    def forward(self, frame: Frame) -> None:
        """Transmit *frame* for a sender that does not wait on it (a
        switch egress).

        When it will have left the transmitter is known now — ``done =
        max(now, busy_until) + serialization``, the float the
        serialization timeout would reach — so the frame is counted,
        its span closed at ``done`` and its arrival scheduled at ``done
        + propagation``: no serialization entry. A link that can fail a
        frame (:attr:`_screened`) takes the :meth:`enqueue` path instead,
        so its draws happen at the completion instant and in completion
        order; so does a frame behind one that is.
        """
        if self._sending is not None or self._screened:
            self.enqueue(frame)
            return
        sim = self.sim
        now = sim.now
        busy = self._busy_until
        self._busy_until = done = (
            (busy if busy > now else now) + frame.wire_size / self.bandwidth
        )
        if self._tracer.enabled:
            self._tx_span(frame).finish(end=done)
        self._frames_sent.value += 1
        self._bytes_sent.value += frame.wire_size
        if self.ingress is not None:
            self.ingress(frame, done + self.propagation)
        else:  # the arrival entry, pushed inline (see the engine notes)
            sim._eid = eid = sim._eid + 1
            heappush(sim._heap, (done + self.propagation, eid, None,
                                 partial(self.sink, frame)))

    def _tx_span(self, frame: Frame):
        """Open the ``net.tx`` span of *frame* (tracing is on)."""
        tracer = self._tracer
        context = frame.trace
        if context is None:
            # First hop runs inside the sender's generator: stamp the
            # active flow onto the frame so downstream switch hops
            # (scheduled callbacks, outside any flow) can rejoin it.
            context = frame.trace = tracer.active_context
        if context is not None:
            return tracer.begin(
                context, self.TX_SPAN, self.TX_SUBSTRATE,
                {"component": self.component, "bytes": frame.wire_size},
            )
        return tracer.span(
            self.TX_SPAN, self.TX_SUBSTRATE,
            component=self.component, bytes=frame.wire_size,
        )

    def _start(self, frame: Frame, span: Any, done: Optional[Event]) -> Event:
        """Serialize *frame* now: the start of a frame that queued
        (:meth:`enqueue` starts one on an idle transmitter inline)."""
        self._sending, self._sending_span, self._sending_done = frame, span, done
        sim = self.sim
        delay = frame.wire_size / self.bandwidth
        if self._busy_until > sim.now:
            # Behind a forwarded frame still on the wire.
            serialized = sim.timeout_at(self._busy_until + delay)
        else:
            serialized = sim.timeout(delay)
        # Appended before any waiter can be: the link's bookkeeping runs
        # first, the sender resumes after it, both in this one entry.
        serialized.callbacks.append(self._on_serialized_cb)
        return serialized

    def _on_serialized(self, _event: Event) -> None:
        frame, span, done = self._sending, self._sending_span, self._sending_done
        if self._backlog:
            self._start(*self._backlog.popleft())
        else:
            self._sending = None
        if done is not None:
            if done.callbacks:
                done.succeed()
            else:
                # Nobody waits, and nobody will (a sender waits on its
                # send's event at once or never): no wake-up entry.
                done.wake()
        if span is not None:
            span.finish()
        self._frames_sent.value += 1
        self._bytes_sent.value += frame.wire_size
        if self._screened:
            outcome = self._fault_outcome(frame)
            if outcome == "drop":
                self._frames_dropped.value += 1
                return
            if outcome == "corrupt":
                self._frames_corrupted.value += 1
                return
        if self.ingress is not None:
            self.ingress(frame, self.sim.now + self.propagation)
        else:
            self.sim.call_later(self.propagation, partial(self.sink, frame))

    def _unheard(self, frame: Frame) -> None:
        raise ConfigurationError(
            f"frame for {frame.dst} arrived on {self.component}, "
            "where nothing listens"
        )
