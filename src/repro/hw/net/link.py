"""Point-to-point links with serialization and propagation delay."""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Optional, Tuple

from repro.common.units import gbps
from repro.faults import FaultInjector, FaultKind
from repro.hw.net.frames import Frame
from repro.sim import Event, Simulator, Store

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
    when it will have left is busy-until arithmetic.

    :attr:`sink` is a one-argument callable. It defaults to this link's
    receive queue (drained with :meth:`receive`); a datagram socket
    installs its reassembly there. A link that feeds a switch has an
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
        self.rx_queue: Store = Store(sim)
        #: Where a frame goes once it has propagated.
        self.sink: Callable[[Frame], None] = self.rx_queue.put_nowait
        #: ``ingress(frame, arrive_at)``, set by the switch this link
        #: feeds; takes the place of the propagation entry and the sink.
        self.ingress: Optional[Callable[[Frame, float], None]] = None
        #: ``(frame, span, done)`` being serialized, then those waiting
        #: for the transmitter in FIFO order. ``span`` is the open net.tx
        #: span (None untraced); ``done`` wakes a sender that had to
        #: queue (None when it holds the serialization timeout itself).
        self._sending: Optional[Tuple[Frame, Any, Optional[Event]]] = None
        self._backlog: Deque[Tuple[Frame, Any, Event]] = deque()
        #: When the last :meth:`forward`-ed frame has left the
        #: transmitter; an enqueued frame cannot start before it.
        self._busy_until = 0.0
        self._on_serialized_cb = self._on_serialized
        self.injector = injector
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
        self.component = component
        self._metrics.rename(component)
        return self

    def serialization_delay(self, frame: Frame) -> float:
        return frame.wire_size / self.bandwidth

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
        if self._sending is None:
            return self._serialize((frame, span, None))
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
        + propagation``: no serialization entry. A link with a fault
        injector takes the :meth:`enqueue` path instead, so its draws
        happen at the completion instant and in completion order; so does
        a frame behind one that is.
        """
        if self._sending is not None or self.injector is not None:
            self.enqueue(frame)
            return
        now = self.sim.now
        busy = self._busy_until
        self._busy_until = done = (
            (busy if busy > now else now) + frame.wire_size / self.bandwidth
        )
        if self._tracer.enabled:
            self._tx_span(frame).finish(end=done)
        self._frames_sent.inc()
        self._bytes_sent.inc(frame.wire_size)
        if self.ingress is not None:
            self.ingress(frame, done + self.propagation)
        else:
            self.sim.call_at(done + self.propagation, partial(self.sink, frame))

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

    def _serialize(self, entry: Tuple[Frame, Any, Optional[Event]]) -> Event:
        self._sending = entry
        sim = self.sim
        delay = self.serialization_delay(entry[0])
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
        frame, span, done = self._sending
        if self._backlog:
            self._serialize(self._backlog.popleft())
        else:
            self._sending = None
        if done is not None:
            done.succeed()
        if span is not None:
            span.finish()
        self._frames_sent.inc()
        self._bytes_sent.inc(frame.wire_size)
        outcome = self._fault_outcome(frame)
        if outcome == "drop":
            self._frames_dropped.inc()
        elif outcome == "corrupt":
            self._frames_corrupted.inc()
        elif self.ingress is not None:
            self.ingress(frame, self.sim.now + self.propagation)
        else:
            self.sim.call_later(self.propagation, partial(self.sink, frame))

    def receive(self):
        """Event: the next frame out of the receive queue."""
        return self.rx_queue.get()
