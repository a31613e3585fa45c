"""A named, bidirectional network endpoint (one QSFP cage or host NIC)."""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.common.errors import ConfigurationError
from repro.hw.net.frames import Frame
from repro.hw.net.link import Link
from repro.sim import Event, Simulator


class NetworkPort:
    """A device-side attachment point: one TX link up to the switch and
    one RX link down from it.

    Ports are wired together by a :class:`repro.hw.net.switch.Network`;
    the port transmits every frame on its TX link, whatever its address.
    """

    def __init__(self, sim: Simulator, address: str):
        self.sim = sim
        self.address = address
        self._tx_link: Optional[Link] = None
        self.rx_link: Optional[Link] = None
        self._metrics = sim.telemetry.unique_scope(f"net.port.{address}")
        self._tx_frames = self._metrics.counter("tx_frames")
        # Frozen path: every telemetry snapshot lists it, and nothing on
        # the data path has ever written it (deliveries are counted on
        # the RX link, see ``Link.frames_delivered``). Making it count
        # moves every digest, so that belongs to a rebaseline change.
        self._metrics.counter("rx_frames")

    def attach_rx(self, link: Link) -> None:
        self.rx_link = link

    def attach_tx(self, link: Link) -> None:
        self._tx_link = link

    def route(self) -> Link:
        """The TX link: the fault wiring hook."""
        link = self._tx_link
        if link is None:
            raise ConfigurationError(f"port {self.address} has no TX link")
        return link

    def send(self, frame: Frame) -> Event:
        """Transmit a frame toward its destination; the returned event
        (the link's, see :meth:`Link.enqueue`) fires once the frame has
        been serialized.

        Wait on it in the entry that sent, or never: when a queued frame
        has left and nobody waits on its event, the event is woken
        inline, without the entry a waiter would resume in."""
        link = self._tx_link
        if link is None:
            raise ConfigurationError(
                f"port {self.address} has no route to {frame.dst}"
            )
        self._tx_frames.value += 1
        return link.enqueue(frame)

    def send_in_turn(self, frames: List[Union[Frame, Event]],
                     then: Callable[[], None]) -> None:
        """Send *frames* back to back — the first now, each later one
        as the one before it has been serialized — and call *then* once
        the last one has. An :class:`Event` among them holds the frames
        after it until it fires (a HOMA tail waits for its grant).

        No process runs: each frame's serialization event carries the
        callback that sends the next, behind the link's own bookkeeping,
        so the frames take exactly the entries a sender process looping
        over :meth:`send` would, and *then* runs in the last one. Those
        later sends run outside any flow, so when tracing is on every
        frame is stamped now with the caller's flow.
        """
        tracer = self.sim.tracer
        context = tracer.active_context if tracer.enabled else None
        if context is not None:
            for frame in frames:
                if isinstance(frame, Frame):
                    frame.trace = context
        pending = iter(frames)

        def send_next(_event=None) -> None:
            nonlocal send_next
            item = next(pending, None)
            if item is None:
                # Empty the cell through which this function names
                # itself: left full, every message would be a cycle.
                del send_next
                then()
            elif isinstance(item, Event):
                item.callbacks.append(send_next)
            else:
                self.send(item).callbacks.append(send_next)

        send_next()

    def listen(self, on_frame: Callable[[Frame], None]) -> None:
        """Hand every arriving frame to *on_frame* (one listener per
        port; the last one wins)."""
        if self.rx_link is None:
            raise ConfigurationError(f"port {self.address} has no RX link")
        self.rx_link.sink = on_frame
