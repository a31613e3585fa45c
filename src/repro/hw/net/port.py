"""A named, bidirectional network endpoint (one QSFP cage or host NIC)."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.errors import ConfigurationError
from repro.hw.net.frames import Frame
from repro.hw.net.link import Link
from repro.sim import Simulator


class NetworkPort:
    """A device-side attachment point with a TX link per peer.

    Ports are wired together by a :class:`repro.hw.net.switch.Network`; the
    port only knows "to reach address X, transmit on link L".
    """

    def __init__(self, sim: Simulator, address: str):
        self.sim = sim
        self.address = address
        self._routes: Dict[str, Link] = {}
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

    def add_route(self, destination: str, link: Link) -> None:
        self._routes[destination] = link

    def route(self) -> Link:
        """The default (``"*"``) TX link: the fault wiring hook."""
        link = self._routes.get("*")
        if link is None:
            raise ConfigurationError(f"port {self.address} has no route to *")
        return link

    def send(self, frame: Frame):
        """Process: transmit a frame toward its destination."""
        link = self._routes.get(frame.dst)
        if link is None:
            link = self._routes.get("*")
        if link is None:
            raise ConfigurationError(
                f"port {self.address} has no route to {frame.dst}"
            )
        self._tx_frames.inc()
        yield link.enqueue(frame)

    def receive(self):
        """Event: next frame arriving at this port."""
        return self._rx().receive()

    def listen(self, on_frame: Callable[[Frame], None]) -> None:
        """Hand every arriving frame to *on_frame* instead of queueing it
        for :meth:`receive` (one listener per port; the last one wins)."""
        self._rx().sink = on_frame

    def _rx(self) -> Link:
        if self.rx_link is None:
            raise ConfigurationError(f"port {self.address} has no RX link")
        return self.rx_link
