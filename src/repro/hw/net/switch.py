"""A store-and-forward switch and a convenience star-topology network."""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Dict, Set

from repro.common.errors import ConfigurationError
from repro.hw.net.frames import Frame
from repro.hw.net.link import DEFAULT_PROPAGATION, QSFP28_100G, Link
from repro.hw.net.port import NetworkPort
from repro.sim import Simulator

#: Cut-through datacenter switches forward in ~300-600 ns.
SWITCH_FORWARD_LATENCY = 500e-9


class Switch:
    """Forwards frames between attached links by destination address."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.forward_latency = SWITCH_FORWARD_LATENCY
        self._egress: Dict[str, Link] = {}
        self._blackholed: Set[str] = set()
        self._metrics = sim.telemetry.unique_scope("net.switch")
        self._frames_forwarded = self._metrics.counter("frames_forwarded")
        self._frames_blackholed = self._metrics.counter("frames_blackholed")

    def connect_egress(self, address: str, link: Link) -> None:
        self._egress[address] = link

    def blackhole(self, address: str) -> None:
        """Silently drop all frames to ``address`` (a dead endpoint)."""
        self._blackholed.add(address)

    def restore(self, address: str) -> None:
        self._blackholed.discard(address)

    def attach_ingress(self, link: Link) -> None:
        """Forward every frame arriving over *link*.

        The ingress stage takes one frame at a time, ``forward_latency``
        each: a frame that arrives while the previous one is still being
        looked up waits for it. The stage is fed by this one link, in
        FIFO order, so when the stage will be done with a frame is known
        as soon as its arrival instant is — when it leaves the link's
        transmitter. That is when the forward is scheduled: one entry
        per crossing of the stage, none for the arrival itself, pushed
        inline for the instant the stage computed (see the engine notes).
        """
        sim = self.sim
        forward = self._forward
        busy_until = 0.0  # when the stage is done with its last frame

        def ingress(frame: Frame, arrive_at: float) -> None:
            nonlocal busy_until
            start = busy_until if busy_until > arrive_at else arrive_at
            busy_until = when = start + self.forward_latency
            sim._eid = eid = sim._eid + 1
            heappush(sim._heap, (when, eid, None, partial(forward, frame)))

        link.ingress = ingress

    def _forward(self, frame: Frame) -> None:
        if frame.dst in self._blackholed:
            self._frames_blackholed.value += 1
            return
        egress = self._egress.get(frame.dst)
        if egress is None:
            # Unknown destination: drop, as a real switch floods/drops.
            return
        self._frames_forwarded.value += 1
        egress.forward(frame)


class Network:
    """A star topology: every endpoint hangs off one switch.

    ``network.endpoint("name")`` creates (or returns) a port whose frames
    traverse endpoint->switch and switch->destination links, giving a
    realistic two-hop RTT with serialization at each hop.
    """

    def __init__(self, sim: Simulator, propagation: float = DEFAULT_PROPAGATION):
        self.sim = sim
        self.bandwidth = QSFP28_100G
        self.propagation = propagation
        self.switch = Switch(sim)
        self._ports: Dict[str, NetworkPort] = {}

    def endpoint(self, address: str) -> NetworkPort:
        if address in self._ports:
            return self._ports[address]
        port = NetworkPort(self.sim, address)
        uplink = Link(
            self.sim, self.bandwidth, self.propagation,
            component=f"net.link.{address}.up",
        )
        downlink = Link(
            self.sim, self.bandwidth, self.propagation,
            component=f"net.link.{address}.down",
        )
        port.attach_tx(uplink)
        port.attach_rx(downlink)
        self.switch.attach_ingress(uplink)
        self.switch.connect_egress(address, downlink)
        self._ports[address] = port
        return port

    def port(self, address: str) -> NetworkPort:
        if address not in self._ports:
            raise ConfigurationError(f"no endpoint named {address}")
        return self._ports[address]
