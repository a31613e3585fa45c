"""Simulated WAN links and the multi-region fabric they form.

A region is an ordinary :class:`~repro.hw.net.Network` (a star around one
switch). The :class:`WanFabric` joins regions with *directional*
:class:`WanLink` pairs — each direction has its own propagation delay and
bandwidth, because real WAN paths are asymmetric (different fiber routes,
different transit providers) and the asymmetry is exactly what partial
partitions exploit.

Routing stays the plain address-keyed switch: the fabric registers every
remote endpoint address in every other region's switch, with the
inter-region :class:`WanLink` as the egress. A frame from a client in
region B to a DPU in region A therefore travels
``client -> B.switch -> wan(B->A) -> A.switch -> dpu`` and pays the WAN
propagation exactly once per crossing.

Partitions are directional too: :meth:`WanLink.partition` (manual, or a
:data:`~repro.faults.FaultKind.WAN_PARTITION` window from a
:class:`~repro.faults.FaultPlan`) silently drops frames on that direction
only. A symmetric partition is two directional ones.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import gbps
from repro.faults import FaultInjector, FaultKind
from repro.hw.net import Network
from repro.hw.net.frames import Frame
from repro.hw.net.link import Link
from repro.hw.net.port import NetworkPort
from repro.sim import Simulator

__all__ = ["DEFAULT_WAN_BANDWIDTH", "DEFAULT_WAN_PROPAGATION",
           "WanFabric", "WanLink", "wan_component"]

#: Inter-region backbones are provisioned far below intra-rack rates.
DEFAULT_WAN_BANDWIDTH = gbps(10)

#: ~1000 km of fiber one way (5 us/km).
DEFAULT_WAN_PROPAGATION = 5e-3


def wan_component(src: str, dst: str) -> str:
    """The canonical component id for the directional link ``src -> dst``.

    This is the id :meth:`~repro.faults.FaultPlan.wan_partition` targets,
    and the path the link's telemetry counters live under.
    """
    return f"wan.{src}->{dst}"


class WanLink(Link):
    """One direction of an inter-region path, partitionable at runtime.

    On top of the base :class:`~repro.hw.net.link.Link` fault surface
    (drops, corruption, LINK_DOWN windows) a WAN link can be
    *partitioned*: every frame offered while partitioned is silently
    dropped, whether the partition came from a manual
    :meth:`partition` call or an active
    :data:`~repro.faults.FaultKind.WAN_PARTITION` window in the attached
    fault plan. The ``partitioned`` gauge and ``frames_partitioned``
    counter make the split visible in telemetry snapshots.
    """

    TX_SPAN = "wan.tx"
    TX_SUBSTRATE = "wan"

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        bandwidth: float = DEFAULT_WAN_BANDWIDTH,
        propagation: float = DEFAULT_WAN_PROPAGATION,
        injector: Optional[FaultInjector] = None,
    ):
        super().__init__(
            sim, bandwidth, propagation,
            injector=injector, component=wan_component(src, dst),
        )
        self.src = src
        self.dst = dst
        self._manual_partition = False
        self._partitioned_gauge = self._metrics.gauge("partitioned")
        self._frames_partitioned = self._metrics.counter("frames_partitioned")

    @property
    def partitioned(self) -> bool:
        """Whether frames offered right now would be dropped by a partition."""
        if self._manual_partition:
            return True
        return (
            self.injector is not None
            and self.injector.active(self.component, FaultKind.WAN_PARTITION)
        )

    def partition(self) -> None:
        """Manually partition this direction, for good."""
        self._manual_partition = True
        self._partitioned_gauge.set(1)

    def forward(self, frame: Frame) -> None:
        # A partition (manual or planned) is decided as the frame
        # finishes serializing, so a WAN hop keeps that entry.
        self.enqueue(frame)

    def _fault_outcome(self, frame: Frame) -> Optional[str]:
        if self.partitioned:
            self._frames_partitioned.inc()
            return "drop"
        return super()._fault_outcome(frame)


class WanFabric:
    """Named regions plus the directional WAN links joining them.

    Wiring order: add regions, connect them, create endpoints, then
    :meth:`refresh` (idempotent — every helper that adds an endpoint
    calls it again). Refresh gives every region's switch an egress route
    for every *remote* address, so cross-region frames hop
    switch -> WAN link -> switch without any overlay addressing.
    """

    def __init__(self, sim: Simulator,
                 injector: Optional[FaultInjector] = None):
        self.sim = sim
        self._recorder = getattr(sim, "recorder", None)
        self.injector = injector
        self.regions: Dict[str, Network] = {}
        self.links: Dict[Tuple[str, str], WanLink] = {}
        self._metrics = sim.telemetry.unique_scope("wan.fabric")
        self._partitions = self._metrics.counter("partitions")
        # Frozen path: registry snapshots (and so E17's digests) list
        # it, though nothing heals a manual partition any more.
        self._metrics.counter("heals")

    # -- topology -------------------------------------------------------------
    def add_region(self, name: str, network: Network) -> Network:
        if name in self.regions:
            raise ConfigurationError(f"duplicate region {name!r}")
        self.regions[name] = network
        return network

    def connect(
        self,
        src: str,
        dst: str,
        *,
        bandwidth: float = DEFAULT_WAN_BANDWIDTH,
        propagation: float = DEFAULT_WAN_PROPAGATION,
    ) -> WanLink:
        """Create the directional link ``src -> dst``.

        Call twice (once per direction) to join a region pair; giving
        the directions different propagation/bandwidth models real
        asymmetric WAN paths.
        """
        for name in (src, dst):
            if name not in self.regions:
                raise ConfigurationError(f"unknown region {name!r}")
        if (src, dst) in self.links:
            raise ConfigurationError(f"link {src}->{dst} already exists")
        link = WanLink(self.sim, src, dst, bandwidth, propagation,
                       injector=self.injector)
        self.links[(src, dst)] = link
        # Frames arriving over this link are forwarded by dst's switch.
        self.regions[dst].switch.attach_ingress(link)
        return link

    def link(self, src: str, dst: str) -> WanLink:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise ConfigurationError(f"no WAN link {src}->{dst}") from None

    def refresh(self) -> None:
        """(Re)register every remote address in every region's switch.

        Idempotent; call after creating endpoints. Frames for an address
        in region B leaving region A egress over the A->B link. A
        duplicate address across regions would make routing ambiguous,
        so it is a configuration error.
        """
        homes: Dict[str, str] = {}
        for region, network in self.regions.items():
            for address in network._ports:
                if address in homes:
                    raise ConfigurationError(
                        f"address {address!r} exists in both "
                        f"{homes[address]!r} and {region!r}"
                    )
                homes[address] = region
        for src, network in self.regions.items():
            for address, home in homes.items():
                if home == src:
                    continue
                link = self.links.get((src, home))
                if link is not None:
                    network.switch.connect_egress(address, link)

    def endpoint(self, region: str, address: str) -> NetworkPort:
        """Create (or fetch) an endpoint in *region*, refreshing routes."""
        if region not in self.regions:
            raise ConfigurationError(f"unknown region {region!r}")
        port = self.regions[region].endpoint(address)
        self.refresh()
        return port

    # -- partitions -----------------------------------------------------------
    def partition(self, src: str, dst: str) -> None:
        """Partition ``src -> dst``."""
        self.link(src, dst).partition()
        self._partitions.inc()
        if self._recorder is not None:
            self._recorder.record(
                "wan", f"wan partition {src}->{dst} at={self.sim.now!r}"
            )
