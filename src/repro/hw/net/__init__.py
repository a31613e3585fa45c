"""Ethernet substrate: frames, links, ports, and a simple switch.

Models the 2x100 Gbps QSFP28 ports of the Hyperion prototype and the
datacenter fabric between clients and DPUs. Latency is serialization delay
(size / bandwidth) plus propagation; switches add a store-and-forward hop.
"""

from repro.hw.net.frames import Frame, ETHERNET_HEADER, MAX_FRAME_PAYLOAD
from repro.hw.net.link import Link, QSFP28_100G
from repro.hw.net.port import NetworkPort
from repro.hw.net.switch import Switch, Network

__all__ = [
    "Frame",
    "ETHERNET_HEADER",
    "MAX_FRAME_PAYLOAD",
    "Link",
    "QSFP28_100G",
    "NetworkPort",
    "Switch",
    "Network",
]
