"""Ethernet substrate: frames, links, ports, and a simple switch.

Models the 2x100 Gbps QSFP28 ports of the Hyperion prototype and the
datacenter fabric between clients and DPUs. Latency is serialization delay
(size / bandwidth) plus propagation; switches add a store-and-forward hop.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "frames": ("Frame", "ETHERNET_HEADER", "MAX_FRAME_PAYLOAD"),
    "link": ("Link", "QSFP28_100G"),
    "port": ("NetworkPort",),
    "switch": ("Switch", "Network"),
})
