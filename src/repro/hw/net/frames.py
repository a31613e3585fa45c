"""Ethernet frames carried on simulated links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Ethernet header + FCS + preamble + IPG, amortized per frame.
ETHERNET_HEADER = 38
#: Standard (non-jumbo) MTU payload.
MAX_FRAME_PAYLOAD = 1500


@dataclass
class Frame:
    """A layer-2 frame. ``payload`` is an arbitrary protocol message.

    ``payload_size`` is the *modeled* size used for serialization-delay
    accounting (protocol messages are Python objects, not byte strings, so
    the sender must declare how large they would be on the wire).
    """

    src: str
    dst: str
    payload: Any
    payload_size: int
    #: The sampled :class:`~repro.telemetry.TraceContext` of the flow
    #: that sent this frame, if any. Stamped by the first (in-flow) hop
    #: and read by every later hop's link, so store-and-forward hops —
    #: scheduled callbacks, outside any flow — still attach their spans
    #: to the right one.
    trace: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise ValueError("payload_size must be non-negative")

    @property
    def wire_size(self) -> int:
        return self.payload_size + ETHERNET_HEADER
