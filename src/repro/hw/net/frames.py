"""Ethernet frames carried on simulated links."""

from __future__ import annotations

from typing import Any

#: Ethernet header + FCS + preamble + IPG, amortized per frame.
ETHERNET_HEADER = 38
#: Standard (non-jumbo) MTU payload.
MAX_FRAME_PAYLOAD = 1500


class Frame:
    """A layer-2 frame. ``payload`` is an arbitrary protocol message.

    ``payload_size`` is the *modeled* size used for serialization-delay
    accounting (protocol messages are Python objects, not byte strings, so
    the sender must declare how large they would be on the wire).
    ``wire_size`` adds the per-frame Ethernet overhead; it is fixed at
    construction, since every hop reads it. A ``__slots__`` value
    object: every frame of every flow is one.
    """

    __slots__ = ("src", "dst", "payload", "payload_size", "wire_size",
                 "trace")

    def __init__(self, src: str, dst: str, payload: Any, payload_size: int):
        if payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_size = payload_size
        self.wire_size = payload_size + ETHERNET_HEADER
        #: The sampled :class:`~repro.telemetry.TraceContext` of the flow
        #: that sent this frame, if any. Stamped by the first (in-flow)
        #: hop and read by every later hop's link, so store-and-forward
        #: hops — scheduled callbacks, outside any flow — still attach
        #: their spans to the right one.
        self.trace = None

    def __repr__(self) -> str:
        return (f"Frame(src={self.src!r}, dst={self.dst!r}, "
                f"payload={self.payload!r}, "
                f"payload_size={self.payload_size})")
