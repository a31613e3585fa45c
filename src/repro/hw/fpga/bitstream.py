"""Bitstreams and the signing/encryption authority for remote loading.

Paper §2.2: "Hyperion can run a privileged configuration kernel that can
receive authorized, encrypted FPGA bitstreams over a certain control network
port and assign slices to it." We model authorization with an HMAC over the
bitstream body and encryption as an opaque sealed payload.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigurationError
from repro.hw.fpga.resources import FabricResources


@dataclass(frozen=True)
class Bitstream:
    """A compiled accelerator image targeting one reconfigurable slot.

    ``kernel`` carries the executable model of the accelerator (for eBPF
    programs, a :class:`repro.hdl.engine.HardwarePipeline`); the fabric never
    inspects it, mirroring how a real FPGA treats configuration frames.
    """

    name: str
    resources: FabricResources
    size_bytes: int
    clock_hz: float = 250e6
    kernel: Any = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError("bitstream size must be positive")
        if self.clock_hz <= 0:
            raise ConfigurationError("clock frequency must be positive")


@dataclass(frozen=True)
class SignedBitstream:
    """A bitstream sealed for transport over the control network."""

    bitstream: Bitstream
    signature: bytes
    encrypted: bool = True


class BitstreamAuthority:
    """Signs bitstreams for tenants and verifies them at the DPU.

    A shared-key HMAC stands in for the vendor PKI; what matters for the
    blueprint is that *only* authorized images reach a slot.
    """

    def __init__(self, key: bytes):
        if not key:
            raise ConfigurationError("authority key must be non-empty")
        self._key = key

    def _digest(self, bitstream: Bitstream) -> bytes:
        material = f"{bitstream.name}:{bitstream.size_bytes}:{bitstream.clock_hz}"
        return hmac.new(self._key, material.encode(), hashlib.sha256).digest()

    def sign(self, bitstream: Bitstream) -> SignedBitstream:
        """Seal *bitstream*: signed and encrypted."""
        return SignedBitstream(bitstream, self._digest(bitstream))

    def verify(self, signed: SignedBitstream) -> bool:
        return hmac.compare_digest(self._digest(signed.bitstream), signed.signature)
