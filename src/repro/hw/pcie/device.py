"""PCIe endpoints and bridges."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigurationError


@dataclass
class Bar:
    """A Base Address Register window; the root complex assigns ``base``."""

    size: int
    base: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size <= 0 or (self.size & (self.size - 1)) != 0:
            raise ConfigurationError("BAR size must be a positive power of two")


class PcieDevice:
    """An endpoint function (e.g. one NVMe controller)."""

    def __init__(self, name: str, bars: Optional[List[Bar]] = None):
        self.name = name
        self.bars = bars if bars is not None else [Bar(16 * 1024)]
        self.bus: Optional[int] = None
        self.device: Optional[int] = None

    @property
    def enumerated(self) -> bool:
        return self.bus is not None

    def bdf(self) -> str:
        """Bus:device.function string, post-enumeration."""
        if not self.enumerated:
            raise ConfigurationError(f"{self.name} not enumerated")
        return f"{self.bus:02x}:{self.device:02x}.0"


class PcieBridge:
    """A downstream bridge (one x4 bridge IP core in Figure 2)."""

    def __init__(self, name: str):
        self.name = name
        self.children: List[object] = []  # devices or bridges
        self.bus: Optional[int] = None

    def attach(self, child: object) -> None:
        if isinstance(child, PcieDevice) or isinstance(child, PcieBridge):
            self.children.append(child)
        else:
            raise ConfigurationError("can only attach devices or bridges")
