"""AXI-stream interconnect: the bus's static address-range map.

Paper §2.1: "we statically divide FPGA AXI-streaming bus address ranges to
map to FPGA DRAM addresses, and others to NVMe PCIe BAR addresses". The
interconnect is what makes the single-level store work: a 64-bit *bus
address* resolves to a backing target (a DRAM bank, the HBM stack, or an
NVMe controller BAR) purely by range."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class AddressRange:
    """A half-open window ``[base, base + size)`` routed to one target."""

    base: int
    size: int
    target: Any
    name: str

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise ConfigurationError("address range must be non-empty and positive")

    @property
    def end(self) -> int:
        return self.base + self.size

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end


class AxiStreamInterconnect:
    """The bus's address windows, overlap-checked; the arbiter of paper
    Figure 2."""

    def __init__(self) -> None:
        self._ranges: List[AddressRange] = []

    def add_range(self, window: AddressRange) -> None:
        for existing in self._ranges:
            if window.overlaps(existing):
                raise ConfigurationError(
                    f"range {window.name} overlaps {existing.name}"
                )
        self._ranges.append(window)
        self._ranges.sort(key=lambda r: r.base)

