"""Energy accounting: component TDPs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ComponentPower:
    """One component's TDP envelope in watts."""

    name: str
    tdp_watts: float

    def __post_init__(self) -> None:
        if self.tdp_watts <= 0:
            raise ConfigurationError("TDP must be positive")


#: The Hyperion DPU bill of materials (paper: "approx. 230 Watts"):
#: one U280 (225 W max TDP per the datasheet is the card cap; typical
#: configuration budget ~150 W) + 4 NVMe SSDs + crossover board.
HYPERION_POWER: Dict[str, ComponentPower] = {
    "alveo-u280": ComponentPower("alveo-u280", 170.0),
    "nvme-0": ComponentPower("nvme-0", 12.0),
    "nvme-1": ComponentPower("nvme-1", 12.0),
    "nvme-2": ComponentPower("nvme-2", 12.0),
    "nvme-3": ComponentPower("nvme-3", 12.0),
    "xover-board+clk": ComponentPower("xover-board+clk", 12.0),
}


def total_tdp(components: Dict[str, ComponentPower]) -> float:
    return sum(component.tdp_watts for component in components.values())
