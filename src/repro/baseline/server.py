"""The conventional 1U rack server Hyperion is compared against (§2).

"In comparison to a conventional 1U rack-mounted server like SuperMicro
X12, Hyperion is 5-10x more compact in volume, and 4-8x more energy
efficient with the maximum TDP energy specifications (approx. 230 Watts vs
1,600 Watts)."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class ConventionalServer:
    """A CPU-centric server's physical and power envelope."""

    name: str
    #: chassis (width, height, depth) in millimetres
    dimensions_mm: Tuple[float, float, float]
    #: maximum TDP power budget in watts, by component
    power_budget_w: Dict[str, float] = field(default_factory=dict)

    @property
    def max_tdp_watts(self) -> float:
        return sum(self.power_budget_w.values())


#: SuperMicro X12-class 1U server, dual-socket max configuration.
SUPERMICRO_X12 = ConventionalServer(
    name="supermicro-x12-1u",
    dimensions_mm=(438.0, 43.0, 730.0),
    power_budget_w={
        "cpus (2x 270W TDP)": 540.0,
        "dram (32 DIMMs)": 160.0,
        "nvme (10 bays)": 120.0,
        "nics": 50.0,
        "fans+psu loss+chipset": 330.0,
        "gpu/accel headroom": 400.0,
    },
)
