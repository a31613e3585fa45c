"""E1: the volume and energy-efficiency claims (paper §2).

"Hyperion is 5-10x more compact in volume, and 4-8x more energy efficient
with the maximum TDP energy specifications (approx. 230 Watts vs 1,600
Watts)."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baseline.server import SUPERMICRO_X12
from repro.eval.report import HIGHER, LOWER, Metric, Table, violated
from repro.power.energy import HYPERION_POWER, total_tdp
from repro.power.volume import HYPERION_VOLUME, DeviceVolume, volume_ratio


@dataclass
class EfficiencyReport:
    """E1 results: TDP and volume of both systems plus the ratios."""

    hyperion_tdp_w: float
    server_tdp_w: float
    energy_ratio: float
    hyperion_volume_l: float
    server_volume_l: float
    volume_ratio: float

    @property
    def energy_in_band(self) -> bool:
        return 4.0 <= self.energy_ratio <= 8.0

    @property
    def volume_in_band(self) -> bool:
        return 5.0 <= self.volume_ratio <= 10.0


def metrics(report) -> Dict[str, Metric]:
    return {
        "energy_ratio": Metric(report.energy_ratio, HIGHER, "x"),
        "volume_ratio": Metric(report.volume_ratio, HIGHER, "x"),
        "hyperion_tdp_w": Metric(report.hyperion_tdp_w, LOWER, "W"),
    }


def accept(report) -> List[str]:
    return violated(
        (abs(report.hyperion_tdp_w - 230.0) < 1.0,
         "Hyperion's max TDP is ~230 W"),
        (abs(report.server_tdp_w - 1600.0) < 1.0,
         "the 1U server's max TDP is ~1600 W"),
        (report.energy_in_band, "Hyperion is 4-8x more energy efficient"),
        (report.volume_in_band, "Hyperion is 5-10x more compact in volume"),
    )


def run_efficiency() -> EfficiencyReport:
    hyperion_tdp = total_tdp(HYPERION_POWER)
    server_tdp = SUPERMICRO_X12.max_tdp_watts
    server_volume = DeviceVolume("x12-1u", SUPERMICRO_X12.dimensions_mm)
    return EfficiencyReport(
        hyperion_tdp_w=hyperion_tdp,
        server_tdp_w=server_tdp,
        energy_ratio=server_tdp / hyperion_tdp,
        hyperion_volume_l=HYPERION_VOLUME.liters,
        server_volume_l=server_volume.liters,
        volume_ratio=volume_ratio(server_volume, HYPERION_VOLUME),
    )


def format_efficiency(report: EfficiencyReport) -> str:
    table = Table(
        "E1: compactness and energy efficiency (paper: 5-10x volume, "
        "4-8x energy, ~230 W vs ~1600 W)",
        ["metric", "hyperion", "1U server", "ratio", "paper band", "in band"],
    )
    table.add_row(
        "max TDP (W)", report.hyperion_tdp_w, report.server_tdp_w,
        f"{report.energy_ratio:.1f}x", "4-8x", report.energy_in_band,
    )
    table.add_row(
        "volume (L)", report.hyperion_volume_l, report.server_volume_l,
        f"{report.volume_ratio:.1f}x", "5-10x", report.volume_in_band,
    )
    return table.render()
