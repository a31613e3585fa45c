"""Power and volume models for the efficiency claims (paper §2, E1)."""

from repro.power.energy import ComponentPower, HYPERION_POWER
from repro.power.volume import HYPERION_VOLUME, DeviceVolume, volume_ratio

__all__ = [
    "ComponentPower",
    "HYPERION_POWER",
    "DeviceVolume",
    "HYPERION_VOLUME",
    "volume_ratio",
]
