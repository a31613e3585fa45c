"""Power and volume models for the efficiency claims (paper §2, E1)."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "energy": ("ComponentPower", "HYPERION_POWER"),
    "volume": ("HYPERION_VOLUME", "DeviceVolume", "volume_ratio"),
})
