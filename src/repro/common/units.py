"""Units of size, time, and bandwidth used throughout the simulator.

Conventions
-----------
* Simulated time is a ``float`` measured in **seconds**.
* Sizes are ``int`` **bytes**.
* Bandwidths are ``float`` **bytes per second** (helpers accept Gbit/s).

Text configs (workload specs, SLO rules) spell quantities with the same
suffixes, read by :func:`parse_quantity`.
"""

import math

from repro.common.errors import ConfigurationError

# --- sizes (bytes) ---------------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

# --- times (seconds) -------------------------------------------------------
NSEC = 1e-9
USEC = 1e-6
MSEC = 1e-3
SEC = 1.0

# --- bandwidth -------------------------------------------------------------
GBPS = 1e9 / 8.0  # one gigabit per second, expressed in bytes/second


def gbps(rate_gbit: float) -> float:
    """Convert a rate in Gbit/s into bytes/second."""
    return rate_gbit * GBPS


#: The time suffixes :func:`parse_quantity` reads, two-letter ones first.
_SUFFIXES = {"ns": NSEC, "us": USEC, "ms": MSEC, "s": SEC}


def parse_quantity(text: str) -> float:
    """A finite number, optionally with a time suffix, in seconds.

    >>> parse_quantity("2ms")
    0.002
    >>> parse_quantity("150us") == 150 * USEC
    True
    >>> parse_quantity("0.25")
    0.25
    >>> parse_quantity("nanms")
    Traceback (most recent call last):
    ...
    repro.common.errors.ConfigurationError: quantity 'nanms' is not finite
    """
    value = None
    for suffix, unit in _SUFFIXES.items():
        if text.endswith(suffix) and len(text) > len(suffix):
            try:
                value = float(text[: -len(suffix)]) * unit
            except ValueError:
                pass
            break
    if value is None:
        try:
            value = float(text)
        except ValueError:
            raise ConfigurationError(f"cannot parse quantity {text!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"quantity {text!r} is not finite")
    return value


def format_bytes(size: int) -> str:
    """Render a byte count using binary units, e.g. ``1.5 MiB``."""
    if size < 0:
        raise ValueError("size must be non-negative")
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def format_time(seconds: float) -> str:
    """Render a duration with the most natural unit, e.g. ``12.3 us``."""
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    if seconds == 0:
        return "0 s"
    if seconds < USEC:
        return f"{seconds / NSEC:.1f} ns"
    if seconds < MSEC:
        return f"{seconds / USEC:.1f} us"
    if seconds < SEC:
        return f"{seconds / MSEC:.1f} ms"
    return f"{seconds:.3f} s"
