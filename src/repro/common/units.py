"""Units of size, time, and bandwidth used throughout the simulator.

Conventions
-----------
* Simulated time is a ``float`` measured in **seconds**.
* Sizes are ``int`` **bytes**.
* Bandwidths are ``float`` **bytes per second** (helpers accept Gbit/s).
"""

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
