"""A small discrete-event simulation kernel (simpy-flavoured, no deps).

Every hardware and protocol model in the Hyperion reproduction runs as a
generator-based :class:`Process` on top of a :class:`Simulator`. Processes
yield :class:`Event` objects (timeouts, resource grants, store gets) and are
resumed when those events fire.
"""

from repro.sim.engine import (
    TIMED_OUT,
    AllOf,
    AnyOf,
    Event,
    Process,
    Simulator,
    Timeout,
    expire,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Resource",
    "Store",
    "TIMED_OUT",
    "expire",
]
