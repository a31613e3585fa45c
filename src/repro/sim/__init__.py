"""A small discrete-event simulation kernel (simpy-flavoured, no deps).

Every hardware and protocol model in the Hyperion reproduction runs as a
generator-based :class:`Process` on top of a :class:`Simulator`. Processes
yield :class:`Event` objects (timeouts, resource grants, store gets) and are
resumed when those events fire.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": ("TIMED_OUT", "AllOf", "Event", "Process", "Simulator",
               "Timeout", "expire"),
    "resources": ("Resource", "Store"),
})
