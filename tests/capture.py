"""Test helper: record what a link, a port or a datagram socket hands up.

Every layer hands its output to a callback its consumer installs (a
link's ``sink``, a port's ``listen``, a socket's ``deliver``); nothing
queues it for a later pull. A test that only observes installs this.
"""

from repro.hw.net import Link


def arrivals(sim, endpoint):
    """Record ``(time, what)`` for everything *endpoint* hands up: the
    payload of each frame reaching a :class:`~repro.hw.net.NetworkPort`
    or a :class:`~repro.hw.net.Link`, each complete ``(src, payload,
    size)`` message a datagram socket delivers."""
    seen = []
    if hasattr(endpoint, "deliver"):
        endpoint.deliver = lambda message: seen.append((sim.now, message))
        return seen

    def on_frame(frame):
        seen.append((sim.now, frame.payload))

    if isinstance(endpoint, Link):
        endpoint.sink = on_frame
    else:
        endpoint.listen(on_frame)
    return seen
