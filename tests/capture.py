"""Test helper: record what a link, a port or a datagram socket hands up.

Every layer hands its output to a callback its consumer installs (a
link's ``sink``, a port's ``listen``, a socket's ``deliver``); nothing
queues it for a later pull. A test that only observes installs this;
a test that drives an RPC server with no network under it gives it a
:class:`StubSocket`.
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


def sending(send, *args):
    """Process: call ``send(*args)`` — a port's ``send`` or a socket's
    ``sendto``, both of which return the event of their last frame's
    serialization — once the process starts, and wait for that event.

    A test that ran a send as a process (``sim.process(...)``,
    ``sim.run_process(...)``, ``sim.spawn(...)``) wraps it in this, so
    the frame still leaves in the process's first entry."""
    return (yield send(*args))


class StubSocket:
    """A datagram socket with no network: the test calls ``deliver``
    with ``(src, payload, size)`` itself, and each send is recorded as
    ``(time, dst, payload, size)`` in ``sent`` and serialized at once."""

    def __init__(self, sim, address):
        self.sim = sim
        self.address = address
        self.deliver = None
        self.sent = []

    def sendto(self, dst, payload, size):
        self.sent.append((self.sim.now, dst, payload, size))
        return self.sim.timeout(0.0)
