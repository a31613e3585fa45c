"""Substrate oracle for a link's transmitter, both of its paths.

One :class:`Link` fed seeded Poisson frames of one size is an M/D/1
queue: service is the frame's serialization, ``S = wire_size /
bandwidth``. A frame's wait in queue is its delivery instant less its
offer instant, ``S`` and the propagation, and its mean must match the
Pollaczek–Khinchine formula ``rho*S / (2*(1 - rho))`` within the
batch-means bound of ``tests/queue_oracle.py`` on either path:

* :meth:`Link.enqueue`, a sender's path: a busy flag and a FIFO
  backlog, one serialization entry per frame;
* :meth:`Link.forward`, a switch egress: no entry, the instant a frame
  will have left is busy-until arithmetic.
"""

import random
from functools import partial

import pytest

from repro.hw.net import Frame, Link
from repro.sim import Simulator

from tests.queue_oracle import RHOS, arrivals, check_mean_wait, md1

#: Frame payload; with the Ethernet overhead a frame is 1,000 B on the wire.
PAYLOAD = 962
#: Link rate in bytes per second: one frame serializes in 1 ms.
BANDWIDTH = 1e6
#: Serialization time of one frame.
S = 1e-3
#: Frames per run.
FRAMES = 30_000


def md1_waits(offer, rho, seed=1):
    """Each frame's wait in queue on one link, offered by ``offer(link,
    frame)`` at seeded Poisson instants."""
    sim = Simulator()
    link = Link(sim, BANDWIDTH)
    delivered = {}
    link.sink = lambda frame: delivered.setdefault(frame.payload, sim.now)
    offered = list(arrivals(random.Random(f"link-md1/{rho}/{seed}"),
                            rho / S, FRAMES))
    for index, arrival in enumerate(offered):
        frame = Frame("a", "b", index, PAYLOAD)
        assert frame.wire_size / BANDWIDTH == S
        sim.call_later(arrival, partial(offer, link, frame))
    sim.run()
    assert len(delivered) == FRAMES
    return [delivered[index] - at - S - link.propagation
            for index, at in enumerate(offered)]


@pytest.mark.parametrize("offer", [Link.enqueue, Link.forward])
@pytest.mark.parametrize("rho", RHOS)
def test_link_wait_matches_pollaczek_khinchine(offer, rho):
    check_mean_wait(md1_waits(offer, rho), md1(rho, S),
                    f"{offer.__name__}, rho={rho}, M/D/1")
