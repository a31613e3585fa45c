"""Substrate oracle for a link's transmitter, both of its paths.

One :class:`Link` fed seeded Poisson frames of one size is an M/D/1
queue: service is the frame's serialization, ``S = wire_size /
bandwidth``. A frame's wait in queue is its delivery instant less its
offer instant, ``S`` and the propagation, and its mean must match the
Pollaczek–Khinchine formula ``rho*S / (2*(1 - rho))`` on either path:

* :meth:`Link.enqueue`, a sender's path: a busy flag and a FIFO
  backlog, one serialization entry per frame;
* :meth:`Link.forward`, a switch egress: no entry, the instant a frame
  will have left is busy-until arithmetic.

The tolerance is the batch-means one of ``tests/test_rpc_queue_oracle.py``:
after a warm-up tenth, ``BATCHES`` consecutive batch means, whose grand
mean must lie within ``Z`` standard errors of the formula, with the
standard error below a tenth of the expected wait.
"""

import random
import statistics
from functools import partial

import pytest

from repro.hw.net import Frame, Link
from repro.sim import Simulator

#: Frame payload; with the Ethernet overhead a frame is 1,000 B on the wire.
PAYLOAD = 962
#: Link rate in bytes per second: one frame serializes in 1 ms.
BANDWIDTH = 1e6
#: Serialization time of one frame.
S = 1e-3
#: Frames per run.
FRAMES = 30_000
#: Batches for the batch-means standard error.
BATCHES = 20
#: Two-sided bound in standard errors (about t(19) at 0.9995).
Z = 4.0


def md1_waits(offer, rho, seed=1):
    """Each frame's wait in queue on one link, offered by ``offer(link,
    frame)`` at seeded Poisson instants."""
    sim = Simulator()
    link = Link(sim, BANDWIDTH)
    delivered = {}
    link.sink = lambda frame: delivered.setdefault(frame.payload, sim.now)
    rng = random.Random(f"link-md1/{rho}/{seed}")
    offered = []
    arrival = 0.0
    for index in range(FRAMES):
        arrival += rng.expovariate(rho / S)
        offered.append(arrival)
        frame = Frame("a", "b", index, PAYLOAD)
        assert frame.wire_size / BANDWIDTH == S
        sim.call_later(arrival, partial(offer, link, frame))
    sim.run()
    assert len(delivered) == FRAMES
    return [delivered[index] - at - S - link.propagation
            for index, at in enumerate(offered)]


def enqueue(link, frame):
    link.enqueue(frame)


def forward(link, frame):
    link.forward(frame)


@pytest.mark.parametrize("offer", [enqueue, forward])
@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_link_wait_matches_pollaczek_khinchine(offer, rho):
    kept = md1_waits(offer, rho)[FRAMES // 10:]
    size = len(kept) // BATCHES
    means = [statistics.fmean(kept[i * size:(i + 1) * size])
             for i in range(BATCHES)]
    mean = statistics.fmean(means)
    error = statistics.stdev(means) / BATCHES ** 0.5
    expected = rho * S / (2 * (1 - rho))
    assert error < 0.1 * expected
    assert abs(mean - expected) <= Z * error, (
        f"{offer.__name__}, rho={rho}: mean wait {mean:.3e} s, "
        f"M/D/1 {expected:.3e} s, standard error {error:.3e} s"
    )
