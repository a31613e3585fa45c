"""Substrate oracle for one NAND die: an M/D/1 queue.

A :class:`FlashArray` with one channel and one die, fed seeded Poisson
``read_page`` arrivals, is an M/D/1 queue whose service is the die's
read latency ``S`` (80 µs): a read holds the die for exactly ``S``, then
moves its page over the channel in ``T`` = page size / channel
bandwidth. With one die the channel never queues (``T`` < ``S``, and
reads leave the die at least ``S`` apart), so a read's wait for the die
is its completion less its arrival, ``S`` and ``T``. Its mean must
match the Pollaczek–Khinchine formula ``rho*S / (2*(1 - rho))`` within
the batch-means bound of ``tests/queue_oracle.py``. The mean cannot see
the order reads are served in; what it does see is a die that serves
two reads at once.
"""

import random
from functools import partial

import pytest

from repro.hw.nvme.flash import FlashArray
from repro.sim import Simulator

from tests.queue_oracle import RHOS, arrivals, check_mean_wait, md1

#: The die's read latency: the service time.
S = 80e-6
#: Reads per run.
READS = 15_000


def md1_waits(rho, seed=1):
    """Each read's wait for the die, in arrival order."""
    sim = Simulator()
    flash = FlashArray(sim, channels=1, dies_per_channel=1)
    assert flash.timing.read_latency == S
    transfer = flash.timing.page_size / flash.timing.channel_bandwidth
    assert transfer < S
    offered = list(arrivals(random.Random(f"flash-md1/{rho}/{seed}"),
                            rho / S, READS))
    done = [None] * READS

    def read(index):
        yield from flash.read_page(index)
        done[index] = sim.now

    def arrive(index):
        sim.spawn(read(index))

    for index, arrival in enumerate(offered):
        sim.call_later(arrival, partial(arrive, index))
    sim.run()
    assert None not in done
    return [finished - at - S - transfer for finished, at in zip(done, offered)]


@pytest.mark.parametrize("rho", RHOS)
def test_die_wait_matches_pollaczek_khinchine(rho):
    check_mean_wait(md1_waits(rho), md1(rho, S), f"rho={rho}, M/D/1")
