"""Substrate oracle for one NAND die: an M/D/1 queue.

A :class:`FlashArray` with one channel and one die, fed seeded Poisson
``read_page`` arrivals, is an M/D/1 queue whose service is the die's
read latency ``S`` (80 µs): a read holds the die for exactly ``S``, then
moves its page over the channel in ``T`` = page size / channel
bandwidth. With one die the channel never queues (``T`` < ``S``, and
reads leave the die at least ``S`` apart), so a read's wait for the die
is its completion less its arrival, ``S`` and ``T``. Its mean must
match the Pollaczek–Khinchine formula ``rho*S / (2*(1 - rho))``.

The tolerance is the batch-means one of
``tests/test_resource_queue_oracle.py``: after a warm-up tenth,
``BATCHES`` consecutive batch means, whose grand mean must lie within
``Z`` standard errors of the formula, with the standard error below a
tenth of the expected wait. The mean cannot see the order reads are
served in; what it does see is a die that serves two reads at once.
"""

import random
import statistics
from functools import partial

import pytest

from repro.hw.nvme.flash import FlashArray
from repro.sim import Simulator

#: The die's read latency: the service time.
S = 80e-6
#: Reads per run.
READS = 15_000
#: Batches for the batch-means standard error.
BATCHES = 20
#: Two-sided bound in standard errors (about t(19) at 0.9995).
Z = 4.0


def md1_waits(rho, seed=1):
    """Each read's wait for the die, in arrival order."""
    sim = Simulator()
    flash = FlashArray(sim, channels=1, dies_per_channel=1)
    assert flash.timing.read_latency == S
    transfer = flash.timing.page_size / flash.timing.channel_bandwidth
    assert transfer < S
    rng = random.Random(f"flash-md1/{rho}/{seed}")
    arrivals = []
    done = [None] * READS

    def read(index):
        yield from flash.read_page(index)
        done[index] = sim.now

    def arrive(index):
        sim.spawn(read(index))

    arrival = 0.0
    for index in range(READS):
        arrival += rng.expovariate(rho / S)
        arrivals.append(arrival)
        sim.call_at(arrival, partial(arrive, index))
    sim.run()
    assert None not in done
    return [finished - at - S - transfer for finished, at in zip(done, arrivals)]


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_die_wait_matches_pollaczek_khinchine(rho):
    kept = md1_waits(rho)[READS // 10:]
    size = len(kept) // BATCHES
    means = [statistics.fmean(kept[i * size:(i + 1) * size])
             for i in range(BATCHES)]
    mean = statistics.fmean(means)
    error = statistics.stdev(means) / BATCHES ** 0.5
    expected = rho * S / (2 * (1 - rho))
    assert error < 0.1 * expected
    assert abs(mean - expected) <= Z * error, (
        f"rho={rho}: mean wait {mean:.3e} s, M/D/1 {expected:.3e} s, "
        f"standard error {error:.3e} s"
    )
