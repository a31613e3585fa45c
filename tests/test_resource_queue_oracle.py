"""Substrate oracle for :class:`repro.sim.Resource`: an M/M/1 queue.

Seeded Poisson arrivals each take the one unit with
:meth:`Resource.acquire` — on the spot (it returns ``None``) when it is
free, else by waiting on the FIFO grant it returns, which ``release``
fires — hold it for an exponential time of mean ``H`` and release it.
That is an M/M/1 queue, whose mean wait for the unit is
``rho*H / (1 - rho)``.

The tolerance is the batch-means one of ``tests/test_link_queue_oracle.py``:
after a warm-up tenth, ``BATCHES`` consecutive batch means, whose grand
mean must lie within ``Z`` standard errors of the formula, with the
standard error below a tenth of the expected wait. The mean cannot see
the order waiters are served in (a LIFO grant gives the same mean);
what it does see is a grant that lets two holders overlap.
"""

import random
import statistics
from functools import partial

import pytest

from repro.sim import Resource, Simulator

#: Mean holding time.
H = 1e-3
#: Arrivals per run.
CUSTOMERS = 40_000
#: Batches for the batch-means standard error.
BATCHES = 20
#: Two-sided bound in standard errors (about t(19) at 0.9995).
Z = 4.0


def mm1_waits(rho, seed=1):
    """Each arrival's wait for the unit, in arrival order."""
    sim = Simulator()
    resource = Resource(sim)
    rng = random.Random(f"resource-mm1/{rho}/{seed}")
    waits = [None] * CUSTOMERS

    def customer(index, hold):
        arrived = sim.now
        grant = resource.acquire()
        if grant is not None:
            yield grant
        waits[index] = sim.now - arrived
        yield sim.timeout(hold)
        resource.release()

    def arrive(index, hold):
        sim.spawn(customer(index, hold))

    arrival = 0.0
    for index in range(CUSTOMERS):
        arrival += rng.expovariate(rho / H)
        sim.call_later(arrival, partial(arrive, index, rng.expovariate(1 / H)))
    sim.run()
    assert None not in waits and not resource.held
    return waits


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_resource_wait_matches_mm1(rho):
    kept = mm1_waits(rho)[CUSTOMERS // 10:]
    size = len(kept) // BATCHES
    means = [statistics.fmean(kept[i * size:(i + 1) * size])
             for i in range(BATCHES)]
    mean = statistics.fmean(means)
    error = statistics.stdev(means) / BATCHES ** 0.5
    expected = rho * H / (1 - rho)
    assert error < 0.1 * expected
    assert abs(mean - expected) <= Z * error, (
        f"rho={rho}: mean wait {mean:.3e} s, M/M/1 {expected:.3e} s, "
        f"standard error {error:.3e} s"
    )
