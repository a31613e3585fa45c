"""Substrate oracle for :class:`repro.sim.Resource`: an M/M/1 queue.

Seeded Poisson arrivals each take the one unit with
:meth:`Resource.acquire` — on the spot (it returns ``None``) when it is
free, else by waiting on the FIFO grant it returns, which ``release``
fires — hold it for an exponential time of mean ``H`` and release it.
That is an M/M/1 queue, whose mean wait for the unit is
``rho*H / (1 - rho)``, within the batch-means bound of
``tests/queue_oracle.py``. The mean cannot see the order waiters are
served in (a LIFO grant gives the same mean); what it does see is a
grant that lets two holders overlap.
"""

import random
from functools import partial

import pytest

from repro.sim import Resource, Simulator

from tests.queue_oracle import RHOS, arrivals, check_mean_wait, mm1

#: Mean holding time.
H = 1e-3
#: Arrivals per run.
CUSTOMERS = 40_000


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

    for index, arrival in enumerate(arrivals(rng, rho / H, CUSTOMERS)):
        sim.call_later(arrival, partial(arrive, index, rng.expovariate(1 / H)))
    sim.run()
    assert None not in waits and not resource.held
    return waits


@pytest.mark.parametrize("rho", RHOS)
def test_resource_wait_matches_mm1(rho):
    check_mean_wait(mm1_waits(rho), mm1(rho, H), f"rho={rho}, M/M/1")
