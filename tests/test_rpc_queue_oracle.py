"""Substrate oracle for the RPC server's queue-worker dispatch.

A bare :class:`RpcServer` with a FIFO :class:`BoundedQueue` that never
drops, one worker and a handler that holds it for a fixed ``S``, fed
seeded Poisson datagrams through a stub socket, is an M/D/1 queue. The
Pollaczek–Khinchine formula gives its mean wait in queue,
``rho*S / (2*(1 - rho))``, which the server's
``rpc.server.<addr>.queue.sojourn`` histogram must reproduce within the
batch-means bound of ``tests/queue_oracle.py``. A batch holds about
1,800 requests. The bound is tight enough to catch a second worker,
which cuts the wait by more than 90 %.
"""

import random
from functools import partial

import pytest

from repro.overload import QueuePolicy
from repro.sim import Simulator
from repro.transport import RpcServer
from repro.transport.rpc import RpcRequest

from tests.capture import StubSocket
from tests.queue_oracle import RHOS, arrivals, check_mean_wait, md1

#: Fixed service time of the handler, in simulated seconds.
S = 1e-3
#: Requests per run.
REQUESTS = 40_000


def md1_run(rho, seed=1, workers=1):
    """The server's queue sojourn samples for one seeded M/D/1 run."""
    sim = Simulator()
    socket = StubSocket(sim, "srv")
    server = RpcServer(sim, socket, queue_capacity=REQUESTS,
                       queue_policy=QueuePolicy.FIFO, workers=workers)

    def work():
        yield sim.timeout(S)

    server.register("work", work)
    rng = random.Random(f"md1/{rho}/{seed}")
    for rpc_id, arrival in enumerate(arrivals(rng, rho / S, REQUESTS)):
        request = RpcRequest(rpc_id, "work", (), 0)
        sim.call_later(arrival, partial(socket.deliver, ("cli", request, 64)))
    sim.run()
    served = sim.telemetry.get("rpc.server.srv.requests_served").value
    assert served == REQUESTS and server.queue.dropped_full == 0
    samples = sim.telemetry.get("rpc.server.srv.queue.sojourn").samples
    assert len(samples) == REQUESTS
    return samples


@pytest.mark.parametrize("rho", RHOS)
def test_queue_sojourn_matches_pollaczek_khinchine(rho):
    check_mean_wait(md1_run(rho), md1(rho, S), f"rho={rho}, M/D/1")


def test_a_second_worker_fails_the_bound():
    """The same run served by two workers is not M/D/1 with one server:
    its mean wait falls far below the formula's, out of the bound."""
    with pytest.raises(AssertionError, match="mean wait"):
        check_mean_wait(md1_run(0.3, workers=2), md1(0.3, S),
                        "rho=0.3, two workers")
