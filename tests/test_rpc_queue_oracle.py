"""Substrate oracle for the RPC server's queue-worker dispatch.

A bare :class:`RpcServer` with a FIFO :class:`BoundedQueue` that never
drops, one worker and a handler that holds it for a fixed ``S``, fed
seeded Poisson datagrams through a stub socket, is an M/D/1 queue. The
Pollaczek–Khinchine formula gives its mean wait in queue,
``rho*S / (2*(1 - rho))``, which the server's
``rpc.server.<addr>.queue.sojourn`` histogram must reproduce.

The tolerance comes from the run itself, by batch means: the samples
after a warm-up tenth are cut into ``BATCHES`` consecutive batches of
about 1,800 requests each, many relaxation times of the busiest queue
here, so the batch means are close to independent. Their grand mean must
lie within ``Z`` standard errors of the formula. The standard error must
also stay below a tenth of the expected wait, so that the bound is tight
enough to catch a second worker, which cuts the wait by more than 90 %.
"""

import random
import statistics
from functools import partial

import pytest

from repro.overload import QueuePolicy
from repro.sim import Simulator
from repro.transport import RpcServer
from repro.transport.rpc import RpcRequest

from tests.capture import StubSocket

#: Fixed service time of the handler, in simulated seconds.
S = 1e-3
#: Requests per run.
REQUESTS = 40_000
#: Batches for the batch-means standard error.
BATCHES = 20
#: Two-sided bound in standard errors (about t(19) at 0.9995).
Z = 4.0


def md1_run(rho, seed=1):
    """The server's queue sojourn samples for one seeded M/D/1 run."""
    sim = Simulator()
    socket = StubSocket(sim, "srv")
    server = RpcServer(sim, socket, queue_capacity=REQUESTS,
                       queue_policy=QueuePolicy.FIFO, workers=1)

    def work():
        yield sim.timeout(S)

    server.register("work", work)
    rng = random.Random(f"md1/{rho}/{seed}")
    arrival = 0.0
    for rpc_id in range(REQUESTS):
        arrival += rng.expovariate(rho / S)
        request = RpcRequest(rpc_id, "work", (), 0)
        sim.call_later(arrival, partial(socket.deliver, ("cli", request, 64)))
    sim.run()
    served = sim.telemetry.get("rpc.server.srv.requests_served").value
    assert served == REQUESTS and server.queue.dropped_full == 0
    return sim.telemetry.get("rpc.server.srv.queue.sojourn").samples


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_queue_sojourn_matches_pollaczek_khinchine(rho):
    samples = md1_run(rho)
    assert len(samples) == REQUESTS
    kept = samples[REQUESTS // 10:]
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
