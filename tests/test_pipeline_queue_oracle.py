"""Substrate oracle for a hardware pipeline's input port.

One :class:`HardwarePipeline` offered seeded Poisson inputs is an M/D/1
queue: the port takes one input per initiation interval, so service is
``S = accept_interval``, and every input then drains through the rest of
the stages in the same fixed time. :meth:`HardwarePipeline.run` is the
charge: an input's wait for the port is its completion instant less its
offer instant, ``S`` and the drain, and its mean must match the
Pollaczek–Khinchine formula ``rho*S / (2*(1 - rho))``.

The tolerance is the batch-means one of ``tests/test_link_queue_oracle.py``:
after a warm-up tenth, ``BATCHES`` consecutive batch means, whose grand
mean must lie within ``Z`` standard errors of the formula, with the
standard error below a tenth of the expected wait.
"""

import random
import statistics

import pytest

from repro.apps.fail2ban import BAN_MAP_FD, PacketRecord, build_fail2ban_program
from repro.ebpf import HashMap
from repro.hdl.engine import HardwarePipeline, compile_program
from repro.sim import Simulator

FAIL2BAN = compile_program(build_fail2ban_program())
#: Inputs per run.
INPUTS = 30_000
#: Batches for the batch-means standard error.
BATCHES = 20
#: Two-sided bound in standard errors (about t(19) at 0.9995).
Z = 4.0


def pipeline_with_map():
    ban_map = HashMap(key_size=8, value_size=8, max_entries=64)
    pipeline = HardwarePipeline(Simulator(), FAIL2BAN, maps={BAN_MAP_FD: ban_map})
    return pipeline, ban_map


def md1_waits(rho, seed=1):
    """Each input's wait for the port, offered at seeded Poisson instants;
    the programs' verdicts ride along unread."""
    pipeline, _ = pipeline_with_map()
    service = pipeline.accept_interval
    rng = random.Random(f"pipeline-md1/{rho}/{seed}")
    context = PacketRecord(7, False, 64).context()
    waits = []
    arrival = 0.0
    for _ in range(INPUTS):
        arrival += rng.expovariate(rho / service)
        _result, when = pipeline.run(context, arrival)
        waits.append(when - arrival - service - pipeline._drain)
    return service, waits


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_port_wait_matches_pollaczek_khinchine(rho):
    service, waits = md1_waits(rho)
    kept = waits[INPUTS // 10:]
    size = len(kept) // BATCHES
    means = [statistics.fmean(kept[i * size:(i + 1) * size])
             for i in range(BATCHES)]
    mean = statistics.fmean(means)
    error = statistics.stdev(means) / BATCHES ** 0.5
    expected = rho * service / (2 * (1 - rho))
    assert error < 0.1 * expected
    assert abs(mean - expected) <= Z * error, (
        f"rho={rho}: mean wait {mean:.3e} s, M/D/1 {expected:.3e} s, "
        f"standard error {error:.3e} s"
    )


def test_an_input_runs_its_program_when_the_port_admits_it():
    """The map update of an input in flight is visible before it leaves
    the last stage: the program ran at admission."""
    pipeline, ban_map = pipeline_with_map()
    sim = pipeline.sim
    sim.spawn(pipeline.execute(PacketRecord(7, True, 64).context()))
    sim.run(until=pipeline.latency / 2)
    assert [(key[:4], value[0]) for key, value in ban_map.items()] == [
        ((7).to_bytes(4, "little"), 1)]
    sim.run()
    assert sim.now == pipeline.latency
