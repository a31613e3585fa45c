"""Simulator-core micro-benchmarks: the E18/SIM self-benchmark.

Three hot paths that every simulated operation crosses, measured raw:

* **engine events/sec** — ten ticker processes spinning on
  ``sim.timeout(0.0)``, the dominant zero-delay case the engine's
  immediate lane exists for; counts one event per timeout plus the
  bootstrap/completion events per process.
* **RPC round-trips/sec** — an ``echo`` handler behind an
  :class:`~repro.transport.RpcServer` on a UDP loopback pair, driven by
  one client issuing sequential :meth:`~repro.transport.RpcClient.call`
  round trips (engine + transport + telemetry all in the loop).
* **histogram observes/sec** — ``Histogram.observe`` in a tight loop:
  the per-sample cost every simulated operation pays. The deferred
  sum/bin accounting is forced and verified immediately after the timed
  region — it is a once-per-snapshot cost (measured equivalent to the
  old eager accounting), not a per-observe one, so it is exercised for
  correctness but kept out of the hot-path number.

Unlike every other number in the continuous-benchmark payload, these are
**wall-clock** measurements: they exist to watch the simulator's own
speed, which simulated time cannot see by construction. They are tagged
``volatile`` in the artifact, which the harness treats specially — run-
to-run jitter within the >20% regression gate does not write a new
``BENCH_<n>.json``, but a real slowdown past the gate does, and fails
``--check`` like any other tracked regression. Each measurement takes
the best of ``repeats`` runs with the garbage collector parked
(collected before, disabled during the timed region) to damp scheduler
and GC noise — in the full-suite run, eighteen prior experiments' worth
of garbage would otherwise collect inside the timed window.

The deterministic companion counts (events run, round trips completed,
samples observed) are plain ``info`` metrics and stay byte-identical per
seed like the rest of the payload.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Tuple

from repro.hw.net import Network
from repro.sim import Simulator
from repro.telemetry import MetricScope
from repro.transport import RpcClient, RpcServer, UdpSocket

#: Ticker processes spinning on ``timeout(0.0)`` in the engine benchmark.
ENGINE_PROCESSES = 10

#: Zero-delay timeouts each ticker yields.
ENGINE_TICKS = 20_000

#: Sequential echo round trips through the UDP loopback pair.
RPC_CALLS = 2_000

#: Samples appended (and then materialized) in the histogram benchmark.
OBSERVE_SAMPLES = 200_000

#: Timing runs per benchmark; the best (highest throughput) is reported.
DEFAULT_REPEATS = 5


@dataclass(frozen=True)
class MicroReport:
    """Best-of-N throughputs plus their deterministic workload counts."""

    events_per_sec: float
    rpc_roundtrips_per_sec: float
    observes_per_sec: float
    #: Engine entries (``Simulator._eid`` delta) per echo round trip:
    #: the noise-free twin of ``rpc_roundtrips_per_sec``.
    rpc_roundtrip_entries: float
    events_run: int
    rpc_roundtrips: int
    observes: int
    repeats: int


def _best_rate(work: int, times) -> float:
    """Highest observed throughput, rounded to a whole unit/sec."""
    return float(round(work / min(times)))


def _timed(work) -> float:
    """Wall-clock one run with the GC parked.

    Collecting first and disabling during the timed region keeps garbage
    accumulated by *earlier* workloads (eighteen experiments' worth, in
    the full-suite run) from collecting inside the window and sinking
    the best-of-N.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        work()
        return perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def _bench_engine(repeats: int) -> float:
    """Raw events/sec through the bare engine: zero-delay ticker swarm."""
    times = []
    for __ in range(repeats):
        sim = Simulator()

        def ticker():
            timeout = sim.timeout
            for __ in range(ENGINE_TICKS):
                yield timeout(0.0)

        for __ in range(ENGINE_PROCESSES):
            sim.process(ticker())
        times.append(_timed(sim.run))
    return _best_rate(_engine_events(), times)


def _engine_events() -> int:
    # One event per tick, plus each process's bootstrap and completion.
    return ENGINE_PROCESSES * (ENGINE_TICKS + 2)


def _bench_rpc(repeats: int) -> Tuple[float, float]:
    """Echo round trips/sec over a UDP loopback pair (full RPC stack),
    and the engine entries one of those round trips schedules."""
    times = []
    entries = set()
    for __ in range(repeats):
        sim = Simulator()
        net = Network(sim)
        server = RpcServer(sim, UdpSocket(sim, net.endpoint("server")))
        server.register("echo", lambda value: value)
        client = RpcClient(sim, UdpSocket(sim, net.endpoint("client")))

        def driver():
            started = sim._eid
            for i in range(RPC_CALLS):
                yield from client.call("server", "echo", i)
            entries.add((sim._eid - started) / RPC_CALLS)

        times.append(_timed(lambda: sim.run_process(driver())))
    (per_roundtrip,) = entries  # deterministic: every repeat agrees
    return _best_rate(RPC_CALLS, times), per_roundtrip


def _bench_observes(seed: int, repeats: int) -> float:
    """Histogram appends/sec: the per-sample hot-path cost."""
    rng = random.Random(f"bench.micro/{seed}")
    samples = [rng.random() for __ in range(OBSERVE_SAMPLES)]
    times = []
    for run in range(repeats):
        scope = MetricScope.standalone(f"bench.micro.{run}")
        histogram = scope.histogram("observe_cost")
        observe = histogram.observe

        def append_all():
            for value in samples:
                observe(value)

        times.append(_timed(append_all))
        # Force + verify the deferred sum/bin accounting (snapshot-time
        # cost, deliberately outside the timed region).
        if histogram.sum < 0 or not histogram.bucket_counts():
            raise AssertionError("histogram lost samples")
    return _best_rate(OBSERVE_SAMPLES, times)


def run_micro(seed: int = 0, repeats: int = DEFAULT_REPEATS) -> MicroReport:
    """Run all three micro-benchmarks, best-of-``repeats`` each."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    events_per_sec = _bench_engine(repeats)
    rpc_rate, rpc_entries = _bench_rpc(repeats)
    return MicroReport(
        events_per_sec=events_per_sec,
        rpc_roundtrips_per_sec=rpc_rate,
        rpc_roundtrip_entries=rpc_entries,
        observes_per_sec=_bench_observes(seed, repeats),
        events_run=_engine_events(),
        rpc_roundtrips=RPC_CALLS,
        observes=OBSERVE_SAMPLES,
        repeats=repeats,
    )
