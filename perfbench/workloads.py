"""The five benchmark workloads, built from ``repro``'s public exports.

Every workload draws its keys, op mix, values and arrival times from the
``--seed`` and hands the program only those inputs. The one exception is
``traffic-day``: there ``repro.workload``'s own generator is a layer under
test, so it receives the seed.

A workload is used in three steps, each timed separately by the worker:

``build(new_sim)``  topology, clients, key preload (part of ``setup_s``);
``measure()``       the measured window, as a generator that yields after
                    each of its slices: nothing but ``sim.run`` calls;
``finish()``        quiesce, final sweep, and the :class:`Outcome`.

The window is cut into :data:`SLICES` pieces of identical work in every
run of one seed, so that the worker can time each piece and ``run.py``
can keep, piece by piece, the fastest time any run saw.

``new_sim`` is a zero-argument factory returning a fresh
:class:`repro.sim.Simulator`; the traced run passes one whose public
``timeout``/``event``/``process`` factories are wrapped with counters.

All sizes below are frozen: changing one changes every number the
benchmark has recorded. ``scale`` shortens the measured window for the
benchmark's own fast tests and never changes the topology; every
reported run, traced or not, uses the full window.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps.fail2ban import Fail2BanBaseline, Fail2BanDpu, PacketRecord
from repro.baseline import CpuCentricDatapath, CpuModel, OsModel
from repro.common.errors import DegradedError
from repro.dpu import HyperionDpu
from repro.georep import Consistency, GeoCluster, GeoKvClient, WanSpec
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.overload import QueuePolicy
from repro.sharding import (
    HotKeyCache,
    ShardedKvClient,
    ShardedKvCluster,
    ShardMigrator,
)
from repro.sim import Simulator
from repro.telemetry import Sampler, SloMonitor, SloRule
from repro.transport import RpcError
from repro.workload import (
    Autoscaler,
    AutoscalerPolicy,
    OpenLoopTraffic,
    WorkloadSpec,
    ZipfKeys,
)

VALUE_SIZE = 64
LOADER = "loader"
#: Timed pieces per measured window (a few tens of milliseconds each).
SLICES = 40


def encode_value(key: bytes, writer: str, seq: int) -> bytes:
    """A value that names its own write: ``key|writer|seq``, padded."""
    return b"%s|%s|%d|" % (key, writer.encode(), seq) + b"." * (
        VALUE_SIZE - len(key) - len(writer) - len(str(seq)) - 3
    )


def decode_value(value: bytes) -> Tuple[bytes, str, int]:
    """Inverse of :func:`encode_value`; raises ``ValueError`` on garbage."""
    key, writer, seq, _pad = bytes(value).split(b"|")
    return key, writer.decode(), int(seq)


def quantile(ordered, fraction: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class Request:
    """One client request as the benchmark saw it (one latency sample).

    ``keys`` has one entry per key operation; ``values`` is what a read
    returned (aligned with ``keys``) and ``write`` the ``(writer, seq)``
    a put carried. ``start`` is the simulated instant the request was
    due, ``finish`` the instant its reply reached the client.
    """

    __slots__ = ("index", "kind", "keys", "write", "start", "finish", "ok",
                 "values")

    def __init__(self, index: int, kind: str, keys, write, start: float):
        self.index = index
        self.kind = kind
        self.keys = keys
        self.write = write
        self.start = start
        self.finish = start
        self.ok = False
        self.values = None


class Outcome:
    """Everything a workload hands to the checks and the metric code."""

    def __init__(self, requests: List[Request], window: Tuple[float, float],
                 deadline: Optional[float] = None):
        self.requests = requests
        self.window = window
        self.deadline = deadline
        #: key -> value read by the final sweep, one dict per replica set.
        self.sweeps: Dict[str, Dict[bytes, Optional[bytes]]] = {}
        #: Workload-specific facts the checks or the ledger need.
        self.facts: Dict[str, object] = {}


def sliced(sim: Simulator, start: float, end: float) -> Iterator[None]:
    """Run *sim* from *start* to *end* in equal slices of simulated time."""
    for index in range(1, SLICES + 1):
        sim.run(until=start + (end - start) * index / SLICES)
        yield


class Workload:
    """Base: the request log shared by every workload."""

    name = ""
    #: One line for BENCHMARK.json and the README.
    why = ""
    #: Simulated seconds of the full measured window.
    window = 0.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.horizon_span = self.window * scale
        self.requests: List[Request] = []

    def rng(self, stream: str) -> random.Random:
        """A named, ``PYTHONHASHSEED``-independent random stream."""
        return random.Random(f"{self.seed}/{self.name}/{stream}")

    def issue(self, kind: str, keys, write, start: float) -> Request:
        request = Request(len(self.requests), kind, keys, write, start)
        self.requests.append(request)
        return request

    def perform(self, sim: Simulator, request: Request, call,
                errors=RpcError):
        """Process: run the client *call* of *request* and stamp how it
        ended; returns what the call returned, ``None`` if it raised."""
        result = None
        try:
            result = yield from call
        except errors:
            pass
        else:
            request.ok = True
        request.finish = sim.now
        return result

    def build(self, new_sim: Callable[[], Simulator]) -> None:
        raise NotImplementedError

    def measure(self) -> Iterator[None]:
        raise NotImplementedError

    def finish(self) -> Outcome:
        raise NotImplementedError


# -- the two closed-loop KV workloads -------------------------------------------

KV_DPUS = 8
KV_QUEUE = 128
KV_WORKERS = 2
KV_CLIENTS = 96
KV_KEYS = 128
KV_HOT_KEYS = 16
KV_HOT_FRACTION = 0.8
KV_THINK = 2e-6
KV_BATCH = 32
CACHE_CAPACITY = 32
CACHE_LEASE = 1e-3


def _preload(sim: Simulator, cluster: ShardedKvCluster,
             keys: List[bytes]) -> None:
    loader = ShardedKvClient(sim, cluster, name=LOADER, batch_limit=KV_BATCH)
    sim.run_process(loader.put_many(
        [(key, encode_value(key, LOADER, 0)) for key in keys]
    ))


def _sweep(sim: Simulator, cluster: ShardedKvCluster,
           keys: List[bytes]) -> Dict[bytes, Optional[bytes]]:
    sweeper = ShardedKvClient(sim, cluster, name="sweeper",
                              batch_limit=KV_BATCH)
    values = sim.run_process(sweeper.get_many(keys))
    return dict(zip(keys, values))


class _KvClosedLoop(Workload):
    """96 closed-loop clients against an 8-DPU sharded cluster."""

    put_fraction = 0.0
    batched = False

    def build(self, new_sim):
        self.sim = sim = new_sim()
        self.cluster = ShardedKvCluster(
            sim, Network(sim), dpu_count=KV_DPUS,
            queue_capacity=KV_QUEUE, workers=KV_WORKERS,
        )
        self.keys = [f"key-{i:04d}".encode() for i in range(KV_KEYS)]
        _preload(sim, self.cluster, self.keys)
        self.clients = []
        for index in range(KV_CLIENTS):
            cache = None
            if self.batched:
                cache = HotKeyCache(
                    sim, capacity=CACHE_CAPACITY, lease=CACHE_LEASE,
                    metrics=sim.telemetry.scope(f"shard.cache.c{index}"),
                )
            self.clients.append(ShardedKvClient(
                sim, self.cluster, name=f"c{index}", cache=cache,
                batch_limit=KV_BATCH,
            ))
        self.start = sim.now
        self.horizon = self.start + self.horizon_span
        for index, client in enumerate(self.clients):
            sim.process(self._loop(client, f"c{index}",
                                   self.rng(f"client/{index}")))

    def _pick(self, rng: random.Random) -> bytes:
        if rng.random() < KV_HOT_FRACTION:
            return self.keys[rng.randrange(KV_HOT_KEYS)]
        return self.keys[rng.randrange(KV_HOT_KEYS, KV_KEYS)]

    def _loop(self, client: ShardedKvClient, writer: str,
              rng: random.Random):
        sim = self.sim
        seq = 0
        while True:
            yield sim.timeout(KV_THINK)
            if sim.now >= self.horizon:
                return
            if rng.random() < self.put_fraction:
                seq += 1
                key = self._pick(rng)
                request = self.issue("put", (key,), (writer, seq), sim.now)
                call = client.put(key, encode_value(key, writer, seq))
            elif self.batched:
                keys = tuple(self._pick(rng) for _ in range(KV_BATCH))
                request = self.issue("get", keys, None, sim.now)
                call = client.get_many(keys)
            else:
                key = self._pick(rng)
                request = self.issue("get", (key,), None, sim.now)
                call = client.get(key)
            result = yield from self.perform(sim, request, call)
            if request.kind == "get" and request.ok:
                request.values = result if self.batched else (result,)

    def measure(self):
        yield from sliced(self.sim, self.start, self.horizon)
        # Clients stop issuing at the horizon; draining the event queue
        # lets every request in flight complete.
        self.sim.run()
        yield

    def finish(self):
        outcome = Outcome(self.requests, (self.start, self.horizon))
        outcome.sweeps["cluster"] = _sweep(self.sim, self.cluster, self.keys)
        return outcome


class KvBatchedRead(_KvClosedLoop):
    name = "kv-batched-read"
    why = ("read-only 32-key get_many through the hot-key cache: sharding "
           "and transport.call_batch do the work, per-frame hw.net cost is "
           "amortised 32x")
    window = 6e-3
    #: Read-only. At 0.5% puts some nine puts fell into the window and,
    #: each parking a DPU worker for a 0.5 ms flash program with every
    #: batch that touched it queued behind, decided the throughput:
    #: across seeds goodput split into two populations a quarter apart.
    put_fraction = 0.0
    batched = True


class KvUnbatchedRw(_KvClosedLoop):
    name = "kv-unbatched-rw"
    why = ("same cluster, no cache, one RPC per op, 20% puts: sim, hw.net "
           "and transport per-op cost on the host, WAL flash programs in "
           "simulated time")
    window = 0.4
    put_fraction = 0.20


# -- traffic-day -----------------------------------------------------------------

DAY = 0.6
#: The three-tenant diurnal + burst scenario of docs/WORKLOADS.md with
#: every rate at 0.6x. At the documented rates a handoff under peak load
#: makes CoDel refuse requests, and one refused migrator RPC ends the
#: migration and leaves the autoscaler latched busy, so runs split into
#: two populations by seed. At 0.6x the fleet has headroom while it moves.
DAY_SPEC = """\
keys 128
zipf 1.0
tenant web    mix get=0.78,put=0.22 curve diurnal trough=2160 peak=16800 period=600ms
tenant mobile mix get=0.70,put=0.30 curve diurnal trough=1440 peak=10800 period=600ms phase=0.05
tenant batch  mix scan=0.7,analytics=0.3 curve burst base=360 burst=1440 at=450ms dur=50ms
"""
DAY_MIN_DPUS = 3
DAY_MAX_DPUS = 5
DAY_QUEUE = 64
CODEL_TARGET = 2e-3
CODEL_INTERVAL = 4e-3
DAY_TIMEOUT = 20e-3
DAY_DEADLINE = 5e-3
SAMPLE_PERIOD = 1e-3
#: The autoscaler acts on offered rate, ahead of saturation: rules state
#: objectives and fire on sustained violation, so "busy" fires once the
#: rate has stayed at or above 8k/s for 3 ms and "idle" once it has stayed
#: below 7k/s for 15 ms. The latency objective is evaluated every tick
#: (the histogram-quantile SLO path) but drives nothing.
BUSY_RULE = ("fleet-busy",
             "workload.traffic.offered_rate value < 8000 for 3ms")
IDLE_RULE = ("fleet-idle",
             "workload.traffic.offered_rate value >= 7000 for 15ms")
LATENCY_RULE = ("p99-slo",
                "workload.traffic.op_latency p99 < 3ms for 2ms")
DAY_COOLDOWN = 50e-3
#: One key per handoff segment: a segment parks one of a DPU's two
#: workers for about a millisecond per key, and requests queued behind a
#: longer one cross CoDel's 2 ms target.
DAY_SEGMENT_KEYS = 1
#: A refused request is sent again after this pause, doubling up to the
#: cap, until it is served: the user reloads the page.
RETRY_PAUSE = 1e-3
RETRY_PAUSE_CAP = 8e-3
DAY_PUT_VALUE = b"v" * VALUE_SIZE
#: ``workload.worst_window_p99_s`` splits the day into this many slices.
DAY_WINDOWS = 6


class _TenantClient:
    """The handle ``OpenLoopTraffic`` drives: records, and retries refusals.

    The generator owns arrivals and op draws; this wrapper is the
    benchmark's boundary around the calls into ``repro.sharding``. It
    logs each request with its keys and results for the checks, and
    sends a refused request (CoDel drop, full queue, timeout) again so
    that overload shows as latency and lost goodput rather than as
    failed operations.
    """

    def __init__(self, workload: "TrafficDay", client: ShardedKvClient):
        self.workload = workload
        self.client = client
        self.retries = 0

    def _call(self, kind: str, keys, make_call):
        sim = self.workload.sim
        request = self.workload.issue(kind, keys, None, sim.now)
        pause = RETRY_PAUSE
        while True:
            try:
                result = yield from make_call()
                break
            except RpcError:
                self.retries += 1
                yield sim.timeout(pause)
                pause = min(2 * pause, RETRY_PAUSE_CAP)
        request.ok = True
        request.finish = sim.now
        self.workload.completed.append(request)
        return request, result

    def get(self, key: bytes):
        request, value = yield from self._call(
            "get", (key,), lambda: self.client.get(key))
        request.values = (value,)
        return value

    def put(self, key: bytes, value: bytes):
        yield from self._call(
            "put", (key,), lambda: self.client.put(key, value))
        return True

    def get_many(self, keys):
        keys = tuple(keys)
        request, values = yield from self._call(
            "get", keys, lambda: self.client.get_many(keys))
        request.values = values
        return values


class TrafficDay(Workload):
    name = "traffic-day"
    why = ("open-loop three-tenant diurnal+burst traffic on an autoscaled "
           "3-5 DPU CoDel fleet: workload, overload, telemetry SLO path "
           "and live migration; the only queue that can grow")
    window = DAY

    def build(self, new_sim):
        self.sim = sim = new_sim()
        self.cluster = ShardedKvCluster(
            sim, Network(sim), dpu_count=DAY_MIN_DPUS,
            queue_capacity=DAY_QUEUE, workers=KV_WORKERS,
            queue_policy=QueuePolicy.CODEL,
            codel_target=CODEL_TARGET, codel_interval=CODEL_INTERVAL,
        )
        self.spec = WorkloadSpec.parse(DAY_SPEC)
        #: Requests in completion order, as ``traffic.outcomes`` has them.
        self.completed: List[Request] = []
        self.keys = ZipfKeys(self.spec.key_count, self.spec.zipf_skew).keys()
        _preload(sim, self.cluster, self.keys)
        self.tenants = {
            tenant.name: _TenantClient(self, ShardedKvClient(
                sim, self.cluster, name=f"t-{tenant.name}",
                cache=HotKeyCache(
                    sim, capacity=CACHE_CAPACITY, lease=CACHE_LEASE,
                    metrics=sim.telemetry.scope(
                        f"shard.cache.t-{tenant.name}"),
                ),
                batch_limit=KV_BATCH, timeout=DAY_TIMEOUT, retries=0,
            ))
            for tenant in self.spec.tenants
        }
        self.start = sim.now
        self.horizon = self.start + self.horizon_span
        self.traffic = OpenLoopTraffic(
            sim, self.spec, self.tenants, seed=self.seed,
            horizon=self.horizon, deadline=DAY_DEADLINE,
        )
        self.sampler = Sampler(sim.telemetry, sim, period=SAMPLE_PERIOD)
        self.sampler.watch("workload.traffic.op_latency")
        self.sampler.watch("workload.traffic.offered_rate")
        self.sampler.watch("workload.autoscaler.fleet")
        self.monitor = SloMonitor(self.sampler, [
            SloRule.parse(text, name=name)
            for name, text in (BUSY_RULE, IDLE_RULE, LATENCY_RULE)
        ])
        migrator = ShardMigrator(sim, self.cluster,
                                 segment_keys=DAY_SEGMENT_KEYS)
        self.scaler = Autoscaler(sim, self.monitor, migrator, AutoscalerPolicy(
            min_dpus=DAY_MIN_DPUS, max_dpus=DAY_MAX_DPUS,
            breach_rule=BUSY_RULE[0], idle_rule=IDLE_RULE[0],
            cooldown=DAY_COOLDOWN,
        ))
        self.traffic.start()
        sim.process(self._sampling())

    def _sampling(self):
        while self.sim.now < self.horizon:
            yield self.sim.timeout(SAMPLE_PERIOD)
            self.sampler.sample()

    def measure(self):
        yield from sliced(self.sim, self.start, self.horizon)
        # Arrivals, sampling and the rate gauges all stop at the horizon;
        # draining lets retried requests and a migration in flight finish.
        self.sim.run()
        yield

    def finish(self):
        outcome = Outcome(self.requests, (self.start, self.horizon),
                          deadline=DAY_DEADLINE)
        outcome.sweeps["cluster"] = _sweep(self.sim, self.cluster, self.keys)
        outcome.facts["put_value"] = DAY_PUT_VALUE
        outcome.facts["sampler_ticks"] = self.sampler.ticks
        outcome.facts["client_retries"] = sum(
            tenant.retries for tenant in self.tenants.values())
        # How late the generator ran: arrivals are simulated events, so
        # a request reaches the client at the instant it was due.
        outcome.facts["generator_lag_s"] = max(
            request.start - started for request, (started, *_rest)
            in zip(self.completed, self.traffic.outcomes))
        slices: List[List[float]] = [[] for _ in range(DAY_WINDOWS)]
        for request in self.requests:
            index = int((request.start - self.start) / self.horizon_span
                        * DAY_WINDOWS)
            slices[min(index, DAY_WINDOWS - 1)].append(
                request.finish - request.start)
        outcome.facts["worst_window_p99_s"] = max(
            quantile(sorted(latencies), 0.99)
            for latencies in slices if latencies)
        return outcome


# -- georep-quorum ---------------------------------------------------------------

GEO_REGIONS = ("r1", "r2", "r3")
GEO_WAN = (
    WanSpec("r1", "r2", propagation=3.0e-3),
    WanSpec("r2", "r1", propagation=4.0e-3),
    WanSpec("r1", "r3", propagation=5.0e-3),
    WanSpec("r3", "r1", propagation=5.5e-3),
    WanSpec("r2", "r3", propagation=4.0e-3),
    WanSpec("r3", "r2", propagation=4.5e-3),
)
GEO_CLIENTS_PER_REGION = 4
GEO_KEYS = 48
GEO_ZIPF = 1.1
GEO_PUT_FRACTION = 0.35
GEO_THINK = 0.2e-3
#: Simulated time after the horizon for the last log entries to ship.
GEO_SETTLE = 0.1


def _drive(sim: Simulator, generator, slice: float = 0.05):
    """``sim.run_process`` for a simulator whose log shippers never let
    the event queue drain: advance in slices until *generator* ends."""
    process = sim.process(generator)
    for _ in range(1000):
        if process.triggered:
            break
        sim.run(until=sim.now + slice)
    else:
        raise RuntimeError("process did not finish (deadlock?)")
    if not process.ok:
        raise process.value
    return process.value


class GeorepQuorum(Workload):
    name = "georep-quorum"
    why = ("3-region QUORUM geo-replication over an asymmetric WAN: the "
           "georep log/ship/ack path, where host cost is background "
           "protocol events rather than client ops")
    window = 2.4

    def build(self, new_sim):
        self.sim = sim = new_sim()
        self.cluster = GeoCluster(
            sim, GEO_REGIONS, wan=GEO_WAN, consistency=Consistency.QUORUM,
        )
        self.keys = [f"geo-{i:03d}".encode() for i in range(GEO_KEYS)]
        total = 0.0
        self._cumulative = []
        for rank in range(GEO_KEYS):
            total += 1.0 / (rank + 1) ** GEO_ZIPF
            self._cumulative.append(total)
        loader = GeoKvClient(sim, self.cluster, LOADER, GEO_REGIONS[0])

        def preload():
            for key in self.keys:
                yield from loader.put(key, encode_value(key, LOADER, 0))

        _drive(sim, preload())
        self.start = sim.now
        self.horizon = self.start + self.horizon_span
        for region in GEO_REGIONS:
            for index in range(GEO_CLIENTS_PER_REGION):
                name = f"{region}c{index}"
                client = GeoKvClient(sim, self.cluster, name, region)
                sim.process(self._loop(client, name,
                                       self.rng(f"client/{name}")))

    def _pick(self, rng: random.Random) -> bytes:
        return self.keys[bisect_left(
            self._cumulative, rng.random() * self._cumulative[-1])]

    def _loop(self, client: GeoKvClient, writer: str, rng: random.Random):
        sim = self.sim
        seq = 0
        while True:
            yield sim.timeout(GEO_THINK)
            if sim.now >= self.horizon:
                return
            key = self._pick(rng)
            if rng.random() < GEO_PUT_FRACTION:
                seq += 1
                request = self.issue("put", (key,), (writer, seq), sim.now)
                call = client.put(key, encode_value(key, writer, seq))
            else:
                request = self.issue("get", (key,), None, sim.now)
                call = client.get(key)
            # DegradedError: every region refused the op.
            result = yield from self.perform(sim, request, call,
                                             DegradedError)
            if request.kind == "get" and request.ok:
                request.values = (result,)

    def measure(self):
        # The log shippers poll forever, so the run is bounded by time:
        # the horizon plus the longest request a client can have in flight.
        yield from sliced(self.sim, self.start, self.horizon + GEO_SETTLE)

    def finish(self):
        sim = self.sim
        outcome = Outcome(self.requests, (self.start, self.horizon))
        for region in GEO_REGIONS:
            order = [region] + [r for r in GEO_REGIONS if r != region]
            sweeper = GeoKvClient(sim, self.cluster, f"sweep-{region}",
                                  region, preference=order)
            values = {}

            def sweep(sweeper=sweeper, values=values):
                for key in self.keys:
                    values[key] = yield from sweeper.get(key)

            _drive(sim, sweep())
            outcome.sweeps[region] = values
        self.cluster.stop()
        sim.run()
        return outcome


# -- offload-fail2ban ------------------------------------------------------------

F2B_PACKETS = 32000
F2B_SOURCES = 100
F2B_ATTACKER_FRACTION = 0.1
F2B_ATTACK_INTENSITY = 0.9
F2B_BENIGN_FAILURE = 0.01
F2B_THRESHOLD = 3
F2B_PACKET_SIZE = 512
#: Offered packet rate (Poisson), about 60% of what the DPU path
#: sustains once the NVMe log flush is amortised.
F2B_RATE = 300e3


class OffloadFail2ban(Workload):
    name = "offload-fail2ban"
    why = ("a seeded packet trace through the verified eBPF->HDL pipeline "
           "on a booted DPU, then through the CPU-centric baseline: ebpf, "
           "hdl, dpu and baseline work; hw.net, transport, sharding idle")
    #: Nominal: the window is the trace, ``F2B_PACKETS / F2B_RATE``.
    window = F2B_PACKETS / F2B_RATE

    def build(self, new_sim):
        packets = max(1, round(F2B_PACKETS * self.horizon_span / self.window))
        rng = self.rng("trace")
        attackers = {source for source in range(F2B_SOURCES)
                     if rng.random() < F2B_ATTACKER_FRACTION}
        self.trace: List[PacketRecord] = []
        self.due: List[float] = []
        now = 0.0
        for _ in range(packets):
            source = rng.randrange(F2B_SOURCES)
            failed = rng.random() < (F2B_ATTACK_INTENSITY
                                     if source in attackers
                                     else F2B_BENIGN_FAILURE)
            now += rng.expovariate(F2B_RATE)
            self.trace.append(PacketRecord(source, failed, F2B_PACKET_SIZE))
            self.due.append(now)

        self.sim = sim = new_sim()
        dpu = HyperionDpu(sim, Network(sim), ssd_blocks=65536)
        sim.run_process(dpu.boot())
        self.app = Fail2BanDpu(sim, dpu, threshold=F2B_THRESHOLD)
        self.start = sim.now

        self.base_sim = base_sim = new_sim()
        cpu = CpuModel(base_sim, rng=self.rng("cpu-jitter"))
        ssd = NvmeController(base_sim, "server-ssd")
        ssd.add_namespace(Namespace(1, 65536))
        datapath = CpuCentricDatapath(base_sim, cpu, OsModel(base_sim, cpu),
                                      ssd=ssd)
        self.baseline = Fail2BanBaseline(base_sim, datapath,
                                         threshold=F2B_THRESHOLD)
        self.base_verdicts: List[int] = []
        self.base_time = 0.0
        #: Simulated time the DPU path spent serving (waiting excluded).
        self.dpu_busy = 0.0

    def _dpu_path(self, first: int, last: int):
        """Open loop: each packet is due at its arrival time, and waits
        behind the one before it when the pipeline is busy."""
        sim, app, start = self.sim, self.app, self.start
        for index in range(first, last):
            packet, due = self.trace[index], self.due[index] + start
            if sim.now < due:
                yield sim.timeout(due - sim.now)
            request = self.issue("packet", (packet.src_ip,), None, due)
            began = sim.now
            request.values = yield from app.process_packet(packet)
            request.ok = True
            request.finish = sim.now
            self.dpu_busy += sim.now - began
        if last == len(self.trace):
            yield from app.flush_log()

    def _baseline_path(self, first: int, last: int):
        """Closed loop, back to back: the reference verdicts and the
        baseline's total simulated time for the speed-up."""
        started = self.base_sim.now
        for index in range(first, last):
            verdict = yield from self.baseline.process_packet(
                self.trace[index])
            self.base_verdicts.append(verdict)
        self.base_time += self.base_sim.now - started

    def measure(self):
        bounds = [len(self.trace) * index // SLICES
                  for index in range(SLICES + 1)]
        for first, last in zip(bounds, bounds[1:]):
            self.sim.run_process(self._dpu_path(first, last))
            yield
        for first, last in zip(bounds, bounds[1:]):
            self.base_sim.run_process(self._baseline_path(first, last))
            yield

    def finish(self):
        outcome = Outcome(self.requests, (self.start, self.sim.now))
        outcome.facts["trace"] = self.trace
        outcome.facts["threshold"] = F2B_THRESHOLD
        outcome.facts["baseline_verdicts"] = self.base_verdicts
        outcome.facts["sim_speedup_x"] = self.base_time / self.dpu_busy
        return outcome


WORKLOADS = {
    cls.name: cls for cls in (
        KvBatchedRead, KvUnbatchedRw, TrafficDay, GeorepQuorum,
        OffloadFail2ban,
    )
}
