"""E16: scale-out data plane — throughput vs DPU count, live scale-out.

Two questions, one experiment:

1. **Does the data plane scale?** A fixed closed-loop client population
   drives a :class:`~repro.sharding.ShardedKvCluster` at 1, 2, 4 and 8
   DPUs, twice: *naive* (one RPC per op, no cache — the per-op overhead
   regime the Hyperion report warns about) and *optimized* (the full
   scale-out stack: ``call_batch`` coalescing plus the lease/epoch
   hot-key cache). With one DPU the run-to-completion wimpy cores are
   the bottleneck; spreading the ring across 8 DPUs should multiply
   aggregate goodput ≥ 4x when batching+cache amortize the per-op cost.

2. **Is a topology change an outage?** A separate run holds the client
   population steady while a :class:`~repro.sharding.ShardMigrator`
   adds a DPU mid-run. The forwarding stubs keep every in-flight key
   servable, so the event must complete with **zero failed client
   ops** — migration shows up as bounded p99 inflation (ops gated
   behind a segment copy pay one extra hop or one WAL append) and as a
   ``shard.migrate`` span in the trace, not as errors.

Same seed => byte-identical report, under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, digest, violated
from repro.hw.net import Network
from repro.sharding import (
    HotKeyCache,
    ShardedKvCluster,
    ShardedKvClient,
    ShardMigrator,
)
from repro.sim import Simulator
from repro.telemetry import percentile
from repro.transport import RpcError

#: Keyspace: small values that stay memtable-resident, so gets are
#: served at wimpy-core speed and puts pay the WAL flash program.
KEY_COUNT = 128
VALUE_SIZE = 64

#: Zipf-ish skew: this many hot keys absorb HOT_FRACTION of the reads.
HOT_KEYS = 16
HOT_FRACTION = 0.8

#: The scaling sweep.
DPU_COUNTS = (1, 2, 4, 8)

#: Closed-loop client workers (fixed across the sweep: the offered
#: concurrency is constant, only the serving capacity changes).
CLIENT_WORKERS = 96

#: Client-side think time per loop iteration (also keeps a fully
#: cache-served iteration from spinning without advancing the clock).
THINK = 2e-6

#: Probability one loop iteration writes instead of reading. Writes pay
#: the WAL flash program (~0.5 ms of worker time), so a read-dominant
#: mix keeps the sweep measuring the data plane rather than the flash —
#: a put parks one of a DPU's two workers for ~250 read-service times,
#: and a scattered batch is as slow as its unluckiest owner. The
#: scale-out *event* run keeps a heavier write share (see
#: :data:`EVENT_PUT_FRACTION`) since writes are what migration handoffs
#: must stay coherent with.
PUT_FRACTION = 0.005

#: Write share during the live scale-out event.
EVENT_PUT_FRACTION = 0.02

#: Keys per optimized read batch (one wire round trip per owner).
BATCH = 32

#: Measured window per sweep point (simulated seconds).
DURATION = 10e-3

#: Per-DPU service model: bounded queue, two run-to-completion workers.
#: The queue bound exceeds the worst-case closed-loop backlog (one
#: outstanding request per client), so the sweep never sheds.
QUEUE_CAPACITY = 128
WORKERS = 2

#: Hot-key cache knobs (per client worker).
CACHE_CAPACITY = 32
CACHE_LEASE = 1e-3

#: The scale-out event: 3 DPUs serving, a 4th joins mid-run.
EVENT_DPUS = 3
EVENT_WORKERS = 16
EVENT_DURATION = 80e-3
EVENT_MIGRATE_AT = 8e-3
SEGMENT_KEYS = 8


@dataclass
class ScalePoint:
    """One (DPU count, variant) sweep measurement."""

    dpus: int
    optimized: bool
    ops: int
    failures: int
    goodput: float
    p50_latency: float
    p99_latency: float
    round_trips: int
    cache_hit_rate: float
    #: Engine entries the measured window cost (``Simulator._eid``
    #: delta): what the simulator paid, not what the model did, so it
    #: stays out of :meth:`line`.
    entries: int

    def line(self) -> str:
        """Canonical one-line form (same seed => same bytes)."""
        variant = "optimized" if self.optimized else "naive"
        return (
            f"point dpus={self.dpus} variant={variant} ops={self.ops} "
            f"failures={self.failures} goodput={self.goodput!r} "
            f"p50={self.p50_latency!r} p99={self.p99_latency!r} "
            f"round_trips={self.round_trips} "
            f"hit_rate={self.cache_hit_rate!r}"
        )


@dataclass
class ScaleoutEvent:
    """The mid-run scale-out measurement."""

    dpus_before: int
    dpus_after: int
    ops: int
    failures: int
    keys_moved: int
    segments: int
    epoch: int
    migration_start: float
    migration_duration: float
    p99_before: float
    p99_during: float
    p99_after: float
    p99_inflation: float
    migrate_spans: int
    handoff_spans: int
    forwarded_ops: int
    gated_ops: int
    #: Engine entries of the event window (see :class:`ScalePoint`).
    entries: int

    def line(self) -> str:
        """Canonical one-line form (same seed => same bytes)."""
        return (
            f"event dpus={self.dpus_before}->{self.dpus_after} "
            f"ops={self.ops} failures={self.failures} "
            f"keys_moved={self.keys_moved} segments={self.segments} "
            f"epoch={self.epoch} duration={self.migration_duration!r} "
            f"p99_before={self.p99_before!r} p99_during={self.p99_during!r} "
            f"p99_after={self.p99_after!r} inflation={self.p99_inflation!r} "
            f"spans={self.migrate_spans}/{self.handoff_spans} "
            f"forwarded={self.forwarded_ops} gated={self.gated_ops}"
        )


@dataclass
class ScaleoutReport:
    """What E16 measured for one seed."""

    seed: int
    duration: float
    points: List[ScalePoint]
    event: ScaleoutEvent
    #: optimized goodput at 8 DPUs / optimized goodput at 1 DPU — the
    #: headline scaling number (>= 4.0 is the acceptance bar).
    speedup_8dpu: float
    #: optimized / naive goodput at 8 DPUs — what batching+cache buy.
    batching_gain_8dpu: float
    telemetry: bytes

    @property
    def entries_per_op(self) -> float:
        """Engine entries per client op over every measured window: the
        deterministic proxy for what the experiment costs to run."""
        runs = [*self.points, self.event]
        return (sum(run.entries for run in runs)
                / sum(run.ops + run.failures for run in runs))

    def canonical_bytes(self) -> bytes:
        """The whole experiment as canonical bytes."""
        lines = [p.line() for p in self.points]
        lines.append(self.event.line())
        lines.append(
            f"headline speedup_8dpu={self.speedup_8dpu!r} "
            f"batching_gain_8dpu={self.batching_gain_8dpu!r}"
        )
        return "\n".join(lines).encode()


def metrics(report) -> Dict[str, Metric]:
    top = max(report.points, key=lambda p: (p.optimized, p.dpus))
    return {
        "speedup_8dpu": Metric(report.speedup_8dpu, HIGHER, "x"),
        "batching_gain_8dpu": Metric(
            report.batching_gain_8dpu, HIGHER, "x"),
        "top_goodput_ops": Metric(top.goodput, HIGHER, "ops/s"),
        "top_p99_s": Metric(top.p99_latency, LOWER, "s"),
        "event_failures": Metric(report.event.failures, LOWER, "ops"),
        "event_p99_inflation": Metric(
            report.event.p99_inflation, LOWER, "x"),
        "event_keys_moved": Metric(report.event.keys_moved, INFO, "keys"),
        "event_migration_s": Metric(
            report.event.migration_duration, INFO, "s"),
        "entries_per_op": Metric(report.entries_per_op, LOWER, "1/op"),
        "report_digest": Metric(0.0, INFO, digest(report.canonical_bytes())),
        "telemetry_digest": Metric(0.0, INFO, digest(report.telemetry)),
    }


def accept(report) -> List[str]:
    event = report.event
    series = [[p.goodput for p in report.points if p.optimized is optimized]
              for optimized in (False, True)]
    top = max(report.points, key=lambda p: (p.optimized, p.dpus))
    return violated(
        (all(goodputs == sorted(goodputs) for goodputs in series),
         "goodput grows with DPU count, naive and optimized"),
        (report.speedup_8dpu >= 4.0,
         "8 optimized DPUs deliver >= 4x the goodput of one"),
        (report.batching_gain_8dpu > 1.0,
         "batching + cache beat the naive path at 8 DPUs"),
        (top.cache_hit_rate > 0.0, "the hot-key cache serves reads"),
        (all(p.failures == 0 for p in report.points),
         "no client op fails anywhere in the sweep"),
        (event.dpus_after == event.dpus_before + 1
         and event.keys_moved > 0 and event.epoch > 1,
         "the live scale-out added a DPU and moved keys to it"),
        (event.failures == 0 and event.ops > 0,
         "zero client ops fail across the scale-out window"),
        (event.migrate_spans == 1 and event.handoff_spans >= 1,
         "the trace holds the migration span and its handoffs"),
        (event.forwarded_ops > 0,
         "forwarding stubs served in-flight keys during the handoff"),
        (event.p99_inflation < 50.0 and event.p99_after < event.p99_during,
         "the migration's p99 inflation is bounded and recovers"),
    )


def _keyspace() -> Tuple[List[bytes], List[bytes]]:
    keys = [f"key-{i:04d}".encode() for i in range(KEY_COUNT)]
    return keys[:HOT_KEYS], keys[HOT_KEYS:]


def _pick(rng: random.Random, hot: List[bytes], cold: List[bytes]) -> bytes:
    if rng.random() < HOT_FRACTION:
        return hot[rng.randrange(len(hot))]
    return cold[rng.randrange(len(cold))]


def _build(sim: Simulator, dpus: int, optimized: bool, workers: int):
    """One cluster plus one closed-loop client (+cache) per worker."""
    network = Network(sim)
    cluster = ShardedKvCluster(
        sim, network, dpu_count=dpus,
        queue_capacity=QUEUE_CAPACITY, workers=WORKERS,
    )
    clients = []
    for index in range(workers):
        cache = (
            HotKeyCache(sim, capacity=CACHE_CAPACITY, lease=CACHE_LEASE)
            if optimized else None
        )
        clients.append(ShardedKvClient(
            sim, cluster, name=f"w{index}", cache=cache, batch_limit=BATCH,
        ))
    return cluster, clients


def _preload(sim: Simulator, cluster: ShardedKvCluster, keys: List[bytes]):
    loader = ShardedKvClient(sim, cluster, name="loader",
                             batch_limit=BATCH)
    value = b"\x00" * VALUE_SIZE
    sim.run_process(loader.put_many([(key, value) for key in keys]))


def _worker_loop(sim, client, rng, hot, cold, horizon, outcomes, optimized,
                 put_fraction=PUT_FRACTION):
    """Closed loop: think, then one read batch or one write, forever."""
    value = b"\x01" * VALUE_SIZE
    while True:
        yield sim.timeout(THINK)
        if sim.now >= horizon:
            return
        started = sim.now
        if rng.random() < put_fraction:
            key = _pick(rng, hot, cold)
            try:
                yield from client.put(key, value)
                outcomes.append((started, sim.now, True, 1))
            except RpcError:
                outcomes.append((started, sim.now, False, 1))
        elif optimized:
            keys = [_pick(rng, hot, cold) for __ in range(BATCH)]
            try:
                yield from client.get_many(keys)
                outcomes.append((started, sim.now, True, len(keys)))
            except RpcError:
                outcomes.append((started, sim.now, False, len(keys)))
        else:
            key = _pick(rng, hot, cold)
            try:
                yield from client.get(key)
                outcomes.append((started, sim.now, True, 1))
            except RpcError:
                outcomes.append((started, sim.now, False, 1))


def _run_point(seed: int, dpus: int, optimized: bool) -> ScalePoint:
    """One fresh simulation: the fixed client population vs one cluster."""
    sim = Simulator()
    cluster, clients = _build(sim, dpus, optimized, CLIENT_WORKERS)
    hot, cold = _keyspace()
    _preload(sim, cluster, hot + cold)

    start = sim.now
    first_entry = sim._eid
    horizon = start + DURATION
    outcomes: List[Tuple[float, float, bool, int]] = []
    for index, client in enumerate(clients):
        rng = random.Random(f"{seed}/sweep/{dpus}/{int(optimized)}/{index}")
        sim.process(_worker_loop(
            sim, client, rng, hot, cold, horizon, outcomes, optimized,
        ))
    sim.run(until=horizon + 5e-3)

    measured = [o for o in outcomes if o[0] >= start]
    served = sum(n for __, __, ok, n in measured if ok)
    failures = sum(n for __, __, ok, n in measured if not ok)
    latencies = sorted(f - s for s, f, ok, __ in measured if ok)
    hits = sum(c.cache.hits for c in clients if c.cache is not None)
    misses = sum(c.cache.misses for c in clients if c.cache is not None)
    return ScalePoint(
        dpus=dpus,
        optimized=optimized,
        ops=served,
        failures=failures,
        goodput=served / DURATION,
        p50_latency=percentile(latencies, 0.50) if latencies else 0.0,
        p99_latency=percentile(latencies, 0.99) if latencies else 0.0,
        round_trips=sum(c.round_trips for c in clients),
        cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        entries=sim._eid - first_entry,
    )


def _run_event(seed: int) -> Tuple[ScaleoutEvent, Simulator]:
    """Steady optimized traffic while a DPU joins the ring mid-run."""
    sim = Simulator()
    cluster, clients = _build(sim, EVENT_DPUS, True, EVENT_WORKERS)
    migrator = ShardMigrator(sim, cluster, segment_keys=SEGMENT_KEYS)
    hot, cold = _keyspace()
    _preload(sim, cluster, hot + cold)

    start = sim.now
    first_entry = sim._eid
    horizon = start + EVENT_DURATION
    outcomes: List[Tuple[float, float, bool, int]] = []
    for index, client in enumerate(clients):
        rng = random.Random(f"{seed}/event/{index}")
        sim.process(_worker_loop(
            sim, client, rng, hot, cold, horizon, outcomes, True,
            put_fraction=EVENT_PUT_FRACTION,
        ))

    window: List[float] = []
    report_box: List[object] = []

    def control():
        yield sim.timeout(EVENT_MIGRATE_AT)
        window.append(sim.now)
        sim.tracer.enable()
        report = yield from migrator.add_dpu()
        sim.tracer.disable()
        window.append(sim.now)
        report_box.append(report)

    sim.process(control())
    sim.run(until=horizon + 5e-3)

    if not report_box:
        raise RuntimeError(
            "scale-out migration did not complete within the event window"
        )
    report = report_box[0]
    mig_start, mig_end = window
    measured = [o for o in outcomes if o[0] >= start]
    failures = sum(n for __, __, ok, n in measured if not ok)
    before = sorted(f - s for s, f, ok, __ in measured
                    if ok and f <= mig_start)
    during = sorted(f - s for s, f, ok, __ in measured
                    if ok and f > mig_start and s < mig_end)
    after = sorted(f - s for s, f, ok, __ in measured if ok and s >= mig_end)
    p99_before = percentile(before, 0.99) if before else 0.0
    p99_during = percentile(during, 0.99) if during else 0.0
    p99_after = percentile(after, 0.99) if after else 0.0

    # Iterative walk: concurrent client spans clock-nest under the long
    # migration span, so the tree is far deeper than the recursion limit.
    migrate_spans = handoff_spans = 0
    stack = list(sim.tracer.roots)
    while stack:
        span = stack.pop()
        stack.extend(span.children)
        if span.name == "shard.migrate":
            migrate_spans += 1
        elif span.name == "shard.handoff":
            handoff_spans += 1

    event = ScaleoutEvent(
        dpus_before=EVENT_DPUS,
        dpus_after=len(cluster.ring),
        ops=sum(n for __, __, ok, n in measured if ok),
        failures=failures,
        keys_moved=report.keys_moved,
        segments=report.segments,
        epoch=report.epoch,
        migration_start=mig_start - start,
        migration_duration=report.duration,
        p99_before=p99_before,
        p99_during=p99_during,
        p99_after=p99_after,
        p99_inflation=p99_during / p99_before if p99_before else 0.0,
        migrate_spans=migrate_spans,
        handoff_spans=handoff_spans,
        forwarded_ops=sum(
            f.forwarded_ops for f in cluster.forwarders.values()
        ),
        gated_ops=sum(
            f.gated_ops for f in cluster.forwarders.values()
        ),
        entries=sim._eid - first_entry,
    )
    return event, sim


def run_scaleout(
    seed: int = 16,
    dpu_counts: Tuple[int, ...] = DPU_COUNTS,
) -> ScaleoutReport:
    points: List[ScalePoint] = []
    for optimized in (False, True):
        for dpus in dpu_counts:
            points.append(_run_point(seed, dpus, optimized))

    def goodput(dpus: int, optimized: bool) -> Optional[float]:
        for point in points:
            if point.dpus == dpus and point.optimized == optimized:
                return point.goodput
        return None

    top = max(dpu_counts)
    base = goodput(min(dpu_counts), True)
    opt_top = goodput(top, True)
    naive_top = goodput(top, False)
    event, sim = _run_event(seed)
    return ScaleoutReport(
        seed=seed,
        duration=DURATION,
        points=points,
        event=event,
        speedup_8dpu=opt_top / base if base else 0.0,
        batching_gain_8dpu=opt_top / naive_top if naive_top else 0.0,
        telemetry=sim.telemetry.snapshot_bytes(),
    )


def format_scaleout(report: ScaleoutReport) -> str:
    table = Table(
        f"E16: scale-out data plane — goodput vs DPU count "
        f"({CLIENT_WORKERS} closed-loop clients, "
        f"{PUT_FRACTION * 100:g}% writes, seed={report.seed})",
        ["dpus", "variant", "ops", "goodput (ops/s)", "p50 (us)",
         "p99 (us)", "round trips", "cache hit"],
    )
    for point in report.points:
        table.add_row(
            point.dpus,
            "optimized" if point.optimized else "naive",
            point.ops,
            f"{point.goodput:.0f}",
            f"{point.p50_latency * 1e6:.1f}",
            f"{point.p99_latency * 1e6:.1f}",
            point.round_trips,
            f"{point.cache_hit_rate * 100:.1f}%",
        )
    rendered = table.render()
    rendered += (
        f"\n\nscaling: 8-DPU optimized goodput is "
        f"{report.speedup_8dpu:.2f}x the 1-DPU figure "
        f"(batching+cache worth {report.batching_gain_8dpu:.2f}x at 8 DPUs)"
    )
    event = report.event
    rendered += (
        f"\n\nlive scale-out ({event.dpus_before}->{event.dpus_after} DPUs "
        f"at t={event.migration_start * 1e3:.0f}ms): "
        f"{event.keys_moved} keys in {event.segments} segments over "
        f"{event.migration_duration * 1e3:.2f}ms, epoch -> {event.epoch}"
    )
    rendered += (
        f"\n  client ops: {event.ops} served, {event.failures} failed; "
        f"p99 {event.p99_before * 1e6:.0f}us -> "
        f"{event.p99_during * 1e6:.0f}us during migration "
        f"({event.p99_inflation:.2f}x) -> "
        f"{event.p99_after * 1e6:.0f}us after"
    )
    rendered += (
        f"\n  trace: {event.migrate_spans} shard.migrate span(s), "
        f"{event.handoff_spans} handoff segment span(s); "
        f"{event.forwarded_ops} ops forwarded, {event.gated_ops} gated"
    )
    return rendered
