"""E17: geo-replication — consistency sweep + region-loss disaster drill.

Two phases over :mod:`repro.georep`:

**Consistency sweep.** Three regions on an asymmetric WAN; one client
homed at the primary issues the same write sequence under ``async``,
``quorum`` and ``sync`` acknowledgement modes. The sweep shows the
fundamental trade the modes buy: async acks at local-WAL latency but
leaves a replication-lag window (the RPO exposure), sync pays the
slowest peer's round trip for a zero-lag ack, quorum sits between.

**Disaster drill.** Live Zipfian traffic from clients homed in two
follower regions, all writing through the primary, while a
:class:`~repro.faults.FaultPlan` blackholes every WAN path touching the
primary for a fixed window (full region loss) and heals it. The drill
measures what the paper's robustness story needs measured:

* **RPO** — the acked-but-unreplicated window at the instant of the
  kill (the shippers' replication lag, in entries and seconds);
* **RTO** — detection (first op served by a surviving region) and
  steady state (first bin whose p99 returns under 1.5x baseline);
* **zero lost acknowledged writes** — after heal and quiesce, every
  region is swept and every acked write's last-writer-wins winner must
  be present everywhere (replayed writes included);
* **goodput retention** — ops/s before, during and after the outage;
* **bounded-staleness reads** — a two-rung brownout ladder (normal ->
  stale-reads) trips on the failover latency spike and lets follower
  clients serve reads locally within a staleness bound.

Same seed, byte-identical report — including the fault schedule, the
brownout transition log, the SLO alert log and the telemetry snapshot.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import DegradedError
from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, digest, violated
from repro.faults import FaultInjector, FaultPlan
from repro.georep import Consistency, GeoCluster, GeoKvClient, WanSpec
from repro.overload import BrownoutController, BrownoutMode
from repro.sim import Simulator
from repro.telemetry import Sampler, SloMonitor, SloRule, percentile
from repro.transport import RetryBudget

#: Region names, client preference order: r1 is the primary.
REGIONS = ("r1", "r2", "r3")
PRIMARY = "r1"
#: Where sticky clients settle after the primary dies (first survivor).
FAILOVER = "r2"

#: The WAN: only the asymmetry matters, so only asymmetric paths are
#: spelled out (the rest default). One-way times in seconds.
WAN = (
    WanSpec("r1", "r2", propagation=3.0e-3),
    WanSpec("r2", "r1", propagation=4.0e-3),
    WanSpec("r1", "r3", propagation=5.0e-3),
    WanSpec("r3", "r1", propagation=5.5e-3),
    WanSpec("r2", "r3", propagation=4.0e-3),
    WanSpec("r3", "r2", propagation=4.5e-3),
)

#: Consistency sweep: sequential puts from a primary-homed client.
MODE_PUTS = 20
MODE_THINK = 1e-3
MODE_HORIZON = 1.5

#: Drill workload: closed-loop Zipfian clients homed in the followers.
KEYS = 48
ZIPF_S = 1.1
PUT_FRACTION = 0.35
THINK = 2e-3
#: (home region, worker count) — nobody is homed in the blast radius.
WORKERS = (("r2", 3), ("r3", 3))

#: Drill timeline (simulated seconds).
T_START = 0.08
T_KILL = 0.23
T_HEAL = 0.48
T_END = 0.78
T_QUIESCE = 0.95

#: Recovery accounting: goodput bins and the steady-state criterion. A
#: bin only counts as recovered when it carries at least this fraction
#: of the baseline op rate AND its p99 is back under RTO_FACTOR x
#: baseline — otherwise the trickle of in-flight completions right
#: after the kill would declare recovery before the stall even bites.
RTO_BIN = 20e-3
RTO_FACTOR = 1.5
RTO_MIN_RATE = 0.5

#: Brownout: a latency SLO trips a two-rung ladder (normal->stale) so
#: follower reads shed their WAN round trip during the failover spike.
SAMPLE_PERIOD = 1e-3
LATENCY_RULE = "eval.georep.op_latency p99 < 20ms"
BROWNOUT_DWELL = 3e-3
BROWNOUT_RECOVERY = 60e-3
STALE_BOUND = 80e-3
GEO_LADDER = (
    BrownoutMode("normal"),
    BrownoutMode("stale-reads", serve_stale=True),
)

#: Client-side retry budget (counted in telemetry, satellite of E15).
RETRY_BUDGET = 40
RETRY_WINDOW = 100e-3


@dataclass(frozen=True)
class ModePoint:
    """One consistency mode's write-side cost and replication exposure."""

    mode: str
    puts: int
    put_p50: float
    put_p99: float
    #: Largest shipper lag (seconds) observed at a put completion.
    peak_lag: float
    #: Worst follower staleness w.r.t. the primary at end of traffic.
    follower_staleness: float

    def line(self) -> str:
        return (f"mode {self.mode} puts={self.puts} "
                f"p50={self.put_p50!r} p99={self.put_p99!r} "
                f"peak_lag={self.peak_lag!r} "
                f"staleness={self.follower_staleness!r}")


@dataclass(frozen=True)
class DrillReport:
    """The disaster drill's verdict: RPO, RTO, and the lost-write sweep."""

    ops: int
    acked_writes: int
    failed_ops: int
    lost_acked_writes: int
    diverged_keys: int
    indeterminate_keys: int
    rpo_entries: int
    rpo_seconds: float
    rto_detect: float
    rto_steady: float
    goodput_before: float
    goodput_during: float
    goodput_after: float
    #: Worst RTO_BIN-sized bin inside the outage window (the stall).
    goodput_floor: float
    retention_during: float
    failovers: int
    replayed_writes: int
    stale_reads_served: int
    max_staleness_served: float
    brownout_transitions: int
    slo_alerts_fired: int

    def line(self) -> str:
        return (
            f"drill ops={self.ops} acked={self.acked_writes} "
            f"failed={self.failed_ops} lost={self.lost_acked_writes} "
            f"diverged={self.diverged_keys} "
            f"indeterminate={self.indeterminate_keys} "
            f"rpo_entries={self.rpo_entries} rpo_s={self.rpo_seconds!r} "
            f"rto_detect={self.rto_detect!r} rto_steady={self.rto_steady!r} "
            f"goodput=({self.goodput_before!r},{self.goodput_during!r},"
            f"{self.goodput_after!r}) floor={self.goodput_floor!r} "
            f"retention={self.retention_during!r} "
            f"failovers={self.failovers} replayed={self.replayed_writes} "
            f"stale_served={self.stale_reads_served} "
            f"max_staleness={self.max_staleness_served!r} "
            f"brownout={self.brownout_transitions} "
            f"alerts={self.slo_alerts_fired}"
        )


@dataclass
class GeorepReport:
    """Everything E17 measured, canonically rendered for the benchmark."""

    seed: int
    modes: List[ModePoint]
    drill: DrillReport
    fault_log: bytes
    brownout_log: bytes
    alert_log: bytes
    telemetry: bytes

    def canonical_bytes(self) -> bytes:
        lines = [f"georep seed={self.seed}"]
        lines.extend(point.line() for point in self.modes)
        lines.append(self.drill.line())
        head = ("\n".join(lines) + "\n").encode()
        return b"\n".join(
            [head, self.fault_log, self.brownout_log, self.alert_log,
             self.telemetry]
        )


def metrics(report) -> Dict[str, Metric]:
    drill = report.drill
    by_mode = {point.mode: point for point in report.modes}
    return {
        "rpo_s": Metric(drill.rpo_seconds, LOWER, "s"),
        "rto_detect_s": Metric(drill.rto_detect, LOWER, "s"),
        "rto_steady_s": Metric(drill.rto_steady, LOWER, "s"),
        "lost_acked_writes": Metric(drill.lost_acked_writes, LOWER, "writes"),
        "diverged_keys": Metric(drill.diverged_keys, LOWER, "keys"),
        "failover_goodput_retention": Metric(
            drill.retention_during, HIGHER, "frac"),
        "failover_goodput_floor_ops": Metric(
            drill.goodput_floor, HIGHER, "ops/s"),
        "async_put_p99_s": Metric(by_mode["async"].put_p99, LOWER, "s"),
        "sync_put_p99_s": Metric(by_mode["sync"].put_p99, LOWER, "s"),
        "async_peak_lag_s": Metric(by_mode["async"].peak_lag, INFO, "s"),
        "failovers": Metric(drill.failovers, INFO, "count"),
        "replayed_writes": Metric(drill.replayed_writes, INFO, "writes"),
        "stale_reads_served": Metric(
            drill.stale_reads_served, INFO, "reads"),
        "report_digest": Metric(0.0, INFO, digest(report.canonical_bytes())),
        "telemetry_digest": Metric(0.0, INFO, digest(report.telemetry)),
    }


def accept(report) -> List[str]:
    drill = report.drill
    outage = T_HEAL - T_KILL
    by_mode = {point.mode: point for point in report.modes}
    p99 = [by_mode[mode].put_p99 for mode in ("async", "quorum", "sync")]
    return violated(
        (drill.lost_acked_writes == 0 and drill.acked_writes > 0,
         "a region loss loses zero acknowledged writes"),
        (drill.diverged_keys == 0, "every region reconverges after the heal"),
        (drill.failed_ops == 0, "no client op fails during the drill"),
        (0.0 < drill.rto_detect <= drill.rto_steady < outage,
         "detection and steady-state RTO fit inside the outage window"),
        (drill.rpo_entries >= 0 and drill.rpo_seconds < outage,
         "RPO exposure at the kill is bounded by the outage window"),
        (drill.failovers > 0 and drill.replayed_writes > 0,
         "clients failed over and replayed their unacked writes"),
        (drill.stale_reads_served > 0 and drill.max_staleness_served > 0.0
         and drill.brownout_transitions >= 2,
         "brownout served bounded-stale reads, then stood down"),
        (drill.goodput_during > 0.0 and drill.retention_during > 0.0,
         "traffic keeps flowing through the outage"),
        (len(by_mode) == 3 and p99 == sorted(set(p99)),
         "stronger modes pay more per write: async < quorum < sync at p99"),
        (by_mode["async"].peak_lag > 0.0 and by_mode["sync"].peak_lag == 0.0,
         "async acks leave replication lag; sync acks leave none"),
        (all(p.follower_staleness < 0.05 for p in report.modes),
         "followers stay heartbeat-fresh (< 50 ms) in every mode"),
    )


# ---------------------------------------------------------------------------
# workload helpers
# ---------------------------------------------------------------------------

def _keys() -> List[bytes]:
    return [f"key-{index:03d}".encode() for index in range(KEYS)]


def _zipf_cdf(n: int, s: float = ZIPF_S) -> List[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    return cdf


def _pick(rng: random.Random, keys: List[bytes], cdf: List[float]) -> bytes:
    return keys[bisect_left(cdf, rng.random())]


def _record_ack(acked: Dict[bytes, Tuple[Tuple[float, str], bytes]],
                key: bytes, stamp: float, region: str,
                value: bytes) -> None:
    """Track the LWW winner among *acknowledged* writes per key."""
    version = (stamp, region)
    current = acked.get(key)
    if current is None or version > current[0]:
        acked[key] = (version, value)


# ---------------------------------------------------------------------------
# phase 1: the consistency-mode sweep
# ---------------------------------------------------------------------------

def _run_mode(mode: Consistency, seed: int) -> ModePoint:
    sim = Simulator()
    cluster = GeoCluster(sim, REGIONS, wan=WAN, consistency=mode)
    client = GeoKvClient(sim, cluster, f"mode-{mode.value}", home=PRIMARY)
    primary = cluster.region(PRIMARY)
    latencies: List[float] = []
    peak_lag = [0.0]
    staleness = [0.0]
    done = [False]

    def driver():
        for index in range(MODE_PUTS):
            yield sim.timeout(MODE_THINK)
            started = sim.now
            key = f"mode-key-{index:02d}".encode()
            yield from client.put(key, f"v{index}".encode())
            latencies.append(sim.now - started)
            lag = max(s.lag_seconds for s in primary.shippers.values())
            peak_lag[0] = max(peak_lag[0], lag)
        staleness[0] = max(
            cluster.region(name).staleness_of(PRIMARY)
            for name in REGIONS if name != PRIMARY
        )
        done[0] = True

    sim.process(driver())
    sim.run(until=MODE_HORIZON)
    if not done[0]:
        raise RuntimeError(f"mode sweep {mode.value} did not finish")
    cluster.stop()
    sim.run()
    return ModePoint(
        mode=mode.value,
        puts=len(latencies),
        put_p50=percentile(latencies, 0.5),
        put_p99=percentile(latencies, 0.99),
        peak_lag=peak_lag[0],
        follower_staleness=staleness[0],
    )


# ---------------------------------------------------------------------------
# phase 2: the disaster drill
# ---------------------------------------------------------------------------

def _kill_plan(seed: int) -> FaultPlan:
    """Full region loss: blackhole every WAN path touching the primary."""
    plan = FaultPlan(seed=seed)
    for name in REGIONS:
        if name == PRIMARY:
            continue
        plan.wan_partition(f"kill-{PRIMARY}-{name}", PRIMARY, name,
                           T_KILL, T_HEAL)
        plan.wan_partition(f"kill-{name}-{PRIMARY}", name, PRIMARY,
                           T_KILL, T_HEAL)
    return plan


def _run_drill(seed: int) -> Tuple[DrillReport, bytes, bytes, bytes, bytes]:
    sim = Simulator()
    plan = _kill_plan(seed)
    injector = FaultInjector(sim, plan)
    cluster = GeoCluster(sim, REGIONS, wan=WAN, injector=injector)

    op_latency = sim.telemetry.histogram("eval.georep.op_latency")
    sampler = Sampler(sim.telemetry, sim, period=SAMPLE_PERIOD)
    sampler.watch("eval.georep.op_latency")
    monitor = SloMonitor(sampler, [SloRule.parse(LATENCY_RULE, name="op-p99")])
    brownout = BrownoutController(
        monitor, sim.telemetry.unique_scope("eval.georep.brownout"),
        modes=GEO_LADDER, dwell=BROWNOUT_DWELL, recovery=BROWNOUT_RECOVERY,
    )

    keys = _keys()
    cdf = _zipf_cdf(len(keys))
    #: key -> ((stamp, region), value): the acked LWW winner so far.
    acked: Dict[bytes, Tuple[Tuple[float, str], bytes]] = {}
    #: key -> completion time of a put whose fate is unknown (degraded).
    indeterminate: Dict[bytes, float] = {}
    #: (started, finished, ok, kind) per op, in completion order.
    outcomes: List[Tuple[float, float, bool, str]] = []
    detect: List[float] = []
    rpo_box: List[Tuple[int, float]] = []
    done = [False]
    loaded = [0]

    clients: List[GeoKvClient] = []
    for home, count in WORKERS:
        for index in range(count):
            name = f"{home}-w{index}"
            budget = RetryBudget(
                sim, budget=RETRY_BUDGET, window=RETRY_WINDOW,
                metrics=sim.telemetry.unique_scope(
                    f"eval.georep.retry_budget.{name}"),
            )
            clients.append(GeoKvClient(
                sim, cluster, name, home=home, preference=REGIONS,
                rounds=8, stale_bound=STALE_BOUND, brownout=brownout,
                retry_budget=budget,
            ))
    loader = GeoKvClient(sim, cluster, "loader", home=PRIMARY)

    def load(slice_keys: List[bytes]):
        for key in slice_keys:
            value = b"init-" + key
            stamp, region = yield from loader.put(key, value)
            _record_ack(acked, key, stamp, region, value)
            loaded[0] += 1

    def worker(client: GeoKvClient, rng: random.Random):
        sequence = 0
        yield sim.timeout(T_START)
        while True:
            yield sim.timeout(rng.uniform(0.5, 1.5) * THINK)
            if sim.now >= T_END:
                return
            started = sim.now
            key = _pick(rng, keys, cdf)
            write = rng.random() < PUT_FRACTION
            ok = True
            if write:
                value = f"{client.name}:{sequence}".encode()
                sequence += 1
                try:
                    stamp, region = yield from client.put(key, value)
                except DegradedError:
                    ok = False
                    indeterminate[key] = sim.now
                else:
                    _record_ack(acked, key, stamp, region, value)
                    if not detect and sim.now > T_KILL and region != PRIMARY:
                        detect.append(sim.now - T_KILL)
            else:
                try:
                    yield from client.get(key)
                except DegradedError:
                    ok = False
            op_latency.observe(sim.now - started)
            outcomes.append((started, sim.now, ok, "w" if write else "r"))

    def chaos():
        yield sim.timeout(T_KILL)
        # The RPO exposure, captured at the instant of the kill: the
        # worst acked-but-unreplicated window across surviving peers.
        shippers = cluster.region(PRIMARY).shippers
        rpo_box.append((
            max(s.lag_entries for s in shippers.values()),
            max(s.lag_seconds for s in shippers.values()),
        ))

    def sampling():
        while not done[0]:
            yield sim.timeout(sampler.period)
            sampler.sample()

    slice_size = (len(keys) + 7) // 8
    for offset in range(0, len(keys), slice_size):
        sim.process(load(keys[offset:offset + slice_size]))
    for client in clients:
        sim.process(worker(
            client, random.Random(f"georep/{seed}/{client.name}")))
    sim.process(chaos())
    sim.process(sampling())
    sim.run(until=T_QUIESCE)
    if loaded[0] != len(keys) or not rpo_box:
        raise RuntimeError("drill setup did not complete")
    done[0] = True
    cluster.stop()
    sim.run()

    # -- verification sweep: zero lost acked writes, full convergence -----
    lost = diverged = skipped = 0
    for key in sorted(acked):
        (stamp, __), value = acked[key]
        got = {
            name: sim.run_process(cluster.region(name).store.get(key))
            for name in REGIONS
        }
        if len(set(got.values())) != 1:
            diverged += 1
        if key in indeterminate and indeterminate[key] > stamp:
            skipped += 1  # last write's fate unknown: not checkable
            continue
        if got[FAILOVER] != value:
            lost += 1

    # -- recovery accounting ----------------------------------------------
    ok_ops = [(s, f) for s, f, ok, __ in outcomes if ok]
    before = [f - s for s, f in ok_ops if T_START <= f < T_KILL]
    during = [f - s for s, f in ok_ops if T_KILL <= f < T_HEAL]
    after = [f - s for s, f in ok_ops if T_HEAL <= f < T_END]
    goodput_before = len(before) / (T_KILL - T_START)
    goodput_during = len(during) / (T_HEAL - T_KILL)
    goodput_after = len(after) / (T_END - T_HEAL)
    baseline_p99 = percentile(before, 0.99)
    min_bin_ops = RTO_MIN_RATE * goodput_before * RTO_BIN
    rto_steady = T_END - T_KILL
    edge = T_KILL
    while edge + RTO_BIN <= T_END:
        window = [f - s for s, f in ok_ops if edge <= f < edge + RTO_BIN]
        if (len(window) >= min_bin_ops
                and percentile(window, 0.99) <= RTO_FACTOR * baseline_p99):
            rto_steady = edge + RTO_BIN - T_KILL
            break
        edge += RTO_BIN
    floor_bins = []
    edge = T_KILL
    while edge + RTO_BIN <= T_HEAL:
        count = sum(1 for __, f in ok_ops if edge <= f < edge + RTO_BIN)
        floor_bins.append(count / RTO_BIN)
        edge += RTO_BIN
    goodput_floor = min(floor_bins)
    rpo_entries, rpo_seconds = rpo_box[0]

    drill = DrillReport(
        ops=len(outcomes),
        acked_writes=sum(1 for __, __, ok, kind in outcomes
                         if ok and kind == "w") + len(keys),
        failed_ops=sum(1 for __, __, ok, __ in outcomes if not ok),
        lost_acked_writes=lost,
        diverged_keys=diverged,
        indeterminate_keys=skipped,
        rpo_entries=rpo_entries,
        rpo_seconds=rpo_seconds,
        rto_detect=detect[0] if detect else T_HEAL - T_KILL,
        rto_steady=rto_steady,
        goodput_before=goodput_before,
        goodput_during=goodput_during,
        goodput_after=goodput_after,
        goodput_floor=goodput_floor,
        retention_during=(goodput_during / goodput_before
                          if goodput_before else 0.0),
        failovers=sum(c.failovers for c in clients),
        replayed_writes=sum(c.replayed_writes for c in clients),
        stale_reads_served=sum(c.stale_reads_served for c in clients),
        max_staleness_served=max(c.max_staleness_served for c in clients),
        brownout_transitions=len(brownout.transitions),
        slo_alerts_fired=monitor.fired_count(),
    )
    fault_log = "\n".join(
        [plan.describe()] + [record.line() for record in injector.log]
    ).encode()
    return (drill, fault_log, brownout.transition_log_bytes(),
            monitor.alert_log_bytes(), sim.telemetry.snapshot_bytes())


def run_georep(seed: int = 17) -> GeorepReport:
    """Run the consistency sweep and the disaster drill (E17)."""
    modes = [_run_mode(mode, seed) for mode in Consistency]
    drill, fault_log, brownout_log, alert_log, telemetry = _run_drill(seed)
    return GeorepReport(
        seed=seed, modes=modes, drill=drill, fault_log=fault_log,
        brownout_log=brownout_log, alert_log=alert_log, telemetry=telemetry,
    )


def format_georep(report: GeorepReport) -> str:
    sweep = Table(
        "E17a: write cost vs replication exposure by consistency mode",
        ["mode", "puts", "put p50 (ms)", "put p99 (ms)",
         "peak lag (ms)", "follower staleness (ms)"],
    )
    for point in report.modes:
        sweep.add_row(
            point.mode, point.puts, point.put_p50 * 1e3,
            point.put_p99 * 1e3, point.peak_lag * 1e3,
            point.follower_staleness * 1e3,
        )
    drill = report.drill
    timeline = Table(
        "E17b: region-loss drill — goodput through kill and heal",
        ["window", "goodput (ops/s)", "of baseline"],
    )
    timeline.add_row("before kill", drill.goodput_before, 1.0)
    timeline.add_row("during outage", drill.goodput_during,
                     drill.retention_during)
    timeline.add_row("worst outage bin", drill.goodput_floor,
                     (drill.goodput_floor / drill.goodput_before
                      if drill.goodput_before else 0.0))
    timeline.add_row("after heal", drill.goodput_after,
                     (drill.goodput_after / drill.goodput_before
                      if drill.goodput_before else 0.0))
    verdict = Table(
        "E17b: recovery objectives",
        ["metric", "value"],
    )
    verdict.add_row("RPO at kill (entries)", drill.rpo_entries)
    verdict.add_row("RPO at kill (ms)", drill.rpo_seconds * 1e3)
    verdict.add_row("RTO detect (ms)", drill.rto_detect * 1e3)
    verdict.add_row("RTO steady-state (ms)", drill.rto_steady * 1e3)
    verdict.add_row("acked writes", drill.acked_writes)
    verdict.add_row("lost acked writes", drill.lost_acked_writes)
    verdict.add_row("diverged keys after heal", drill.diverged_keys)
    verdict.add_row("failovers", drill.failovers)
    verdict.add_row("replayed writes", drill.replayed_writes)
    verdict.add_row("stale reads served", drill.stale_reads_served)
    verdict.add_row("max staleness served (ms)",
                    drill.max_staleness_served * 1e3)
    verdict.add_row("brownout transitions", drill.brownout_transitions)
    verdict.add_row("SLO alerts fired", drill.slo_alerts_fired)
    closing = (
        "zero lost acknowledged writes"
        if drill.lost_acked_writes == 0 and drill.diverged_keys == 0
        else "DATA LOSS DETECTED"
    )
    return "\n\n".join([
        sweep.render(), timeline.render(), verdict.render(),
        f"verdict: {closing} "
        f"(seed={report.seed}, ops={drill.ops}, "
        f"failed={drill.failed_ops})",
    ])
