"""E20: manual vs. SLO-driven capacity under a daily traffic curve.

The traffic plane's closing argument.  A three-tenant
:class:`~repro.workload.WorkloadSpec` (get-heavy web, write-heavy
mobile, scan/analytics batch with an evening burst) follows a
compressed diurnal day; an open-loop generator offers that load to a
:class:`~repro.sharding.ShardedKvCluster` no matter how the cluster
copes.  Three provisioning strategies serve the identical arrival
stream (same seed, same draws):

* **static-min** — the morning-trough fleet all day.  Cheap, and the
  midday peak collapses it: sustained p99 breach, shed ops.
* **static-peak** — the midday fleet all day.  Holds the SLO and pays
  for idle DPUs all night.
* **autoscaled** — starts at the trough fleet; an
  :class:`~repro.workload.Autoscaler` watches two SLO rules and drives
  :class:`~repro.sharding.ShardMigrator` add/remove-DPU: scale-out on
  sustained p99 breach, drain on sustained low offered rate, dwell/
  cooldown hysteresis in between.

The acceptance claim: the autoscaled fleet holds worst-window p99
within :data:`P99_FACTOR` of static-peak while spending materially
fewer DPU-seconds.  Same seed => byte-identical report, under any
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, digest, violated
from repro.hw.net import Network
from repro.overload import QueuePolicy
from repro.sharding import (
    HotKeyCache,
    ShardedKvCluster,
    ShardedKvClient,
    ShardMigrator,
)
from repro.sim import Simulator
from repro.telemetry import percentile
from repro.telemetry.slo import SloMonitor, SloRule
from repro.telemetry.timeseries import Sampler
from repro.workload import (
    Autoscaler,
    AutoscalerPolicy,
    OpenLoopTraffic,
    WorkloadSpec,
)

#: One compressed "day" of simulated time.
DAY = 0.6

#: Grace period after the last arrival for stragglers to complete.
GRACE = 0.02

#: Telemetry sampling / SLO evaluation tick.
SAMPLE_PERIOD = 1e-3

#: The scenario. Rates are sized against the put-bound service model:
#: a put parks one of a DPU's two workers on a ~0.5 ms WAL flash
#: program, so one DPU serves ~4k puts/s; the midday put rate
#: (0.22*28000 + 0.30*18000 = 11.6k/s) needs 3-5 DPUs while the
#: overnight trough fits comfortably on 2.
SPEC_TEXT = """\
keys 128
zipf 1.0
tenant web    mix get=0.78,put=0.22 curve diurnal trough=3600 peak=28000 period=600ms
tenant mobile mix get=0.70,put=0.30 curve diurnal trough=2400 peak=18000 period=600ms phase=0.05
tenant batch  mix scan=0.7,analytics=0.3 curve burst base=600 burst=2400 at=450ms dur=50ms
"""

#: Fleet bounds: the under/over-provisioned strategies and the
#: autoscaler's policy range.
MIN_DPUS = 3
PEAK_DPUS = 5
MAX_DPUS = 6

#: Per-DPU service model (matches E16 plus the overload plane): a
#: bounded CoDel queue and two run-to-completion workers. CoDel drops
#: requests whose queue sojourn has exceeded CODEL_TARGET for a full
#: CODEL_INTERVAL, so when the open-loop ramp outruns the fleet the
#: breach shows up as shed work and a p99 plateau rather than
#: unbounded queueing — the admission interplay the SLO rules assume.
QUEUE_CAPACITY = 64
WORKERS = 2
CODEL_TARGET = 2e-3
CODEL_INTERVAL = 4e-3

#: Client knobs: fail fast (open-loop users do not retry), small
#: leased hot-key cache per tenant.
CLIENT_TIMEOUT = 20e-3
BATCH = 32
CACHE_CAPACITY = 32
CACHE_LEASE = 1e-3
VALUE_SIZE = 64

#: A request is *good* if it completes within this deadline.
DEADLINE = 5e-3

#: The two SLO objectives the autoscaler subscribes to.
BREACH_RULE = "p99-breach"
BREACH_TEXT = "workload.traffic.op_latency p99 < 3ms for 2ms"
IDLE_RULE = "fleet-idle"
#: Rules state *objectives* and fire on sustained violation: the idle
#: rule's objective is "the fleet is busy", so it fires — permitting a
#: drain — once the offered rate has stayed below 12k/s for 15ms.
IDLE_TEXT = "workload.traffic.offered_rate value >= 12000 for 15ms"

#: Autoscaler hysteresis: one completed action per cooldown.
COOLDOWN = 50e-3

#: Handoff segment size for autoscaler-driven migrations: coarser than
#: the E16 default, halving the per-segment RPC round trips a busy
#: source must serve mid-ramp.
SEGMENT_KEYS = 16

#: Report granularity: the day split into this many equal windows.
WINDOWS = 6

#: Acceptance: autoscaled worst-window p99 within this factor of
#: static-peak's.
P99_FACTOR = 2.0


@dataclass
class VariantResult:
    """One provisioning strategy's day."""

    mode: str
    dpus_start: int
    dpus_max: int
    offered: int
    served: int
    failed: int
    good: int
    goodput: float
    p50: float
    p99: float
    worst_window_p99: float
    window_p99s: List[float]
    breach_ticks: int
    ticks: int
    dpu_seconds: float
    scale_outs: int
    drains: int
    #: Engine entries the day cost (``Simulator._eid`` delta): what the
    #: simulator paid, not what the model did, so not in :meth:`line`.
    entries: int

    @property
    def breach_fraction(self) -> float:
        """Fraction of SLO ticks spent with the p99 objective firing."""
        return self.breach_ticks / self.ticks if self.ticks else 0.0

    def line(self) -> str:
        """Canonical one-line form (same seed => same bytes)."""
        windows = ",".join(f"{p!r}" for p in self.window_p99s)
        return (
            f"variant mode={self.mode} dpus={self.dpus_start}"
            f"->{self.dpus_max} offered={self.offered} "
            f"served={self.served} failed={self.failed} "
            f"good={self.good} goodput={self.goodput!r} "
            f"p50={self.p50!r} p99={self.p99!r} "
            f"worst_window_p99={self.worst_window_p99!r} "
            f"windows=[{windows}] "
            f"breach={self.breach_ticks}/{self.ticks} "
            f"dpu_seconds={self.dpu_seconds!r} "
            f"actions={self.scale_outs}+{self.drains}"
        )


@dataclass
class AutoscaleReport:
    """What E20 measured for one seed."""

    seed: int
    day: float
    variants: List[VariantResult]
    #: Autoscaled DPU-seconds / static-peak DPU-seconds.
    capacity_ratio: float
    #: Autoscaled worst-window p99 / static-peak worst-window p99.
    p99_ratio: float
    #: Whether the acceptance claim held (p99 within P99_FACTOR of
    #: static-peak at strictly fewer DPU-seconds, every decided
    #: migration completed).
    accepted: bool
    #: The autoscaler's canonical decision/completion log.
    autoscale_log: bytes
    #: The autoscaled variant's SLO alert log.
    alert_log: bytes
    #: Full telemetry snapshot of the autoscaled run.
    telemetry: bytes

    @property
    def entries_per_op(self) -> float:
        """Engine entries per offered client op over the three days: the
        deterministic proxy for what the experiment costs to run."""
        return (sum(v.entries for v in self.variants)
                / sum(v.offered for v in self.variants))

    def variant(self, mode: str) -> VariantResult:
        """The result for *mode* (static-min/static-peak/autoscaled)."""
        for result in self.variants:
            if result.mode == mode:
                return result
        raise KeyError(mode)

    def canonical_bytes(self) -> bytes:
        """The whole experiment as canonical bytes."""
        lines = [v.line() for v in self.variants]
        lines.append(
            f"headline capacity_ratio={self.capacity_ratio!r} "
            f"p99_ratio={self.p99_ratio!r} accepted={self.accepted}"
        )
        lines.append(self.autoscale_log.decode())
        lines.append(self.alert_log.decode())
        return "\n".join(lines).encode()


def metrics(report) -> Dict[str, Metric]:
    auto = report.variant("autoscaled")
    peak = report.variant("static-peak")
    low = report.variant("static-min")
    return {
        "capacity_ratio": Metric(report.capacity_ratio, LOWER, "x"),
        "p99_vs_peak": Metric(report.p99_ratio, LOWER, "x"),
        "auto_goodput": Metric(auto.goodput, HIGHER, "req/s"),
        "auto_worst_window_p99_s": Metric(
            auto.worst_window_p99, LOWER, "s"),
        "auto_breach_fraction": Metric(auto.breach_fraction, LOWER, "frac"),
        "peak_breach_fraction": Metric(peak.breach_fraction, INFO, "frac"),
        "min_breach_fraction": Metric(low.breach_fraction, INFO, "frac"),
        "auto_dpu_seconds": Metric(auto.dpu_seconds, LOWER, "s"),
        "scale_outs": Metric(auto.scale_outs, INFO, "count"),
        "drains": Metric(auto.drains, INFO, "count"),
        "accepted": Metric(1.0 if report.accepted else 0.0, HIGHER, "bool"),
        "entries_per_op": Metric(report.entries_per_op, LOWER, "1/op"),
        "report_digest": Metric(0.0, INFO, digest(report.canonical_bytes())),
        "telemetry_digest": Metric(0.0, INFO, digest(report.telemetry)),
    }


def accept(report) -> List[str]:
    auto = report.variant("autoscaled")
    peak = report.variant("static-peak")
    low = report.variant("static-min")
    log = report.autoscale_log
    return violated(
        (auto.offered == peak.offered == low.offered > 0,
         "all three fleets serve the identical arrival stream"),
        (low.breach_fraction > 5 * peak.breach_fraction
         and low.failed > peak.failed,
         "the trough-sized fleet breaches its SLO far more than peak"),
        (auto.scale_outs >= 1 and auto.drains >= 1
         and auto.dpus_max > auto.dpus_start,
         "the autoscaler moved the fleet in both directions"),
        (report.accepted,
         f"autoscaled p99 within {P99_FACTOR}x of static-peak at fewer "
         "DPU-seconds, every decided migration completed"),
        (0 <= log.find(b"decide scale-out") < log.find(b"scale-out done"),
         "the event log records each decision before its completion"),
    )


def daily_spec() -> WorkloadSpec:
    """The E20 scenario, parsed fresh (specs are immutable anyway)."""
    return WorkloadSpec.parse(SPEC_TEXT)


def _preload(sim: Simulator, cluster: ShardedKvCluster,
             spec: WorkloadSpec) -> None:
    """Write every key once so gets hit the memtable, not a miss path."""
    from repro.workload.popularity import ZipfKeys

    loader = ShardedKvClient(sim, cluster, name="loader", batch_limit=BATCH)
    keys = ZipfKeys(spec.key_count, spec.zipf_skew).keys()
    value = b"\x00" * VALUE_SIZE
    sim.run_process(loader.put_many([(key, value) for key in keys]))


def _window_p99s(traffic: OpenLoopTraffic, origin: float,
                 day: float) -> List[float]:
    """p99 of served-request latency per equal slice of the day."""
    buckets: List[List[float]] = [[] for _ in range(WINDOWS)]
    for started, finished, ok, _, _, _ in traffic.outcomes:
        if not ok:
            continue
        index = int((started - origin) / day * WINDOWS)
        if 0 <= index < WINDOWS:
            buckets[index].append(finished - started)
    return [percentile(b, 0.99) if b else 0.0 for b in buckets]


def _run_variant(seed: int, mode: str):
    autoscaled = mode == "autoscaled"
    dpus = PEAK_DPUS if mode == "static-peak" else MIN_DPUS
    sim = Simulator()
    network = Network(sim)
    cluster = ShardedKvCluster(
        sim, network, dpu_count=dpus,
        queue_capacity=QUEUE_CAPACITY, workers=WORKERS,
        queue_policy=QueuePolicy.CODEL,
        codel_target=CODEL_TARGET, codel_interval=CODEL_INTERVAL,
    )
    spec = daily_spec()
    _preload(sim, cluster, spec)
    clients = {
        tenant.name: ShardedKvClient(
            sim, cluster, name=f"t-{tenant.name}",
            cache=HotKeyCache(sim, capacity=CACHE_CAPACITY,
                              lease=CACHE_LEASE),
            batch_limit=BATCH, timeout=CLIENT_TIMEOUT, retries=0,
        )
        for tenant in spec.tenants
    }
    origin = sim.now
    first_entry = sim._eid
    horizon = origin + DAY
    traffic = OpenLoopTraffic(
        sim, spec, clients, seed=seed, horizon=horizon, deadline=DEADLINE,
    )

    sampler = Sampler(sim.telemetry, sim, period=SAMPLE_PERIOD)
    sampler.watch("workload.traffic.op_latency")
    sampler.watch("workload.traffic.offered_rate")
    sampler.watch("workload.traffic.goodput_rate")
    sampler.watch("workload.autoscaler.fleet")
    monitor = SloMonitor(sampler, [
        SloRule.parse(BREACH_TEXT, name=BREACH_RULE),
        SloRule.parse(IDLE_TEXT, name=IDLE_RULE),
    ])

    scaler: Optional[Autoscaler] = None
    fleet_high = [dpus]
    if autoscaled:
        migrator = ShardMigrator(sim, cluster, segment_keys=SEGMENT_KEYS)
        scaler = Autoscaler(sim, monitor, migrator, AutoscalerPolicy(
            min_dpus=MIN_DPUS, max_dpus=MAX_DPUS,
            breach_rule=BREACH_RULE, idle_rule=IDLE_RULE,
            cooldown=COOLDOWN,
        ))
        migrator.on_migration.append(
            lambda report: fleet_high.__setitem__(
                0, max(fleet_high[0], len(cluster.members()))
            )
        )

    # Tick accounting (after the monitor so its check has run).
    ticks = [0, 0]

    def _count(now: float) -> None:
        ticks[0] += 1
        if BREACH_RULE in monitor.firing:
            ticks[1] += 1

    sampler.on_sample.append(_count)

    # Capture the capacity integral at the day boundary, not after the
    # straggler grace, so every strategy is billed for the same window.
    captured: Dict[str, float] = {}

    def _capture():
        yield sim.timeout(horizon - sim.now)
        captured["dpu_seconds"] = (
            scaler.dpu_seconds() if scaler is not None else dpus * DAY
        )

    def _sampling():
        while sim.now < horizon:
            yield sim.timeout(SAMPLE_PERIOD)
            sampler.sample()

    traffic.start()
    sim.process(_sampling())
    sim.process(_capture())
    sim.run(until=horizon + GRACE)

    latencies = traffic.latencies()
    windows = _window_p99s(traffic, origin, DAY)
    result = VariantResult(
        mode=mode,
        dpus_start=dpus,
        dpus_max=fleet_high[0],
        offered=traffic.offered,
        served=traffic.served,
        failed=traffic.failed,
        good=traffic.good,
        goodput=traffic.good / DAY,
        p50=percentile(latencies, 0.50),
        p99=percentile(latencies, 0.99),
        worst_window_p99=max(windows),
        window_p99s=windows,
        breach_ticks=ticks[1],
        ticks=ticks[0],
        dpu_seconds=captured["dpu_seconds"],
        scale_outs=scaler.scale_outs if scaler else 0,
        drains=scaler.drains if scaler else 0,
        entries=sim._eid - first_entry,
    )
    return result, scaler, monitor, sim


def run_autoscale(seed: int = 20) -> AutoscaleReport:
    """Run the three strategies over the identical arrival stream."""
    variants: List[VariantResult] = []
    autoscale_log = b""
    alert_log = b""
    telemetry = b""
    for mode in ("static-min", "static-peak", "autoscaled"):
        result, scaler, monitor, sim = _run_variant(seed, mode)
        variants.append(result)
        if mode == "autoscaled":
            autoscale_log = scaler.event_log_bytes()
            alert_log = monitor.alert_log_bytes()
            telemetry = sim.telemetry.snapshot_bytes()
            # Still latched: a decided migration failed (the log says so)
            # or never finished, so the capacity numbers describe a fleet
            # the scaler asked for and did not get.
            settled = not scaler.busy
    peak = variants[1]
    auto = variants[2]
    capacity_ratio = (
        auto.dpu_seconds / peak.dpu_seconds if peak.dpu_seconds else 0.0
    )
    p99_ratio = (
        auto.worst_window_p99 / peak.worst_window_p99
        if peak.worst_window_p99 else 0.0
    )
    accepted = settled and capacity_ratio < 1.0 and p99_ratio <= P99_FACTOR
    return AutoscaleReport(
        seed=seed,
        day=DAY,
        variants=variants,
        capacity_ratio=capacity_ratio,
        p99_ratio=p99_ratio,
        accepted=accepted,
        autoscale_log=autoscale_log,
        alert_log=alert_log,
        telemetry=telemetry,
    )


def format_autoscale(report: AutoscaleReport) -> str:
    table = Table(
        f"E20: capacity under a daily curve — three strategies, one "
        f"arrival stream (day={report.day * 1e3:.0f}ms, "
        f"seed={report.seed})",
        ["strategy", "fleet", "offered", "served", "failed",
         "goodput (req/s)", "p99 (ms)", "worst win p99",
         "SLO breach", "DPU-s", "actions"],
    )
    for v in report.variants:
        table.add_row(
            v.mode,
            f"{v.dpus_start}" if v.dpus_start == v.dpus_max
            else f"{v.dpus_start}->{v.dpus_max}",
            v.offered,
            v.served,
            v.failed,
            f"{v.goodput:.0f}",
            f"{v.p99 * 1e3:.2f}",
            f"{v.worst_window_p99 * 1e3:.2f}ms",
            f"{v.breach_fraction * 100:.1f}%",
            f"{v.dpu_seconds:.3f}",
            f"{v.scale_outs}+{v.drains}",
        )
    rendered = table.render()

    windows = Table(
        f"p99 per day window ({WINDOWS} windows of "
        f"{report.day / WINDOWS * 1e3:.0f}ms)",
        ["window"] + [v.mode for v in report.variants],
    )
    for index in range(WINDOWS):
        windows.add_row(
            f"w{index}",
            *(f"{v.window_p99s[index] * 1e3:.2f}ms"
              for v in report.variants),
        )
    rendered += "\n\n" + windows.render()

    rendered += "\n\nautoscaler event log (decisions and completions;"
    rendered += " observe lines elided):"
    for line in report.autoscale_log.decode().splitlines():
        if " observe " in line:
            continue
        rendered += f"\n  {line}"

    auto = report.variant("autoscaled")
    saved = (1.0 - report.capacity_ratio) * 100.0
    rendered += (
        f"\n\nheadline: SLO-driven autoscaling served the day at "
        f"{report.capacity_ratio:.2f}x static-peak capacity "
        f"({saved:.0f}% fewer DPU-seconds) with worst-window p99 "
        f"{report.p99_ratio:.2f}x static-peak "
        f"({auto.scale_outs} scale-outs, {auto.drains} drains) — "
        f"{'ACCEPTED' if report.accepted else 'NOT ACCEPTED'}"
    )
    return rendered
