"""E13: chaos evaluation — the replicated KV cluster under a fault storm.

The paper's blueprint claims a CPU-free device can "boot, recover, and
serve without a host" (§2.1) and sketches multi-DPU applications (§2.4);
this experiment makes the recovery story measurable. A scripted
:class:`~repro.faults.FaultPlan` kills one DPU mid-run, drops frames on the
client's uplink, and injects an uncorrectable flash read, while a
:class:`~repro.sharding.FailoverKvClient` keeps issuing operations against
a sharded cluster, K-way replicated by the client. Reported: request
availability, p99 latency inflation versus a fault-free run, failed vs
retried ops, and the client-observed recovery time after the kill.

Expected shape: with replication factor 2 and one DPU dead, availability
stays >= 99% (every key keeps one live replica; the first op against the
dead head pays retransmits, then the health map routes around it), p99
inflates by the retry/backoff cost, and the same seed reproduces a
byte-identical fault schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.common.errors import DegradedError
from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, digest, violated
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    node_outage_controller,
)
from repro.hw.net import Network
from repro.sharding import FailoverKvClient, ShardedKvCluster
from repro.sim import Simulator
from repro.telemetry import (
    Sampler,
    SloMonitor,
    SloRule,
    percentile,
    prometheus_text,
)

#: Sampling period for the E13 time series: fine enough to catch the
#: retry spike around the kill, coarse enough to stay cheap.
SAMPLE_PERIOD = 0.25e-3

#: The storm's service objectives. Interval p99 of the client-observed
#: op latency must stay under 2 ms (one retransmit timeout blows it);
#: the worst single op must stay under 20 ms (several backoff rounds).
SLO_RULES = (
    ("op-p99", "eval.chaos.op_latency p99 < 2ms for 0.5ms"),
    ("op-max", "eval.chaos.op_latency max < 20ms"),
)

#: When the killed DPU's outage window closes: long after the run ends,
#: so the victim stays dead.
STORM_END = 10.0

#: Head-sampling rate for the storm run: one RPC flow in eight gets a
#: full causal trace (and may land a latency exemplar), which is enough
#: to fill the flight recorder without distorting the fast path.
TRACE_SAMPLE_RATE = 0.125


@dataclass
class OpOutcome:
    """One client operation under the storm."""

    started: float
    finished: float
    ok: bool
    retried: bool

    @property
    def latency(self) -> float:
        return self.finished - self.started


@dataclass
class ChaosReport:
    """What E13 measured for one (seed, storm) configuration."""

    seed: int
    dpu_count: int
    replication: int
    ops_attempted: int
    ops_succeeded: int
    ops_failed: int
    ops_retried: int
    failovers: int
    availability: float
    p50_latency: float
    p99_latency: float
    clean_p99_latency: float
    p99_inflation: float
    kill_time: Optional[float]
    recovery_time: Optional[float]
    faults_injected: int
    schedule: bytes
    #: Canonical registry snapshot of the storm run — same seed, same bytes.
    telemetry: bytes = b""
    #: Sampler ticks taken during the storm run.
    samples: int = 0
    #: How many SLO rules entered the firing state during the storm.
    slo_alerts_fired: int = 0
    #: Canonical alert log — same seed, same bytes.
    slo_alert_log: bytes = b""
    #: Per-rule end-of-run summary (human-readable).
    slo_summary: str = ""
    #: Canonical dump of every sampled series — same seed, same bytes.
    series: bytes = b""
    #: OpenMetrics exposition of the storm registry, with latency
    #: exemplars pointing into the sampled traces.
    prometheus: bytes = b""
    #: Sampled root traces the flight recorder held at the end.
    traces_recorded: int = 0
    #: The most recent flight-recorder post-mortem (empty if nothing
    #: triggered one — no SLO fired and no fault window opened).
    flight_dump: bytes = b""
    #: Every post-mortem trigger, in firing order.
    flight_triggers: tuple = ()


def metrics(report) -> Dict[str, Metric]:
    return {
        "availability": Metric(report.availability, HIGHER, "frac"),
        "p99_latency_s": Metric(report.p99_latency, LOWER, "s"),
        "p99_inflation": Metric(report.p99_inflation, LOWER, "x"),
        "failovers": Metric(report.failovers, INFO, "count"),
        "sampler_ticks": Metric(report.samples, INFO, "samples"),
        "slo_alerts_fired": Metric(report.slo_alerts_fired, INFO, "alerts"),
        "alert_log_digest": Metric(0.0, INFO, digest(report.slo_alert_log)),
        "series_digest": Metric(0.0, INFO, digest(report.series)),
        "telemetry_digest": Metric(0.0, INFO, digest(report.telemetry)),
    }


def accept(report) -> List[str]:
    return violated(
        (report.kill_time is not None and report.faults_injected >= 1,
         "the storm killed a DPU mid-run"),
        (report.availability >= 0.99,
         "a dead DPU is a latency event: availability stays >= 99%"),
        (report.failovers > 0, "clients failed over to a live replica"),
        (report.p99_inflation > 1.0, "the storm shows up in the p99"),
        (report.recovery_time is not None and report.recovery_time < 20e-3,
         "clients recover within 20 ms of the kill"),
        (len(report.schedule) > 0, "the fired-fault schedule is recorded"),
    )


def _key(index: int) -> bytes:
    return f"chaos:key:{index:04d}".encode()


def _run_storm(
    seed: int,
    plan: FaultPlan,
    dpu_count: int,
    replication: int,
    ops: int,
    preload: int,
    victim: Optional[int],
):
    """One full run: preload, storm, workload. Returns measurement state."""
    sim = Simulator()
    # Distributed tracing rides along: deterministic head sampling keyed
    # by the run seed, exemplars armed so the latency histogram points
    # back into the sampled traces. Spans never touch the registry, RNG
    # streams, or simulated time, so every canonical artifact (schedule,
    # telemetry, series, alert log) is byte-identical with tracing off.
    sim.tracer.enable(
        sample_rate=TRACE_SAMPLE_RATE, seed=seed, exemplars=True
    )
    network = Network(sim)
    cluster = ShardedKvCluster(sim, network, dpu_count=dpu_count, name="kv")
    injector = FaultInjector(sim, plan)
    # Wire the storm into the substrates: NVMe controllers + flash consult
    # per-device component ids; the client uplink consults "client.uplink".
    for device in cluster.devices.values():
        device.controller.attach_faults(injector)
    client = FailoverKvClient(sim, cluster, "chaos-client", replication)
    network.port("chaos-client").route().attach_faults(injector, "client.uplink")

    outcomes: List[OpOutcome] = []
    op_latency = sim.telemetry.histogram("eval.chaos.op_latency")
    # The export-and-watch layer rides along: sample the op-latency
    # histogram plus the failover client's RPC counters on the simulated
    # clock, and evaluate the storm SLOs on every tick.
    sampler = Sampler(sim.telemetry, sim, period=SAMPLE_PERIOD)
    sampler.watch("eval.chaos.op_latency")
    sampler.watch_prefix("rpc.client.chaos-client")
    monitor = SloMonitor(
        sampler,
        [SloRule.parse(text, name=name) for name, text in SLO_RULES],
    )
    done = sim.event()
    preload_end = [0.0]

    def workload():
        value = b"v" * 64
        for index in range(preload):
            yield from client.put(_key(index), value)
        preload_end[0] = sim.now
        for index in range(ops):
            key = _key(index % preload)
            started = sim.now
            retransmits_before = client.rpc.retransmits
            failures_before = client.replica_failures
            try:
                if index % 2 == 0:
                    yield from client.get(key)
                else:
                    yield from client.put(key, value)
                ok = True
            except DegradedError:
                ok = False
            outcomes.append(
                OpOutcome(
                    started, sim.now, ok,
                    retried=(
                        client.rpc.retransmits > retransmits_before
                        or client.replica_failures > failures_before
                    ),
                )
            )
            op_latency.observe(sim.now - started)
        done.wake()

    # The chaos controller: NODE_DOWN windows become switch blackholes.
    down: Set[str] = set()
    sim.process(node_outage_controller(
        sim, injector, network.switch, cluster.addresses, down,
        lambda: done.triggered,
    ))
    sim.process(sampler.pump(sim, done))
    sim.run_process(workload())
    # The controller is the only consulter of the victim's NODE_DOWN
    # window, so the window's log record carries the poll that killed it.
    kill_observed = next(
        (record.time for record in injector.log
         if record.kind is FaultKind.NODE_DOWN), None,
    )
    return (
        sim, cluster, client, injector, outcomes,
        kill_observed, preload_end[0], sampler, monitor,
    )


def build_storm_plan(seed: int, kill_at: float,
                     victim: str = "kv-dpu-1") -> FaultPlan:
    """The scripted E13 storm: a dead DPU, a lossy uplink, a bad read."""
    plan = FaultPlan(seed=seed)
    plan.windowed("dpu-outage", victim, FaultKind.NODE_DOWN, kill_at,
                  STORM_END)
    plan.probabilistic(
        "lossy-uplink", "client.uplink", FaultKind.FRAME_DROP,
        probability=0.005, max_fires=8,
    )
    plan.once(
        "bad-read", "kv-dpu-0-flash.flash", FaultKind.READ_ERROR, at=kill_at / 2
    )
    return plan


def run_chaos(
    seed: int = 7,
    dpu_count: int = 3,
    replication: int = 2,
    ops: int = 240,
    preload: int = 48,
    kill_at: Optional[float] = None,
) -> ChaosReport:
    victim_index = 1
    victim = f"kv-dpu-{victim_index}"
    # Fault-free twin run: the latency baseline the storm inflates, and the
    # timing reference for the kill (30% into the measured workload phase,
    # safely past the preload — a kill during preload would skew recovery).
    __, __, __, __, clean_outcomes, __, clean_preload_end, __, __ = _run_storm(
        seed, FaultPlan(seed=seed), dpu_count, replication, ops, preload, None
    )
    clean_p99 = percentile([o.latency for o in clean_outcomes], 0.99)
    if kill_at is None:
        clean_end = max(o.finished for o in clean_outcomes)
        kill_at = clean_preload_end + 0.3 * (clean_end - clean_preload_end)

    plan = build_storm_plan(seed, kill_at, victim=victim)
    (
        sim, cluster, client, injector, outcomes, kill_time, __,
        sampler, monitor,
    ) = _run_storm(
        seed, plan, dpu_count, replication, ops, preload, victim_index
    )

    succeeded = [o for o in outcomes if o.ok]
    latencies = [o.latency for o in outcomes]
    p99 = percentile(latencies, 0.99)
    recovery_time = None
    if kill_time is not None:
        post_kill = [o.finished for o in succeeded if o.finished >= kill_time]
        if post_kill:
            recovery_time = min(post_kill) - kill_time
    return ChaosReport(
        seed=seed,
        dpu_count=dpu_count,
        replication=replication,
        ops_attempted=len(outcomes),
        ops_succeeded=len(succeeded),
        ops_failed=len(outcomes) - len(succeeded),
        ops_retried=sum(1 for o in outcomes if o.retried),
        failovers=client.failovers,
        availability=len(succeeded) / len(outcomes) if outcomes else 0.0,
        p50_latency=percentile(latencies, 0.50),
        p99_latency=p99,
        clean_p99_latency=clean_p99,
        p99_inflation=p99 / clean_p99 if clean_p99 else 0.0,
        kill_time=kill_time,
        recovery_time=recovery_time,
        faults_injected=len(injector.log),
        schedule=injector.schedule_bytes(),
        telemetry=sim.telemetry.snapshot_bytes(),
        samples=sampler.ticks,
        slo_alerts_fired=monitor.fired_count(),
        slo_alert_log=monitor.alert_log_bytes(),
        slo_summary=monitor.summary(),
        series=sampler.snapshot_bytes(),
        prometheus=prometheus_text(sim.telemetry).encode(),
        traces_recorded=len(sim.recorder.traces),
        flight_dump=sim.recorder.last_dump() or b"",
        flight_triggers=sim.recorder.dump_triggers(),
    )


def format_chaos(report: ChaosReport) -> str:
    table = Table(
        "E13: chaos storm over the replicated KV cluster "
        f"(RF={report.replication}, {report.dpu_count} DPUs, "
        f"seed={report.seed})",
        ["metric", "value"],
    )
    table.add_row("ops attempted", report.ops_attempted)
    table.add_row("ops succeeded", report.ops_succeeded)
    table.add_row("ops failed", report.ops_failed)
    table.add_row("ops retried", report.ops_retried)
    table.add_row("replica failovers", report.failovers)
    table.add_row("availability", f"{report.availability * 100:.2f}%")
    table.add_row("p50 latency", f"{report.p50_latency * 1e6:.1f} us")
    table.add_row("p99 latency", f"{report.p99_latency * 1e6:.1f} us")
    table.add_row("fault-free p99", f"{report.clean_p99_latency * 1e6:.1f} us")
    table.add_row("p99 inflation", f"{report.p99_inflation:.1f}x")
    kill = "-" if report.kill_time is None else f"{report.kill_time * 1e3:.1f} ms"
    table.add_row("DPU killed at", kill)
    recovery = (
        "-" if report.recovery_time is None
        else f"{report.recovery_time * 1e3:.2f} ms"
    )
    table.add_row("recovery time (first success after kill)", recovery)
    table.add_row("faults injected", report.faults_injected)
    table.add_row("sampler ticks", report.samples)
    table.add_row("SLO alerts fired", report.slo_alerts_fired)
    table.add_row("sampled traces held", report.traces_recorded)
    table.add_row("flight-recorder dumps", len(report.flight_triggers))
    rendered = table.render()
    if report.slo_summary:
        rendered += "\n\nSLO objectives:\n" + "\n".join(
            f"  {line}" for line in report.slo_summary.splitlines()
        )
    if report.slo_alert_log:
        lines = report.slo_alert_log.decode().splitlines()
        shown = lines[:8]
        rendered += "\n\nAlert log:\n" + "\n".join(
            f"  {line}" for line in shown
        )
        if len(lines) > len(shown):
            rendered += f"\n  ... (+{len(lines) - len(shown)} more entries)"
    if report.flight_triggers:
        rendered += "\n\nFlight recorder triggers:\n" + "\n".join(
            f"  {trigger}" for trigger in report.flight_triggers
        )
    if report.flight_dump:
        lines = report.flight_dump.decode().splitlines()
        shown = lines[:12]
        rendered += "\n\nLast post-mortem (excerpt):\n" + "\n".join(
            f"  {line}" for line in shown
        )
        if len(lines) > len(shown):
            rendered += f"\n  ... (+{len(lines) - len(shown)} more lines)"
    return rendered
