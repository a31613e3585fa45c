"""E15: overload protection — congestion collapse vs graceful brownout.

The failure mode: an open-loop client population offers more load than a
run-to-completion DPU can serve. With the implicit unbounded queue, the
backlog grows without limit, every response arrives after its client's
timeout, and the at-least-once retransmissions *multiply* the offered
load exactly when the server is saturated — goodput (responses delivered
within the client's deadline) collapses toward zero even though the
server never stops working. The classic metastable failure.

The controlled variant turns on the full ``repro.overload`` stack:

* a bounded CoDel queue in the RPC server (excess requests get an
  immediate cheap error, stale requests are dropped at dequeue);
* a token-bucket + AIMD admission controller shedding scrub and
  background traffic before user gets/puts;
* a shared retry budget on the client, capping storm amplification;
* an SLO-driven brownout controller that shrinks batches / skips the
  backend as queue pressure persists, buying back capacity.

Expected shape: uncontrolled goodput collapses past saturation;
controlled goodput stays within 10% of its peak at 2x saturation with
bounded p99. Same seed, byte-identical report (including the brownout
mode-transition log).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, digest, violated
from repro.hw.net import Network
from repro.overload import (
    AdmissionController,
    BrownoutController,
    Priority,
    QueuePolicy,
)
from repro.sim import Simulator
from repro.telemetry import Sampler, SloMonitor, SloRule, percentile
from repro.transport import RetryBudget, RpcClient, RpcError, RpcServer, UdpSocket

#: Service time of one request on the wimpy core: capacity = 10k ops/s.
SERVICE_TIME = 100e-6

#: Offered load as multiples of the service capacity.
LOAD_MULTIPLES = (0.5, 1.0, 1.5, 2.0, 3.0)

#: Measured arrival window per load point (simulated seconds).
DURATION = 30e-3

#: Extra simulated time for in-flight calls to resolve after arrivals end.
GRACE = 10e-3

#: Client-side retransmission behaviour (at-least-once RPC).
CLIENT_TIMEOUT = 1e-3
CLIENT_RETRIES = 2

#: A response this late is useless to the caller: the goodput deadline.
GOODPUT_DEADLINE = 5e-3

#: Controlled-variant knobs.
QUEUE_CAPACITY = 32
CODEL_TARGET = 500e-6
CODEL_INTERVAL = 2e-3
RETRY_BUDGET = 20
RETRY_WINDOW = 10e-3
AIMD_PERIOD = 1e-3

#: The uncontrolled variant's "unbounded" queue: large enough that no
#: arrival is ever refused inside the experiment horizon.
UNBOUNDED_CAPACITY = 1_000_000

#: Sampling period for queue-pressure telemetry and brownout decisions.
SAMPLE_PERIOD = 0.5e-3

#: Queue saturation above this for 1 ms trips the brownout ladder.
PRESSURE_RULE = "value <= 0.7 for 1ms"


@dataclass
class OverloadPoint:
    """One (load multiple, variant) measurement."""

    controlled: bool
    multiple: float
    offered: int
    succeeded: int
    failed: int
    goodput: float
    p50_latency: float
    p99_latency: float
    retransmits: int
    server_shed: int
    queue_dropped_full: int
    queue_dropped_deadline: int
    shed_user: int
    shed_scrub: int
    brownout_peak_level: int

    def line(self) -> str:
        """Canonical one-line form (same seed => same bytes)."""
        variant = "controlled" if self.controlled else "uncontrolled"
        return (
            f"point variant={variant} multiple={self.multiple!r} "
            f"offered={self.offered} succeeded={self.succeeded} "
            f"goodput={self.goodput!r} p99={self.p99_latency!r} "
            f"retransmits={self.retransmits} shed={self.server_shed} "
            f"dropped_full={self.queue_dropped_full} "
            f"dropped_deadline={self.queue_dropped_deadline} "
            f"shed_scrub={self.shed_scrub} "
            f"brownout_peak={self.brownout_peak_level}"
        )


@dataclass
class OverloadReport:
    """What E15 measured for one seed."""

    seed: int
    service_time: float
    duration: float
    uncontrolled: List[OverloadPoint]
    controlled: List[OverloadPoint]
    #: Best controlled goodput across the sweep.
    peak_goodput: float
    #: Controlled goodput at 2x the service capacity.
    goodput_at_2x: float
    #: goodput_at_2x / peak_goodput — the headline "no collapse" number.
    goodput_retention_at_2x: float
    #: Uncontrolled goodput at the top multiple / uncontrolled peak —
    #: the headline collapse number (small is collapsed).
    uncontrolled_collapse_ratio: float
    #: From the top-load controlled run:
    brownout_transitions: int
    brownout_log: bytes
    slo_alerts_fired: int
    slo_alert_log: bytes
    telemetry: bytes
    series: bytes
    samples: int

    def canonical_bytes(self) -> bytes:
        """The whole sweep as canonical bytes — same seed, same bytes."""
        lines = [p.line() for p in self.uncontrolled]
        lines += [p.line() for p in self.controlled]
        blob = "\n".join(lines).encode()
        return b"\n".join(
            part for part in
            (blob, self.brownout_log, self.slo_alert_log) if part
        )


def metrics(report) -> Dict[str, Metric]:
    return {
        "goodput_at_2x_ops": Metric(report.goodput_at_2x, HIGHER, "ops/s"),
        "goodput_retention_at_2x": Metric(
            report.goodput_retention_at_2x, HIGHER, "frac"),
        "controlled_p99_at_2x_s": Metric(
            next(p.p99_latency for p in report.controlled
                 if p.multiple == 2.0), LOWER, "s"),
        "uncontrolled_collapse_ratio": Metric(
            report.uncontrolled_collapse_ratio, INFO, "frac"),
        "brownout_transitions": Metric(
            report.brownout_transitions, INFO, "count"),
        "slo_alerts_fired": Metric(report.slo_alerts_fired, INFO, "alerts"),
        "brownout_log_digest": Metric(0.0, INFO, digest(report.brownout_log)),
        "report_digest": Metric(0.0, INFO, digest(report.canonical_bytes())),
        "telemetry_digest": Metric(0.0, INFO, digest(report.telemetry)),
    }


def accept(report) -> List[str]:
    at_2x = next(p for p in report.controlled if p.multiple == 2.0)
    top = report.controlled[-1]
    return violated(
        (report.uncontrolled_collapse_ratio < 0.5,
         "uncontrolled goodput collapses below half its peak at 3x load"),
        (report.goodput_retention_at_2x >= 0.90,
         "controlled goodput holds >= 90% of its peak at 2x load"),
        (at_2x.p99_latency < 5e-3,
         "controlled p99 at 2x load stays inside the 5 ms client budget"),
        (any(p.server_shed > 0 for p in report.controlled)
         and report.brownout_transitions > 0
         and len(report.brownout_log) > 0,
         "shedding and brownout both engaged, and the log says so"),
        (top.shed_scrub > 0 and top.shed_scrub * 3 > top.shed_user,
         "at top load scrub traffic is shed at a higher rate than user"),
    )


def _priority_for(index: int) -> int:
    """60% user, 20% background, 20% scrub — deterministic striping."""
    phase = index % 5
    if phase == 3:
        return int(Priority.BACKGROUND)
    if phase == 4:
        return int(Priority.SCRUB)
    return int(Priority.USER)


def _run_point(
    seed: int,
    multiple: float,
    controlled: bool,
    service_time: float,
    duration: float,
):
    """One fresh simulation: open-loop arrivals against one RPC server."""
    sim = Simulator()
    network = Network(sim)
    server_address = "overload-server"

    admission: Optional[AdmissionController] = None
    if controlled:
        admission = AdmissionController(
            sim, sim.telemetry.unique_scope("eval.overload.admission"),
            rate=1.0 / service_time,
        )
    server = RpcServer(
        sim, UdpSocket(sim, network.endpoint(server_address)),
        admission=admission,
        queue_capacity=QUEUE_CAPACITY if controlled else UNBOUNDED_CAPACITY,
        queue_policy=QueuePolicy.CODEL if controlled else QueuePolicy.FIFO,
        workers=1,
        codel_target=CODEL_TARGET,
        codel_interval=CODEL_INTERVAL,
    )

    sampler = Sampler(sim.telemetry, sim, period=SAMPLE_PERIOD)
    sampler.watch(f"rpc.server.{server_address}.queue.saturation")
    sampler.watch(f"rpc.server.{server_address}.queue.depth")
    monitor: Optional[SloMonitor] = None
    brownout: Optional[BrownoutController] = None
    if controlled:
        monitor = SloMonitor(sampler, [SloRule.parse(
            f"rpc.server.{server_address}.queue.saturation {PRESSURE_RULE}",
            name="queue-pressure",
        )])
        brownout = BrownoutController(
            monitor, sim.telemetry.unique_scope("eval.overload.brownout"),
            dwell=2e-3, recovery=4e-3,
        )

    def work(index):
        # Brownout buys capacity: smaller batches cost less service time,
        # stale reads skip the backend entirely.
        scale = 1.0
        if brownout is not None:
            mode = brownout.mode
            scale = 0.5 + 0.5 * mode.batch_scale
            if mode.serve_stale:
                scale *= 0.75
        yield sim.timeout(service_time * scale)
        return index

    server.register("work", work)

    budget = (
        RetryBudget(sim, budget=RETRY_BUDGET, window=RETRY_WINDOW)
        if controlled else None
    )
    client = RpcClient(
        sim, UdpSocket(sim, network.endpoint("overload-client")),
        retry_budget=budget,
    )

    #: (started, finished, ok) per arrival.
    outcomes: List[Tuple[float, float, bool]] = []

    def one_call(index: int, priority: int):
        started = sim.now
        try:
            yield from client.call(
                server_address, "work", index,
                timeout=CLIENT_TIMEOUT, retries=CLIENT_RETRIES,
                priority=priority,
            )
            ok = True
        except RpcError:
            ok = False
        outcomes.append((started, sim.now, ok))

    done = [False]

    def sampling():
        while not done[0]:
            yield sim.timeout(sampler.period)
            sampler.sample()

    def aimd_loop():
        while not done[0]:
            yield sim.timeout(AIMD_PERIOD)
            admission.tick(overloaded=server.queue.saturation >= 1.0)

    def arrivals():
        rng = random.Random(f"{seed}/{multiple}/{int(controlled)}")
        rate = multiple / service_time
        index = 0
        while True:
            yield sim.timeout(rng.expovariate(rate))
            if sim.now >= duration:
                break
            sim.process(one_call(index, _priority_for(index)))
            index += 1
        yield sim.timeout(GRACE)
        done[0] = True

    sim.process(sampling())
    if controlled:
        sim.process(aimd_loop())
    sim.run_process(arrivals())

    successes = [(s, f) for s, f, ok in outcomes if ok]
    in_deadline = [
        f - s for s, f in successes if f - s <= GOODPUT_DEADLINE
    ]
    latencies = sorted(f - s for s, f in successes)
    peak_level = 0
    if brownout is not None:
        names = {mode.name: i for i, mode in enumerate(brownout.modes)}
        for __, __, to, __ in brownout.transitions:
            peak_level = max(peak_level, names[to])
    point = OverloadPoint(
        controlled=controlled,
        multiple=multiple,
        offered=len(outcomes),
        succeeded=len(successes),
        failed=len(outcomes) - len(successes),
        goodput=len(in_deadline) / duration,
        p50_latency=percentile(latencies, 0.50) if latencies else 0.0,
        p99_latency=percentile(latencies, 0.99) if latencies else 0.0,
        retransmits=client.retransmits,
        server_shed=server.requests_shed,
        queue_dropped_full=server.queue.dropped_full,
        queue_dropped_deadline=server.queue.dropped_deadline,
        shed_user=admission.shed(Priority.USER) if admission else 0,
        shed_scrub=admission.shed(Priority.SCRUB) if admission else 0,
        brownout_peak_level=peak_level,
    )
    return point, sim, sampler, monitor, brownout


def run_overload(
    seed: int = 11,
    multiples: Tuple[float, ...] = LOAD_MULTIPLES,
    service_time: float = SERVICE_TIME,
    duration: float = DURATION,
) -> OverloadReport:
    uncontrolled: List[OverloadPoint] = []
    controlled: List[OverloadPoint] = []
    top_artifacts = None
    for multiple in multiples:
        point, *_ = _run_point(seed, multiple, False, service_time, duration)
        uncontrolled.append(point)
    for multiple in multiples:
        point, sim, sampler, monitor, brownout = _run_point(
            seed, multiple, True, service_time, duration
        )
        controlled.append(point)
        top_artifacts = (sim, sampler, monitor, brownout)

    sim, sampler, monitor, brownout = top_artifacts
    peak = max(p.goodput for p in controlled)
    at_2x = next(
        (p.goodput for p in controlled if p.multiple == 2.0),
        controlled[-1].goodput,
    )
    unc_peak = max(p.goodput for p in uncontrolled)
    unc_last = uncontrolled[-1].goodput
    return OverloadReport(
        seed=seed,
        service_time=service_time,
        duration=duration,
        uncontrolled=uncontrolled,
        controlled=controlled,
        peak_goodput=peak,
        goodput_at_2x=at_2x,
        goodput_retention_at_2x=at_2x / peak if peak else 0.0,
        uncontrolled_collapse_ratio=unc_last / unc_peak if unc_peak else 0.0,
        brownout_transitions=len(brownout.transitions),
        brownout_log=brownout.transition_log_bytes(),
        slo_alerts_fired=monitor.fired_count(),
        slo_alert_log=monitor.alert_log_bytes(),
        telemetry=sim.telemetry.snapshot_bytes(),
        series=sampler.snapshot_bytes(),
        samples=sampler.ticks,
    )


def format_overload(report: OverloadReport) -> str:
    table = Table(
        "E15: open-loop overload — congestion collapse vs graceful "
        f"brownout (capacity={1.0 / report.service_time:.0f} ops/s, "
        f"seed={report.seed})",
        ["variant", "load", "offered", "ok", "goodput (ops/s)",
         "p99 (ms)", "shed", "retransmits"],
    )
    for point in report.uncontrolled + report.controlled:
        table.add_row(
            "controlled" if point.controlled else "uncontrolled",
            f"{point.multiple:.1f}x",
            point.offered,
            point.succeeded,
            f"{point.goodput:.0f}",
            f"{point.p99_latency * 1e3:.2f}",
            point.server_shed,
            point.retransmits,
        )
    rendered = table.render()
    rendered += (
        f"\n\ncontrolled goodput at 2.0x: {report.goodput_at_2x:.0f} ops/s "
        f"({report.goodput_retention_at_2x * 100:.1f}% of peak "
        f"{report.peak_goodput:.0f})"
    )
    rendered += (
        f"\nuncontrolled goodput at {report.uncontrolled[-1].multiple:.1f}x: "
        f"{report.uncontrolled[-1].goodput:.0f} ops/s "
        f"({report.uncontrolled_collapse_ratio * 100:.1f}% of its peak — "
        "congestion collapse)"
    )
    rendered += (
        f"\nbrownout transitions (top load): {report.brownout_transitions}, "
        f"SLO alerts fired: {report.slo_alerts_fired}"
    )
    if report.brownout_log:
        lines = report.brownout_log.decode().splitlines()
        shown = lines[:8]
        rendered += "\n\nBrownout transition log:\n" + "\n".join(
            f"  {line}" for line in shown
        )
        if len(lines) > len(shown):
            rendered += f"\n  ... (+{len(lines) - len(shown)} more entries)"
    return rendered
