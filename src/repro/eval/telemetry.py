"""TEL: the unified telemetry plane — a traced KV get, end to end.

The refactor's acceptance demo: every substrate counter now lives in one
:class:`~repro.telemetry.MetricsRegistry` hanging off the simulator, and the
span tracer shows a single client ``kv.get`` crossing the transport, the
network links, the KV-SSD engine, the NVMe controller, and the PCIe DMA —
one tree, one clock, no per-subsystem stats silos.

Expected shape: the span tree covers at least three substrates
(transport -> net -> kvssd -> nvme -> pcie), and the registry snapshot is
canonical bytes — the same seed (everything here is deterministic) renders
the identical dump on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.eval.report import HIGHER, INFO, Metric, digest, violated
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.hw.pcie.link import PcieLink
from repro.sim import Simulator
from repro.storage.kvssd import KvSsd, KvSsdClient, KvSsdService
from repro.telemetry import chrome_trace_json, prometheus_text
from repro.transport import RpcClient, RpcServer, UdpSocket


@dataclass
class TelemetryReport:
    """One traced KV get plus the run's full registry state."""

    value: bytes
    span_count: int
    substrates: List[str]
    trace: str
    registry: str
    snapshot: bytes
    #: The same state in standard formats: Prometheus text exposition of
    #: the registry, Chrome trace-event JSON of the span tree (loadable
    #: at chrome://tracing or https://ui.perfetto.dev).
    prometheus: str = ""
    chrome_trace: str = ""


def metrics(report) -> Dict[str, Metric]:
    return {
        "span_count": Metric(report.span_count, INFO, "spans"),
        "substrates": Metric(len(report.substrates), HIGHER, "substrates"),
        "snapshot_digest": Metric(0.0, INFO, digest(report.snapshot)),
        "prometheus_digest": Metric(0.0, INFO, digest(report.prometheus)),
        "chrome_trace_digest": Metric(
            0.0, INFO, digest(report.chrome_trace)),
    }


def accept(report) -> List[str]:
    return violated(
        (report.span_count > 0 and len(report.substrates) >= 3,
         "one traced KV get crosses at least three substrates"),
    )


def run_telemetry(preload: int = 8) -> TelemetryReport:
    sim = Simulator()
    network = Network(sim)
    # One DPU-attached SSD with a real PCIe link, so reads DMA across it.
    controller = NvmeController(
        sim, "dpu0-nvme",
        link=PcieLink(sim, lanes=4, component="dpu0.pcie"),
    )
    controller.add_namespace(Namespace(1, 16384))
    # A tiny memtable: the preload flushes SSTables to flash, so the traced
    # get has to consult on-flash runs instead of answering from memory.
    device = KvSsd(sim, controller, memtable_limit=4)
    server = RpcServer(sim, UdpSocket(sim, network.endpoint("dpu0")))
    KvSsdService(server, device)
    stub = KvSsdClient(
        RpcClient(sim, UdpSocket(sim, network.endpoint("host"))), "dpu0"
    )

    def scenario():
        for index in range(preload):
            yield from stub.put(f"key:{index:02d}".encode(), b"v" * 64)
        sim.tracer.enable()
        value = yield from stub.get(b"key:03")
        sim.tracer.disable()
        return value

    value = sim.run_process(scenario())
    spans = sum(
        1 for root in sim.tracer.roots for __ in root.walk()
    )
    return TelemetryReport(
        value=value,
        span_count=spans,
        substrates=sorted(sim.tracer.substrates()),
        trace=sim.tracer.render(),
        registry=sim.telemetry.render(),
        snapshot=sim.telemetry.snapshot_bytes(),
        prometheus=prometheus_text(sim.telemetry),
        chrome_trace=chrome_trace_json(sim.tracer),
    )


def format_telemetry(report: TelemetryReport) -> str:
    prom_excerpt = report.prometheus.splitlines()[:6]
    lines = [
        "TEL: one traced kv.get across the CPU-free stack",
        f"  spans: {report.span_count}   "
        f"substrates: {', '.join(report.substrates)}",
        "",
        report.trace.rstrip("\n"),
        "",
        "-- metrics registry "
        f"({len(report.snapshot)} canonical snapshot bytes) --",
        report.registry.rstrip("\n"),
        "",
        "-- Prometheus exposition "
        f"({len(report.prometheus.splitlines())} lines, first 6) --",
        *prom_excerpt,
        "",
        "-- Chrome trace JSON: "
        f"{len(report.chrome_trace)} bytes, load at chrome://tracing "
        "or https://ui.perfetto.dev --",
    ]
    return "\n".join(lines)
