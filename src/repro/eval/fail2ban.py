"""E3: fail2ban middleware — Hyperion inline path vs CPU-centric server.

Same trace, same verified program, two datapaths. Expected shape: verdicts
identical; the DPU path deletes the per-packet interrupt + syscalls +
copies + interpreter time, so its per-packet latency and total time are a
small fraction of the server's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.fail2ban import (
    Fail2BanBaseline,
    Fail2BanDpu,
    generate_packet_trace,
)
from repro.baseline import CpuCentricDatapath, CpuModel, OsModel
from repro.dpu import HyperionDpu
from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, violated
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sim import Simulator


@dataclass
class Fail2BanResult:
    """One system's E3 outcome: verdicts, total time, throughput."""

    system: str
    packets: int
    banned: int
    total_time: float
    per_packet: float
    throughput_pps: float
    #: Engine entries the scenario consumed (``Simulator._eid`` delta):
    #: what the path costs to simulate. Published, not rendered.
    entries: int


def metrics(results) -> Dict[str, Metric]:
    dpu, base = results
    return {
        "dpu_throughput_pps": Metric(dpu.throughput_pps, HIGHER, "pps"),
        "dpu_per_packet_s": Metric(dpu.per_packet, LOWER, "s"),
        "speedup": Metric(base.total_time / dpu.total_time, HIGHER, "x"),
        "banned": Metric(dpu.banned, INFO, "packets"),
        "dpu_entries_per_packet": Metric(
            dpu.entries / dpu.packets, LOWER, "1/packet"),
        "baseline_entries_per_packet": Metric(
            base.entries / base.packets, LOWER, "1/packet"),
    }


def accept(results) -> List[str]:
    dpu, base = results
    return violated(
        (dpu.banned == base.banned,
         "the same verified program bans the same packets on both paths"),
        (base.total_time / dpu.total_time > 2.0,
         "the inline DPU path finishes the trace more than 2x sooner"),
        (dpu.throughput_pps > base.throughput_pps,
         "the DPU path sustains more packets per second"),
    )


def run_fail2ban(packet_count: int = 2000, threshold: int = 3,
                 seed: int = 17) -> List[Fail2BanResult]:
    trace = generate_packet_trace(packet_count, seed=seed)

    # -- Hyperion -------------------------------------------------------------
    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim), ssd_blocks=65536)
    sim.run_process(dpu.boot())
    app = Fail2BanDpu(sim, dpu, threshold=threshold)
    started, entries = sim.now, sim._eid

    def dpu_scenario():
        for packet in trace:
            yield from app.process_packet(packet)
        yield from app.flush_log()

    sim.run_process(dpu_scenario())
    dpu_time = sim.now - started
    dpu_result = Fail2BanResult(
        "hyperion-dpu", packet_count, app.banned_packets, dpu_time,
        dpu_time / packet_count, packet_count / dpu_time,
        sim._eid - entries,
    )

    # -- baseline ------------------------------------------------------------
    sim = Simulator()
    cpu = CpuModel(sim)
    ssd = NvmeController(sim, "server-ssd")
    ssd.add_namespace(Namespace(1, 65536))
    datapath = CpuCentricDatapath(sim, cpu, OsModel(sim, cpu), ssd=ssd)
    baseline = Fail2BanBaseline(sim, datapath, threshold=threshold)
    started, entries = sim.now, sim._eid

    def baseline_scenario():
        for packet in trace:
            yield from baseline.process_packet(packet)

    sim.run_process(baseline_scenario())
    base_time = sim.now - started
    base_result = Fail2BanResult(
        "cpu-server", packet_count, baseline.banned_packets, base_time,
        base_time / packet_count, packet_count / base_time,
        sim._eid - entries,
    )
    return [dpu_result, base_result]


def format_fail2ban(results: List[Fail2BanResult]) -> str:
    table = Table(
        "E3: fail2ban packet filtering with persistent logging",
        ["system", "packets", "banned", "total", "per packet", "throughput"],
    )
    for r in results:
        table.add_row(
            r.system, r.packets, r.banned,
            f"{r.total_time * 1e3:.2f} ms",
            f"{r.per_packet * 1e6:.2f} us",
            f"{r.throughput_pps / 1e6:.2f} Mpps",
        )
    dpu, base = results
    table.add_row(
        "speedup", "-", "same" if dpu.banned == base.banned else "DIFFER",
        f"{base.total_time / dpu.total_time:.1f}x",
        f"{base.per_packet / dpu.per_packet:.1f}x", "-",
    )
    return table.render()
