"""E7: partial-reconfiguration multiplexing at 10-100 ms timescales.

A tenant-arrival workload against the slot scheduler; reports the
reconfiguration latency distribution (which must sit in the paper's band)
and slot utilization.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, List

from repro.dpu import HyperionDpu, SlotScheduler
from repro.eval.report import HIGHER, LOWER, Metric, Table, violated
from repro.hdl.engine import compile_program
from repro.ebpf.asm import assemble
from repro.hw.net import Network
from repro.sim import Simulator


@dataclass
class ReconfigReport:
    """E7 results: reconfiguration latency distribution and utilization."""

    tenants: int
    granted: int
    min_reconfig: float
    mean_reconfig: float
    max_reconfig: float
    mean_wait: float
    utilization: float
    in_band_fraction: float


def metrics(report) -> Dict[str, Metric]:
    return {
        "mean_reconfig_s": Metric(report.mean_reconfig, LOWER, "s"),
        "max_reconfig_s": Metric(report.max_reconfig, LOWER, "s"),
        "utilization": Metric(report.utilization, HIGHER, "frac"),
    }


def accept(report) -> List[str]:
    return violated(
        (report.granted == report.tenants, "every tenant is granted a slot"),
        (report.in_band_fraction == 1.0
         and 10e-3 <= report.min_reconfig
         and report.max_reconfig <= 100e-3,
         "every partial reconfiguration takes 10-100 ms"),
    )


def _tenant_bitstreams(count: int, seed: int = 31):
    """Compile a spread of program sizes -> a spread of bitstream sizes."""
    rng = random.Random(seed)
    bitstreams = []
    for i in range(count):
        ops = rng.randrange(4, 40)
        source = "\n".join(
            ["mov r0, 0"] + [f"add r0, {j + 1}" for j in range(ops)] + ["exit"]
        )
        compiled = compile_program(assemble(source, name=f"tenant-{i}"))
        bitstreams.append(compiled.to_bitstream(name=f"tenant-{i}"))
    return bitstreams


def run_reconfig(tenants: int = 12, hold_time: float = 50e-3) -> ReconfigReport:
    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim), ssd_blocks=4096)
    sim.run_process(dpu.boot())
    scheduler = SlotScheduler(sim, dpu.fabric, dpu.icap)
    bitstreams = _tenant_bitstreams(tenants)

    def tenant_lifecycle(index):
        request = scheduler.submit(f"tenant-{index}", bitstreams[index])
        # Wait until granted, run for hold_time, release.
        while request.granted_at is None:
            yield sim.timeout(1e-3)
        yield sim.timeout(hold_time)
        scheduler.release(request.slot_index)

    def arrivals():
        rng = random.Random(7)
        for index in range(tenants):
            sim.process(tenant_lifecycle(index))
            yield sim.timeout(rng.uniform(5e-3, 20e-3))

    sim.process(arrivals())
    sim.run()
    latencies = dpu.icap.history
    in_band = [lat for lat in latencies if 10e-3 <= lat <= 100e-3]
    return ReconfigReport(
        tenants=tenants,
        granted=len(scheduler.granted),
        min_reconfig=min(latencies),
        mean_reconfig=statistics.mean(latencies),
        max_reconfig=max(latencies),
        mean_wait=statistics.mean(r.wait_time for r in scheduler.granted),
        utilization=scheduler.utilization(),
        in_band_fraction=len(in_band) / len(latencies),
    )


def format_reconfig(report: ReconfigReport) -> str:
    table = Table(
        "E7: slot multiplexing via ICAP partial reconfiguration "
        "(paper band: 10-100 ms)",
        ["metric", "value"],
    )
    table.add_row("tenants submitted", report.tenants)
    table.add_row("tenants granted", report.granted)
    table.add_row("min reconfiguration", f"{report.min_reconfig * 1e3:.1f} ms")
    table.add_row("mean reconfiguration", f"{report.mean_reconfig * 1e3:.1f} ms")
    table.add_row("max reconfiguration", f"{report.max_reconfig * 1e3:.1f} ms")
    table.add_row("mean grant wait", f"{report.mean_wait * 1e3:.1f} ms")
    table.add_row("fraction in 10-100 ms band", f"{report.in_band_fraction:.2f}")
    return table.render()
