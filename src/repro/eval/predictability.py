"""E6: execution predictability and energy — FPGA pipeline vs CPU.

Paper §2: "once an associated bitstream has been sent to the FPGA, the
circuit runs a certain clock frequency without any outside interference,
thus delivering energy efficient and predictable performance."

The same verified program runs 1000x on the CPU model (interference
jitter, preemptions) and on the compiled pipeline (fixed latency). Expected
shape: the hardware latency distribution is a single point (sigma = 0, p99
== p50) while the CPU's spreads; energy/op favors the DPU by roughly the
TDP ratio x the time ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.fail2ban import BAN_MAP_FD, build_fail2ban_program
from repro.baseline.cpu import CpuModel
from repro.baseline.server import SUPERMICRO_X12
from repro.ebpf.maps import HashMap
from repro.ebpf.vm import BpfVm
from repro.eval.report import INFO, LOWER, Metric, Table, violated
from repro.hdl.engine import HardwarePipeline, compile_program
from repro.power.energy import HYPERION_POWER, total_tdp
from repro.sim import Simulator
from repro.telemetry import Histogram, Sampler


@dataclass
class PredictabilityResult:
    """Latency distribution and energy/op for one execution substrate."""

    system: str
    runs: int
    mean_latency: float
    stddev_latency: float
    p50: float
    p99: float
    energy_per_op_j: float
    #: Time-series view from the sampler: how many interval-p99 points
    #: were recorded, and the worst of them. A predictable substrate has
    #: interval_p99_max == p99 (the distribution never moves over time).
    sampled_points: int = 0
    interval_p99_max: float = 0.0

    @property
    def jitter_ratio(self) -> float:
        """p99 / p50 — 1.0 means perfectly predictable."""
        return self.p99 / self.p50 if self.p50 else float("inf")


def metrics(results) -> Dict[str, Metric]:
    by_name = {r.system: r for r in results}
    hw = by_name["hyperion-pipeline"]
    cpu = by_name["cpu-interpreter"]
    return {
        "hw_p99_s": Metric(hw.p99, LOWER, "s"),
        "hw_jitter_ratio": Metric(hw.jitter_ratio, LOWER, "x"),
        "hw_interval_p99_max_s": Metric(hw.interval_p99_max, LOWER, "s"),
        "hw_energy_per_op_j": Metric(hw.energy_per_op_j, LOWER, "J"),
        "cpu_p99_s": Metric(cpu.p99, INFO, "s"),
        "hw_sampled_points": Metric(hw.sampled_points, INFO, "samples"),
    }


def accept(results) -> List[str]:
    by_name = {r.system: r for r in results}
    hw = by_name["hyperion-pipeline"]
    cpu = by_name["cpu-interpreter"]
    return violated(
        (hw.jitter_ratio < 1.000001 and hw.stddev_latency < 1e-15,
         "the hardware pipeline has one latency: no jitter, no tail"),
        (cpu.jitter_ratio > 1.05 and cpu.stddev_latency > 0,
         "the CPU shows a real tail (p99/p50 > 1.05)"),
        (cpu.energy_per_op_j / hw.energy_per_op_j > 5,
         "energy per op favours the DPU by more than 5x"),
    )


def _result(system: str, hist: Histogram, watts: float,
            sampler: Sampler) -> PredictabilityResult:
    """Distill one substrate's latency histogram into a result row."""
    p99_series = sampler.series(f"{hist.name}.p99")
    return PredictabilityResult(
        system=system,
        runs=hist.count,
        mean_latency=hist.mean,
        stddev_latency=hist.pstdev,
        p50=hist.quantile(0.50),
        p99=hist.quantile(0.99),
        energy_per_op_j=watts * hist.sum / hist.count,
        sampled_points=len(p99_series) if p99_series else 0,
        interval_p99_max=p99_series.max() if p99_series else 0.0,
    )


def _run_sampled(sim: Simulator, scenario, hist_path: str,
                 period: float) -> Sampler:
    """Run one substrate's scenario with a sampler watching its histogram."""
    sampler = Sampler(sim.telemetry, sim, period=period)
    sampler.watch(hist_path)
    sampler.run(sim, scenario)
    return sampler


def run_predictability(runs: int = 1000) -> List[PredictabilityResult]:
    program = build_fail2ban_program()
    context = bytes(8)

    # -- hardware pipeline ----------------------------------------------------
    sim = Simulator()
    pipeline = HardwarePipeline(
        sim, compile_program(program),
        maps={BAN_MAP_FD: HashMap(8, 8, 65536)},
    )
    hw_hist = sim.telemetry.histogram("eval.predictability.hw_latency")

    def hw_scenario():
        for _ in range(runs):
            start = sim.now
            yield from pipeline.execute(context)
            hw_hist.observe(sim.now - start)

    hw_sampler = _run_sampled(
        sim, hw_scenario(), "eval.predictability.hw_latency", period=1e-6
    )
    hw = _result(
        "hyperion-pipeline", hw_hist, total_tdp(HYPERION_POWER), hw_sampler
    )

    # -- CPU interpreter ------------------------------------------------------
    sim = Simulator()
    cpu = CpuModel(sim)
    vm = BpfVm(program, maps={BAN_MAP_FD: HashMap(8, 8, 65536)})
    cpu_hist = sim.telemetry.histogram("eval.predictability.cpu_latency")

    def cpu_scenario():
        for _ in range(runs):
            start = sim.now
            yield from cpu.execute_ebpf(vm, context)
            cpu_hist.observe(sim.now - start)

    cpu_sampler = _run_sampled(
        sim, cpu_scenario(), "eval.predictability.cpu_latency", period=20e-6
    )
    cpu_result = _result(
        "cpu-interpreter", cpu_hist, SUPERMICRO_X12.max_tdp_watts, cpu_sampler
    )
    return [hw, cpu_result]


def format_predictability(results: List[PredictabilityResult]) -> str:
    table = Table(
        "E6: predictability and energy, hardware pipeline vs CPU software",
        ["system", "mean", "stddev", "p50", "p99", "p99/p50", "energy/op",
         "sampled p99 max"],
    )
    for r in results:
        table.add_row(
            r.system,
            f"{r.mean_latency * 1e9:.1f} ns",
            f"{r.stddev_latency * 1e9:.2f} ns",
            f"{r.p50 * 1e9:.1f} ns",
            f"{r.p99 * 1e9:.1f} ns",
            f"{r.jitter_ratio:.3f}",
            f"{r.energy_per_op_j * 1e9:.1f} nJ",
            f"{r.interval_p99_max * 1e9:.1f} ns ({r.sampled_points} pts)",
        )
    return table.render()
