"""E9: end-to-end Parquet/Arrow access with no CPU (paper §2.3).

A filtered aggregation over a Parquet file on a HyperExt file system on
NVMe. The DPU path uses the annotation walker + device-side projection +
the hardware scan kernel; the CPU path reads the whole file through the
kernel and scans in software. Expected shape: identical answers; the DPU
wins on bytes moved (projection) and end-to-end time, and its advantage
grows with file size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.analytics import AnalyticsQuery, cpu_scan, dpu_scan
from repro.baseline import CpuModel, OsModel
from repro.dpu import HyperionDpu
from repro.eval.report import HIGHER, LOWER, Metric, Table, violated
from repro.formats import RecordBatch, Schema, write_table
from repro.fs import HyperExtFs
from repro.hw.net import Network
from repro.sim import Simulator


@dataclass
class AnalyticsPoint:
    """One E9 sweep point: DPU vs CPU time/bytes at a row count."""

    rows: int
    dpu_time: float
    cpu_time: float
    dpu_bytes: int
    cpu_bytes: int
    answers_agree: bool

    @property
    def speedup(self) -> float:
        return self.cpu_time / self.dpu_time


def metrics(points) -> Dict[str, Metric]:
    largest = max(points, key=lambda p: p.rows)
    return {
        "largest_dpu_time_s": Metric(largest.dpu_time, LOWER, "s"),
        "largest_speedup": Metric(largest.speedup, HIGHER, "x"),
        "largest_bytes_moved": Metric(largest.dpu_bytes, LOWER, "bytes"),
    }


def accept(points) -> List[str]:
    speedups = [p.speedup for p in points]  # in row-count order
    return violated(
        (all(p.answers_agree for p in points),
         "both stacks compute the same answer from the same bytes"),
        (speedups == sorted(speedups),
         "the DPU's advantage grows with the file"),
        (speedups[-1] > 1.0, "the DPU wins the largest scan"),
    )


def _dataset(rows: int) -> bytes:
    schema = Schema.of(id="int64", amount="float64", region="string")
    batch = RecordBatch.from_rows(
        schema,
        [(i, i * 0.5, ["eu", "us", "apac"][i % 3]) for i in range(rows)],
    )
    return write_table(batch, rows_per_group=max(64, rows // 16))


def _query() -> AnalyticsQuery:
    return AnalyticsQuery(
        path="/warehouse/sales.parquet",
        project=["amount"],
        aggregate_column="amount",
        aggregate="sum",
        predicate_column="id",
        predicate_low=0,
        predicate_high=10_000_000,
    )


def _run_point(rows: int) -> AnalyticsPoint:
    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim), ssd_blocks=262144)
    sim.run_process(dpu.boot())
    fs = HyperExtFs.mkfs(dpu.ssds[0].namespaces[1])
    fs.mkdir("/warehouse")
    fs.create_file("/warehouse/sales.parquet", _dataset(rows))
    query = _query()

    def scenario():
        dpu_result = yield from dpu_scan(sim, dpu, fs, query)
        cpu = CpuModel(sim)
        cpu_result = yield from cpu_scan(
            sim, cpu, OsModel(sim, cpu), fs, query, controller=dpu.ssds[0]
        )
        return dpu_result, cpu_result

    dpu_result, cpu_result = sim.run_process(scenario())
    return AnalyticsPoint(
        rows=rows,
        dpu_time=dpu_result.elapsed,
        cpu_time=cpu_result.elapsed,
        dpu_bytes=dpu_result.bytes_from_storage,
        cpu_bytes=cpu_result.bytes_from_storage,
        answers_agree=abs(dpu_result.value - cpu_result.value) < 1e-6,
    )


def run_analytics(row_counts=(1_000, 5_000, 20_000)) -> List[AnalyticsPoint]:
    return [_run_point(rows) for rows in row_counts]


def format_analytics(points: List[AnalyticsPoint]) -> str:
    table = Table(
        "E9: Parquet scan on ext4-like FS over NVMe, DPU walker vs CPU stack",
        ["rows", "DPU time", "CPU time", "speedup", "DPU bytes",
         "CPU bytes", "agree"],
    )
    for p in points:
        table.add_row(
            p.rows,
            f"{p.dpu_time * 1e3:.2f} ms",
            f"{p.cpu_time * 1e3:.2f} ms",
            f"{p.speedup:.1f}x",
            p.dpu_bytes,
            p.cpu_bytes,
            p.answers_agree,
        )
    return table.render()
