#!/usr/bin/env python3
"""The §2.3 end-to-end pipeline: Parquet on ext4-like FS on NVMe, no CPU.

Builds a columnar dataset, stores it as a HyperParquet file inside a
HyperExt file system on the DPU's flash, then answers an analytical query
two ways:

* **DPU**: the Spiffy-style annotation walker resolves the path, the
  footer picks the needed column chunks (projection + min/max pushdown),
  parallel NVMe reads fetch exactly those blocks, and the hardware kernel
  scans them;
* **CPU**: the host reads the whole file through syscalls and copies, then
  decodes and scans in software.

Run: ``python examples/analytics_pipeline.py``
"""

from repro.apps.analytics import AnalyticsQuery, cpu_scan, dpu_scan
from repro.baseline import CpuModel, OsModel
from repro.common.units import format_bytes, format_time
from repro.dpu import HyperionDpu
from repro.formats import RecordBatch, Schema, write_table
from repro.fs import HyperExtFs, ext4_annotation, generate_walker_code
from repro.hw.net import Network
from repro.sim import Simulator

ROWS = 20_000


def build_dataset() -> bytes:
    schema = Schema.of(order_id="int64", amount="float64", region="string")
    rows = [
        (i, (i % 997) * 0.25, ["eu", "us", "apac"][i % 3]) for i in range(ROWS)
    ]
    return write_table(RecordBatch.from_rows(schema, rows), rows_per_group=2048)


def main() -> None:
    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim), ssd_blocks=262144)
    sim.run_process(dpu.boot())

    # Lay the data out on a real file system on the DPU's flash.
    fs = HyperExtFs.mkfs(dpu.ssds[0].namespaces[1])
    fs.mkdir("/warehouse")
    dataset = build_dataset()
    fs.create_file("/warehouse/orders.parquet", dataset)
    print(f"dataset: {ROWS} rows, {format_bytes(len(dataset))} as "
          f"/warehouse/orders.parquet")

    # The annotation the walker uses (generated accessor code shown too).
    code = generate_walker_code(ext4_annotation())
    print(f"annotation-generated accessor code: "
          f"{len(code.splitlines())} lines of C (excerpt below)")
    print("  " + "\n  ".join(code.splitlines()[:6]))

    query = AnalyticsQuery(
        path="/warehouse/orders.parquet",
        project=["amount"],
        aggregate_column="amount",
        aggregate="sum",
        predicate_column="order_id",
        predicate_low=5_000,
        predicate_high=9_999,
    )
    print(f"\nquery: SELECT sum(amount) WHERE order_id IN "
          f"[{query.predicate_low}, {query.predicate_high}]")

    def scenario():
        dpu_result = yield from dpu_scan(sim, dpu, fs, query)
        cpu = CpuModel(sim)
        cpu_result = yield from cpu_scan(
            sim, cpu, OsModel(sim, cpu), fs, query, controller=dpu.ssds[0]
        )
        return dpu_result, cpu_result

    dpu_result, cpu_result = sim.run_process(scenario())
    print(f"\n{'path':<12} {'answer':>14} {'time':>10} {'bytes moved':>12}")
    print(f"{'DPU':<12} {dpu_result.value:>14.2f} "
          f"{format_time(dpu_result.elapsed):>10} "
          f"{format_bytes(dpu_result.bytes_from_storage):>12}")
    print(f"{'CPU server':<12} {cpu_result.value:>14.2f} "
          f"{format_time(cpu_result.elapsed):>10} "
          f"{format_bytes(cpu_result.bytes_from_storage):>12}")
    assert abs(dpu_result.value - cpu_result.value) < 1e-6
    print(f"\nsame answer; DPU {cpu_result.elapsed / dpu_result.elapsed:.1f}x "
          f"faster with pushdown skipping "
          f"{ROWS - dpu_result.rows_scanned} of {ROWS} rows at the device")


if __name__ == "__main__":
    main()
