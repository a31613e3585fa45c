"""E11: segment-table persistence and power-loss recovery (paper §2.1).

Allocate durable and ephemeral segments, persist the table to the boot
area, power-cycle the DPU, and measure the recovery outcome and time as a
function of table size. Expected shape: durable segments and their bytes
survive, ephemeral segments vanish, recovery time grows linearly in table
size but stays milliseconds even for thousands of segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.ids import ObjectId
from repro.dpu import HyperionDpu
from repro.eval.report import INFO, LOWER, Metric, Table, violated
from repro.hw.net import Network
from repro.sim import Simulator


@dataclass
class RecoveryPoint:
    """One E11 run: persisted bytes and recovery verdicts at a table size."""

    durable_segments: int
    ephemeral_segments: int
    persist_bytes: int
    recovered_segments: int
    data_intact: bool
    ephemeral_gone: bool
    recovery_time: float


def metrics(points) -> Dict[str, Metric]:
    largest = max(points, key=lambda p: p.durable_segments)
    return {
        "largest_recovery_time_s": Metric(largest.recovery_time, LOWER, "s"),
        "largest_persist_bytes": Metric(largest.persist_bytes, INFO, "bytes"),
        "data_intact": Metric(
            float(all(p.data_intact for p in points)), INFO, "bool"),
    }


def accept(points) -> List[str]:
    return violated(
        (all(p.recovered_segments == p.durable_segments and p.data_intact
             for p in points),
         "every durable segment survives power loss with its bytes"),
        (all(p.ephemeral_gone for p in points),
         "every ephemeral segment is gone after power loss"),
        (all(p.persist_bytes == 16 + 40 * p.durable_segments
             for p in points),
         "the persisted table is 16 B of header plus 40 B per record"),
    )


def _run_point(durable_count: int, ephemeral_count: int = 50) -> RecoveryPoint:
    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim), ssd_blocks=262144)
    sim.run_process(dpu.boot())

    durable_oids = []
    for index in range(durable_count):
        oid = ObjectId(1000 + index)
        dpu.store.allocate(64, durable=True, oid=oid)
        dpu.store.write(oid, f"durable-{index}".encode())
        durable_oids.append(oid)
    ephemeral_oids = []
    for index in range(ephemeral_count):
        segment = dpu.store.allocate(64)
        dpu.store.write(segment.oid, b"ephemeral")
        ephemeral_oids.append(segment.oid)

    def persist():
        written = yield from dpu.store.timed_persist_table()
        return written

    persist_bytes = sim.run_process(persist())

    # Power loss and standalone recovery.
    twin = dpu.power_cycle()
    recovery_started = sim.now
    report = sim.run_process(twin.boot(recover_store=True))
    recovery_time = sim.now - recovery_started - report.boot_time + (
        report.boot_time - 0.16
    )  # isolate the store-recovery share of boot

    data_intact = all(
        twin.store.read(oid, len(f"durable-{index}".encode()))
        == f"durable-{index}".encode()
        for index, oid in enumerate(durable_oids)
    )
    ephemeral_gone = all(oid not in twin.store.table for oid in ephemeral_oids)
    return RecoveryPoint(
        durable_segments=durable_count,
        ephemeral_segments=ephemeral_count,
        persist_bytes=persist_bytes,
        recovered_segments=report.recovered_segments,
        data_intact=data_intact,
        ephemeral_gone=ephemeral_gone,
        recovery_time=max(recovery_time, 0.0),
    )


def run_recovery(durable_counts=(10, 100, 1000)) -> List[RecoveryPoint]:
    return [_run_point(count) for count in durable_counts]


def format_recovery(points: List[RecoveryPoint]) -> str:
    table = Table(
        "E11: segment table persistence + power-loss recovery",
        ["durable segs", "ephemeral segs", "persisted bytes",
         "recovered", "data intact", "ephemeral gone"],
    )
    for p in points:
        table.add_row(
            p.durable_segments, p.ephemeral_segments, p.persist_bytes,
            p.recovered_segments, p.data_intact, p.ephemeral_gone,
        )
    return table.render()
