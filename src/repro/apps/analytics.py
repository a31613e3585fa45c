"""End-to-end columnar analytics (paper §2.3, experiment E9).

The query: filter + aggregate over a Parquet file stored on a HyperExt file
system on NVMe.

* **DPU path**: the annotation-generated walker resolves the file (timed
  NVMe block reads), the footer is read from the file tail, and only the
  blocks containing the *projected* column chunks (of row groups surviving
  min/max pushdown) move off flash; conversion and the scan kernel run at
  pipeline rates — no host or client CPU.
* **CPU path**: the host reads the whole file off the same flash through
  syscalls + copies, converts on the CPU, and scans at software speed with
  jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

from repro.baseline.cpu import CpuModel
from repro.baseline.os_model import OsModel
from repro.dpu.hyperion import HyperionDpu
from repro.formats.parquet import read_footer, _decode_chunk
from repro.fs.ext4 import HyperExtFs
from repro.fs.spiffy import LayoutWalker, ext4_annotation
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode
from repro.hw.nvme.namespace import LBA_SIZE
from repro.formats.columnar import RecordBatch
from repro.sim import Simulator

#: The scan kernel's per-row cost in hardware (deep pipeline, one row per
#: cycle at 250 MHz) vs software (tens of ns/row once branch mispredicts
#: and cache misses are paid).
DPU_ROW_TIME = 4e-9
CPU_ROW_TIME = 40e-9


@dataclass
class AnalyticsQuery:
    """SELECT agg(column) WHERE predicate_column IN [low, high]."""

    path: str
    project: List[str]
    aggregate_column: str
    aggregate: str = "sum"
    predicate_column: Optional[str] = None
    predicate_low: Any = None
    predicate_high: Any = None

    def row_predicate(self, row) -> bool:
        if self.predicate_column is None:
            return True
        return self.predicate_low <= row[self.predicate_column] <= self.predicate_high

    def needed_columns(self) -> List[str]:
        needed = set(self.project) | {self.aggregate_column}
        if self.predicate_column:
            needed.add(self.predicate_column)
        return sorted(needed)


@dataclass
class ScanResult:
    """Outcome of one scan: answer, rows, bytes moved, elapsed time."""

    value: Any
    rows_scanned: int
    bytes_from_storage: int
    elapsed: float


def dpu_scan(sim: Simulator, dpu: HyperionDpu, fs: HyperExtFs, query: AnalyticsQuery):
    """Process: the CPU-free path — walker + device-side projection +
    hardware scan kernel."""
    started = sim.now
    dpu.require_booted()
    qp = dpu.ssds[0].create_queue_pair()
    namespace = fs.namespace

    # 1. Resolve the file through the annotation walker (counts its reads).
    walker = LayoutWalker(ext4_annotation(), namespace.read_blocks)
    size, pieces = walker.resolve_file(query.path)
    blocks_fetched = walker.blocks_read
    for _ in range(walker.blocks_read):
        completion = yield qp.submit(NvmeCommand(NvmeOpcode.READ, lba=0))
        assert completion.ok
    # The file is extent-contiguous; map byte ranges to physical LBAs.
    physical_start, __ = pieces[0]

    # 2. Footer: read the tail block(s).
    total_blocks = max(1, -(-size // LBA_SIZE))
    tail_lba = physical_start + total_blocks - 1
    completion = yield qp.submit(NvmeCommand(NvmeOpcode.READ, lba=tail_lba))
    assert completion.ok
    blocks_fetched += 1
    footer_raw = _assemble_tail(namespace, physical_start, total_blocks, size)
    footer = read_footer(footer_raw)

    # 3. Which chunk byte ranges survive projection + pushdown?
    needed = query.needed_columns()
    ranges: List[Tuple[int, int, str, int]] = []  # offset, length, col, rows
    for group in footer.row_groups:
        if query.predicate_column is not None:
            meta = group.chunks[query.predicate_column]
            if meta.min_value is not None and (
                meta.max_value < query.predicate_low
                or meta.min_value > query.predicate_high
            ):
                continue  # pushdown: skip the whole row group
        for name in needed:
            meta = group.chunks[name]
            ranges.append((meta.offset, meta.length, name, group.row_count))

    # 4. Fetch exactly the blocks covering those ranges — queued together
    #    so the flash dies serve them in parallel (why NVMe queues exist).
    needed_blocks: Set[int] = set()
    for offset, length, __, ___ in ranges:
        first = offset // LBA_SIZE
        last = (offset + max(length, 1) - 1) // LBA_SIZE
        needed_blocks.update(range(first, last + 1))
    ordered_blocks = sorted(needed_blocks)
    pending = [
        qp.submit(NvmeCommand(NvmeOpcode.READ, lba=physical_start + block))
        for block in ordered_blocks
    ]
    completions = yield sim.all_of(pending)
    file_bytes = {}
    for logical_block, event in zip(ordered_blocks, pending):
        completion = completions[event]
        assert completion.ok
        blocks_fetched += 1
        file_bytes[logical_block] = completion.data

    def read_range(offset: int, length: int) -> bytes:
        parts = []
        cursor = offset
        remaining = length
        while remaining > 0:
            block_index = cursor // LBA_SIZE
            within = cursor % LBA_SIZE
            take = min(remaining, LBA_SIZE - within)
            block = file_bytes[block_index]
            parts.append(block[within : within + take])
            cursor += take
            remaining -= take
        return b"".join(parts)

    # 5. Decode chunks -> in-memory columns (the Parquet->Arrow kernel).
    columns = {name: [] for name in needed}
    schema = footer.schema.select(needed)
    for offset, length, name, row_count in ranges:
        values = _decode_chunk(
            schema.type_of(name), read_range(offset, length), row_count
        )
        columns[name].extend(values)
    batch = RecordBatch(schema, columns)
    filtered = batch.filter(query.row_predicate)
    # 6. The hardware scan kernel: fixed time per row, no jitter.
    yield sim.timeout(len(batch) * DPU_ROW_TIME)
    value = filtered.aggregate(query.aggregate_column, query.aggregate)
    return ScanResult(
        value=value,
        rows_scanned=len(batch),
        bytes_from_storage=blocks_fetched * LBA_SIZE,
        elapsed=sim.now - started,
    )


def _assemble_tail(namespace, physical_start: int, total_blocks: int,
                   size: int) -> bytes:
    """Footer bytes from the file tail (footer may span a few blocks)."""
    # Read up to the last 8 blocks functionally (the timed read above
    # charged the device access; the footer rarely spans more than one).
    first = max(0, total_blocks - 8)
    raw = namespace.read_blocks(physical_start + first, total_blocks - first)
    skip = size - first * LBA_SIZE
    return raw[:skip]


def cpu_scan(
    sim: Simulator,
    cpu: CpuModel,
    os_model: OsModel,
    fs: HyperExtFs,
    query: AnalyticsQuery,
    controller=None,
):
    """Process: the CPU-centric path — full-file device read, syscalls,
    copies, software decode + scan.

    ``controller`` is the NVMe controller backing ``fs``; when given, the
    whole file's blocks are fetched through it before the host-side costs
    are charged (the server reads from the same flash the DPU does).
    """
    from repro.formats.parquet import read_table

    started = sim.now
    raw = fs.read_file(query.path)
    # The same flash must be read, block by block, before the host sees it.
    if controller is not None:
        qp = controller.create_queue_pair()
        for extent in fs.file_extents(query.path):
            completion = yield qp.submit(
                NvmeCommand(
                    NvmeOpcode.READ, lba=extent.physical, block_count=extent.length
                )
            )
            assert completion.ok
    # Host-side, back to back on one core (one sleep): syscalls + copy
    # of the whole file,
    when = os_model.read_storage(sim.now, len(raw))
    # software decode of every column (format translation on the CPU),
    batch = read_table(raw)
    when += cpu.costs.memcpy_time(len(raw)) * 2  # decode ~2 passes
    filtered = batch.filter(query.row_predicate)
    # and the software scan with interference jitter.
    scan_time = len(batch) * CPU_ROW_TIME
    jitter = 1.0 + cpu.rng.uniform(0, cpu.costs.jitter_fraction)
    yield sim.timeout_at(when + scan_time * jitter)
    value = filtered.aggregate(query.aggregate_column, query.aggregate)
    return ScanResult(
        value=value,
        rows_scanned=len(batch),
        bytes_from_storage=len(raw),
        elapsed=sim.now - started,
    )
