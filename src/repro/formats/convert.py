"""Parquet <-> Arrow conversion: the pipeline of paper §2.3 / [130].

On real Hyperion this is an FPGA kernel ("Battling the CPU Bottleneck in
Apache Parquet to Arrow Conversion Using FPGA"); here the functions define
the data path the analytics experiment charges to the DPU.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.formats.columnar import RecordBatch
from repro.formats.parquet import ReadAccounting, read_table, write_table


def parquet_to_batch(
    raw: bytes,
    columns: Optional[Sequence[str]] = None,
    predicate_column: Optional[str] = None,
    predicate_range: Optional[Tuple] = None,
    stats: Optional[ReadAccounting] = None,
) -> RecordBatch:
    """Decode storage bytes into the in-memory representation."""
    return read_table(
        raw,
        columns=columns,
        predicate_column=predicate_column,
        predicate_range=predicate_range,
        stats=stats,
    )


def batch_to_parquet(batch: RecordBatch, rows_per_group: int = 1024) -> bytes:
    """Encode an in-memory batch for storage."""
    return write_table(batch, rows_per_group=rows_per_group)
