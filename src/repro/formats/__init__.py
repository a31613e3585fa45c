"""Columnar data formats (paper §2.3): on-storage and in-memory.

``HyperParquet`` is a structurally faithful columnar *storage* format (row
groups, column chunks, min/max statistics, footer-at-end) and ``columnar``
is the Arrow-like *in-memory* representation. The conversion pipeline
between them is the workload the paper cites FPGA support for [130], and
the end-to-end analytics experiment (E9) drives it over the annotation
walker + NVMe path with no CPU in the loop.
"""

from repro.formats.columnar import Column, RecordBatch, Schema
from repro.formats.parquet import (
    ParquetFooter,
    read_footer,
    read_table,
    write_table,
)

__all__ = [
    "Schema",
    "Column",
    "RecordBatch",
    "write_table",
    "read_table",
    "read_footer",
    "ParquetFooter",
]
