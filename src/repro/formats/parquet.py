"""HyperParquet: the on-storage columnar format.

Structure (mirroring Parquet's essentials)::

    [row group 0: column chunk, column chunk, ...]
    [row group 1: ...]
    footer: schema, per-chunk (offset, length, min, max), row counts
    footer_length u32 | magic "HPQ1"

Why it matters for the paper: the footer's chunk offsets let a reader
fetch only the columns a query needs, and the min/max *statistics* let
it skip whole row groups — the I/O the DPU path in
:mod:`repro.apps.analytics` avoids without any CPU-side format
translation (§2.3). :func:`read_table` is the plain whole-table read.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.common.errors import ProtocolError
from repro.formats.columnar import RecordBatch, Schema

MAGIC = b"HPQ1"


def _encode_chunk(kind: str, values: List[Any]) -> bytes:
    if kind == "int64":
        return b"".join(
            struct.pack("<q", v) for v in values
        )
    if kind == "float64":
        return b"".join(struct.pack("<d", v) for v in values)
    # strings: dictionary encoding — unique values + u32 indices.
    unique: Dict[str, int] = {}
    indices = []
    for value in values:
        indices.append(unique.setdefault(value, len(unique)))
    words = list(unique)
    dictionary = json.dumps(words).encode()
    return (
        struct.pack("<I", len(dictionary))
        + dictionary
        + b"".join(struct.pack("<I", i) for i in indices)
    )


def _decode_chunk(kind: str, raw: bytes, count: int) -> List[Any]:
    if kind == "int64":
        return [v[0] for v in struct.iter_unpack("<q", raw[: 8 * count])]
    if kind == "float64":
        return [v[0] for v in struct.iter_unpack("<d", raw[: 8 * count])]
    (dict_len,) = struct.unpack_from("<I", raw, 0)
    words = json.loads(raw[4 : 4 + dict_len].decode())
    at = 4 + dict_len
    indices = [
        v[0] for v in struct.iter_unpack("<I", raw[at : at + 4 * count])
    ]
    return [words[i] for i in indices]


@dataclass
class ChunkMeta:
    """Footer metadata of one column chunk: location and min/max stats."""

    column: str
    offset: int
    length: int
    min_value: Any
    max_value: Any


@dataclass
class RowGroupMeta:
    """Footer metadata of one row group: row count and its chunks."""

    row_count: int
    chunks: Dict[str, ChunkMeta] = field(default_factory=dict)


@dataclass
class ParquetFooter:
    """The decoded footer: schema plus row-group/chunk metadata."""

    schema: Schema
    row_groups: List[RowGroupMeta]


def write_table(batch: RecordBatch, rows_per_group: int = 1024) -> bytes:
    """Serialize a batch into HyperParquet bytes."""
    body = bytearray()
    groups: List[RowGroupMeta] = []
    total = len(batch)
    for start in range(0, max(total, 1), rows_per_group):
        end = min(start + rows_per_group, total)
        if start >= total and total > 0:
            break
        group = RowGroupMeta(row_count=end - start)
        for name in batch.schema.names:
            column = batch.column(name)
            values = column.values[start:end]
            encoded = _encode_chunk(column.kind, values)
            group.chunks[name] = ChunkMeta(
                column=name,
                offset=len(body),
                length=len(encoded),
                min_value=min(values) if values else None,
                max_value=max(values) if values else None,
            )
            body.extend(encoded)
        groups.append(group)
        if total == 0:
            break
    footer = {
        "schema": list(batch.schema.fields),
        "row_groups": [
            {
                "rows": group.row_count,
                "chunks": {
                    name: {
                        "offset": meta.offset,
                        "length": meta.length,
                        "min": meta.min_value,
                        "max": meta.max_value,
                    }
                    for name, meta in group.chunks.items()
                },
            }
            for group in groups
        ],
    }
    footer_bytes = json.dumps(footer).encode()
    return bytes(body) + footer_bytes + struct.pack("<I", len(footer_bytes)) + MAGIC


def read_footer(raw: bytes) -> ParquetFooter:
    if len(raw) < 8 or raw[-4:] != MAGIC:
        raise ProtocolError("not a HyperParquet file")
    (footer_len,) = struct.unpack_from("<I", raw, len(raw) - 8)
    footer_start = len(raw) - 8 - footer_len
    if footer_start < 0:
        raise ProtocolError("corrupt HyperParquet footer")
    meta = json.loads(raw[footer_start : footer_start + footer_len].decode())
    schema = Schema(tuple((n, t) for n, t in meta["schema"]))
    groups = []
    for group_meta in meta["row_groups"]:
        group = RowGroupMeta(row_count=group_meta["rows"])
        for name, chunk in group_meta["chunks"].items():
            group.chunks[name] = ChunkMeta(
                column=name,
                offset=chunk["offset"],
                length=chunk["length"],
                min_value=chunk["min"],
                max_value=chunk["max"],
            )
        groups.append(group)
    return ParquetFooter(schema=schema, row_groups=groups)


def read_table(raw: bytes) -> RecordBatch:
    """Read every column of every row group."""
    footer = read_footer(raw)
    schema = footer.schema
    out: Dict[str, List[Any]] = {name: [] for name in schema.names}
    for group in footer.row_groups:
        for name in schema.names:
            meta = group.chunks[name]
            chunk_raw = raw[meta.offset : meta.offset + meta.length]
            out[name].extend(
                _decode_chunk(schema.type_of(name), chunk_raw, group.row_count)
            )
    return RecordBatch(schema, out)
