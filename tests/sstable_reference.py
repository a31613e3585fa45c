"""Test-only SSTable parser: the inverse of ``SsTable.serialize``.

Nothing under ``src/`` reads an SSTable image back (a flush only writes
it), so the parser lives here, where tests use it to hold the flushed
bytes to the format.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.common.errors import ProtocolError
from repro.datastruct import SsTable


def parse_sstable(raw: bytes) -> SsTable:
    if raw[:4] != b"SSTB":
        raise ProtocolError("bad SSTable image")
    (count,) = struct.unpack_from("<I", raw, 4)
    entries: List[Tuple[bytes, bytes]] = []
    offset = 8
    for _ in range(count):
        key_len, value_len = struct.unpack_from("<II", raw, offset)
        offset += 8
        key = raw[offset : offset + key_len]
        offset += key_len
        value = raw[offset : offset + value_len]
        offset += value_len
        entries.append((key, value))
    return SsTable(entries)
