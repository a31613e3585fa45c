"""HyperExt: a compact ext4-like file system (extents, inode table).

On-disk layout (4 KiB blocks)::

    block 0          superblock
    blocks 1..N      inode table (64 inodes/block, 64 B inodes)
    blocks N+1..     data blocks (files, directories)

Inode (64 bytes): mode u32 | size u64 | extent_count u32 | 4 extents of
(logical u32, physical u32, length u32). Directory data: entry count u32,
then (name_len u16, name, inode u32) records. Everything is real bytes on
the namespace, so the annotation walker (spiffy.py) can parse it back with
zero knowledge of this module.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.common.errors import CapacityError, ConfigurationError, ProtocolError
from repro.datastruct.extent import Extent, ExtentTree
from repro.hw.nvme.namespace import LBA_SIZE, Namespace

MAGIC = 0x48595045  # "HYPE"
MODE_FILE = 1
MODE_DIR = 2
INODE_SIZE = 64
INODES_PER_BLOCK = LBA_SIZE // INODE_SIZE
MAX_EXTENTS = 4
ROOT_INODE = 0

_SUPERBLOCK = struct.Struct("<IIIII")  # magic, blocks, itable_start, itable_blocks, data_start
_INODE_HEAD = struct.Struct("<IQI")  # mode, size, extent_count
_EXTENT = struct.Struct("<III")


class HyperExtFs:
    """Create/read files and directories on a :class:`Namespace`."""

    def __init__(self, namespace: Namespace):
        self.namespace = namespace

    # -- formatting ------------------------------------------------------------
    @classmethod
    def mkfs(cls, namespace: Namespace, inode_blocks: int = 4) -> "HyperExtFs":
        data_start = 1 + inode_blocks
        if namespace.capacity_blocks <= data_start:
            raise CapacityError("namespace too small for HyperExt")
        sb = _SUPERBLOCK.pack(
            MAGIC, namespace.capacity_blocks, 1, inode_blocks, data_start
        )
        namespace.write_blocks(0, sb)
        fs = cls(namespace)
        # Root directory: inode 0, initially empty.
        fs._write_inode(ROOT_INODE, MODE_DIR, 0, [])
        fs._set_alloc_cursor(data_start)
        return fs

    # -- superblock ------------------------------------------------------------
    def superblock(self) -> Dict[str, int]:
        raw = self.namespace.read_blocks(0, 1)
        magic, blocks, itable_start, itable_blocks, data_start = _SUPERBLOCK.unpack(
            raw[: _SUPERBLOCK.size]
        )
        if magic != MAGIC:
            raise ProtocolError("not a HyperExt file system")
        return {
            "magic": magic,
            "blocks": blocks,
            "inode_table_start": itable_start,
            "inode_table_blocks": itable_blocks,
            "data_start": data_start,
        }

    # Allocation cursor lives at a fixed offset in the superblock block.
    _CURSOR_OFFSET = 64

    def _set_alloc_cursor(self, value: int) -> None:
        raw = bytearray(self.namespace.read_blocks(0, 1))
        raw[self._CURSOR_OFFSET : self._CURSOR_OFFSET + 4] = struct.pack("<I", value)
        self.namespace.write_blocks(0, bytes(raw))

    def _alloc_blocks(self, count: int) -> int:
        raw = bytearray(self.namespace.read_blocks(0, 1))
        (cursor,) = struct.unpack_from("<I", raw, self._CURSOR_OFFSET)
        sb = self.superblock()
        if cursor + count > sb["blocks"]:
            raise CapacityError("file system full")
        struct.pack_into("<I", raw, self._CURSOR_OFFSET, cursor + count)
        self.namespace.write_blocks(0, bytes(raw))
        return cursor

    # -- inodes ------------------------------------------------------------
    def _inode_location(self, inode: int) -> Tuple[int, int]:
        sb = self.superblock()
        if inode >= sb["inode_table_blocks"] * INODES_PER_BLOCK:
            raise CapacityError(f"inode {inode} out of range")
        block = sb["inode_table_start"] + inode // INODES_PER_BLOCK
        offset = (inode % INODES_PER_BLOCK) * INODE_SIZE
        return block, offset

    def _write_inode(
        self, inode: int, mode: int, size: int, extents: List[Extent]
    ) -> None:
        if len(extents) > MAX_EXTENTS:
            raise CapacityError("too many extents for one inode")
        block, offset = self._inode_location(inode)
        raw = bytearray(self.namespace.read_blocks(block, 1))
        body = bytearray(INODE_SIZE)
        _INODE_HEAD.pack_into(body, 0, mode, size, len(extents))
        at = _INODE_HEAD.size
        for extent in extents:
            _EXTENT.pack_into(body, at, extent.logical, extent.physical, extent.length)
            at += _EXTENT.size
        raw[offset : offset + INODE_SIZE] = body
        self.namespace.write_blocks(block, bytes(raw))

    def read_inode(self, inode: int) -> Tuple[int, int, ExtentTree]:
        """Returns (mode, size, extent tree)."""
        block, offset = self._inode_location(inode)
        raw = self.namespace.read_blocks(block, 1)[offset : offset + INODE_SIZE]
        mode, size, extent_count = _INODE_HEAD.unpack_from(raw, 0)
        tree = ExtentTree()
        at = _INODE_HEAD.size
        for _ in range(extent_count):
            logical, physical, length = _EXTENT.unpack_from(raw, at)
            at += _EXTENT.size
            tree.insert(Extent(logical, physical, length))
        return mode, size, tree

    def _next_free_inode(self) -> int:
        sb = self.superblock()
        total = sb["inode_table_blocks"] * INODES_PER_BLOCK
        for inode in range(1, total):
            mode, __, ___ = self.read_inode(inode)
            if mode == 0:
                return inode
        raise CapacityError("no free inodes")

    # -- directories ---------------------------------------------------------
    def _read_dir(self, inode: int) -> Dict[str, int]:
        mode, size, tree = self.read_inode(inode)
        if mode != MODE_DIR:
            raise ProtocolError(f"inode {inode} is not a directory")
        data = self._read_extents(tree, size)
        entries: Dict[str, int] = {}
        if not data:
            return entries
        (count,) = struct.unpack_from("<I", data, 0)
        at = 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, at)
            at += 2
            name = data[at : at + name_len].decode()
            at += name_len
            (child,) = struct.unpack_from("<I", data, at)
            at += 4
            entries[name] = child
        return entries

    def _write_dir(self, inode: int, entries: Dict[str, int]) -> None:
        parts = [struct.pack("<I", len(entries))]
        for name, child in entries.items():
            encoded = name.encode()
            parts.append(struct.pack("<H", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack("<I", child))
        data = b"".join(parts)
        extents = self._store_data(data)
        self._write_inode(inode, MODE_DIR, len(data), extents)

    # -- data ------------------------------------------------------------------
    def _store_data(self, data: bytes) -> List[Extent]:
        if not data:
            return []
        blocks = max(1, -(-len(data) // LBA_SIZE))
        physical = self._alloc_blocks(blocks)
        self.namespace.write_blocks(physical, data)
        return [Extent(logical=0, physical=physical, length=blocks)]

    def _read_extents(self, tree: ExtentTree, size: int) -> bytes:
        if size == 0:
            return b""
        blocks = max(1, -(-size // LBA_SIZE))
        parts = []
        for physical, run in tree.translate_range(0, blocks):
            parts.append(self.namespace.read_blocks(physical, run))
        return b"".join(parts)[:size]

    # -- public API --------------------------------------------------------
    def _resolve_dir(self, components: List[str]) -> int:
        inode = ROOT_INODE
        for component in components:
            entries = self._read_dir(inode)
            if component not in entries:
                raise FileNotFoundError("/".join(components))
            inode = entries[component]
        return inode

    def mkdir(self, path: str) -> int:
        *parents, name = [p for p in path.split("/") if p]
        parent = self._resolve_dir(parents)
        entries = self._read_dir(parent)
        if name in entries:
            raise ConfigurationError(f"{path} already exists")
        inode = self._next_free_inode()
        self._write_inode(inode, MODE_DIR, 0, [])
        entries[name] = inode
        self._write_dir(parent, entries)
        return inode

    def create_file(self, path: str, data: bytes) -> int:
        *parents, name = [p for p in path.split("/") if p]
        parent = self._resolve_dir(parents)
        entries = self._read_dir(parent)
        if name in entries:
            raise ConfigurationError(f"{path} already exists")
        inode = self._next_free_inode()
        extents = self._store_data(data)
        self._write_inode(inode, MODE_FILE, len(data), extents)
        entries[name] = inode
        self._write_dir(parent, entries)
        return inode

    def lookup(self, path: str) -> int:
        components = [p for p in path.split("/") if p]
        if not components:
            return ROOT_INODE
        parent = self._resolve_dir(components[:-1])
        entries = self._read_dir(parent)
        if components[-1] not in entries:
            raise FileNotFoundError(path)
        return entries[components[-1]]

    def read_file(self, path: str) -> bytes:
        inode = self.lookup(path)
        mode, size, tree = self.read_inode(inode)
        if mode != MODE_FILE:
            raise ProtocolError(f"{path} is not a file")
        return self._read_extents(tree, size)

    def file_extents(self, path: str) -> List[Extent]:
        """The physical extents of a file — what the DPU datapath needs."""
        __, ___, tree = self.read_inode(self.lookup(path))
        return list(tree)
