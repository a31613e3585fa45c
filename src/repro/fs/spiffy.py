"""Spiffy-style file-system layout annotations and generated walkers.

Paper §2.3: "prior research from Sun et al. show that such a file-system
layout annotation can be generated efficiently for ext4 and F2FS file
systems. The availability of annotation enables us to generate file system
layout and metadata access codes ... thus accessing directories and files
directly."

The DSL has two layers:

* **structure annotations** — named structs of typed fields (with
  counted arrays and variable-length fields), parsed generically by
  :class:`LayoutWalker` given nothing but a ``read_block`` callable;
* **semantic bindings** — which struct is the superblock, how inode
  numbers map to table locations, which fields carry sizes/pointers.

``LayoutWalker.resolve_file`` chases a path to its physical extents using
only the annotation — no import of the file-system module — and
``generate_walker_code`` emits the C-like accessor source that the
Hyperion compiler would lower to HDL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, ProtocolError

_SCALARS = {"u8": 1, "u16": 2, "u32": 4, "u64": 8}

#: The block size every annotated layout is addressed in.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class Field:
    """One annotated field.

    ``kind`` is a scalar ("u8".."u64"), ``bytes``, or ``struct:<name>``.
    ``count`` / ``count_field`` repeat the field; ``length_field`` sizes a
    ``bytes`` field from a previously parsed field.
    """

    name: str
    kind: str
    count: int = 1
    count_field: Optional[str] = None
    length_field: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _SCALARS and self.kind != "bytes" and not self.kind.startswith("struct:"):
            raise ConfigurationError(f"unknown field kind {self.kind!r}")


@dataclass
class StructDef:
    """A named, ordered list of annotated fields."""

    name: str
    fields: List[Field]

    def fixed_size(self, layout: "LayoutAnnotation") -> int:
        """Size when no variable-length fields are present."""
        total = 0
        for f in self.fields:
            if f.count_field or f.length_field:
                raise ConfigurationError(f"{self.name}.{f.name} is variable")
            if f.kind in _SCALARS:
                total += _SCALARS[f.kind] * f.count
            elif f.kind.startswith("struct:"):
                inner = layout.structs[f.kind.split(":", 1)[1]]
                total += inner.fixed_size(layout) * f.count
            else:
                raise ConfigurationError("bare bytes field needs a length")
        return total


class LayoutAnnotation:
    """A named bundle of struct definitions plus semantic bindings."""

    def __init__(self, name: str):
        self.name = name
        self.structs: Dict[str, StructDef] = {}
        self.bindings: Dict[str, Any] = {}

    def structure(self, name: str, fields: List[Field]) -> StructDef:
        if name in self.structs:
            raise ConfigurationError(f"duplicate struct {name}")
        struct_def = StructDef(name, fields)
        self.structs[name] = struct_def
        return struct_def

    def bind(self, key: str, value: Any) -> None:
        self.bindings[key] = value


class LayoutWalker:
    """Generic parser + path resolver compiled from an annotation."""

    def __init__(self, layout: LayoutAnnotation, read_block: Callable[[int, int], bytes]):
        self.layout = layout
        self.read_block = read_block
        self.blocks_read = 0
        self._superblock_cache: Optional[Dict[str, Any]] = None

    def _read(self, block: int, count: int = 1) -> bytes:
        self.blocks_read += count
        return self.read_block(block, count)

    # -- generic struct parsing ------------------------------------------------
    def parse_struct(self, name: str, raw: bytes, offset: int = 0) -> Tuple[Dict, int]:
        """Parse one struct instance; returns (fields dict, bytes consumed)."""
        struct_def = self.layout.structs.get(name)
        if struct_def is None:
            raise ConfigurationError(f"unknown struct {name}")
        out: Dict[str, Any] = {}
        at = offset
        for f in struct_def.fields:
            repeat = f.count
            if f.count_field is not None:
                repeat = out[f.count_field]
            values = []
            for _ in range(repeat):
                if f.kind in _SCALARS:
                    width = _SCALARS[f.kind]
                    values.append(int.from_bytes(raw[at : at + width], "little"))
                    at += width
                elif f.kind == "bytes":
                    length = out[f.length_field] if f.length_field else f.count
                    values.append(bytes(raw[at : at + length]))
                    at += length
                    break  # a bytes field is one value
                else:
                    inner_name = f.kind.split(":", 1)[1]
                    inner, consumed = self.parse_struct(inner_name, raw, at)
                    values.append(inner)
                    at += consumed
            out[f.name] = values[0] if (f.count == 1 and f.count_field is None) else values
        return out, at - offset

    # -- semantic resolution ---------------------------------------------------
    def superblock(self) -> Dict[str, Any]:
        if self._superblock_cache is not None:
            return self._superblock_cache
        block = self.layout.bindings.get("superblock_block", 0)
        raw = self._read(block, 1)
        parsed, __ = self.parse_struct(self.layout.bindings["superblock_struct"], raw)
        magic_field = self.layout.bindings.get("magic_field")
        if magic_field is not None:
            expected = self.layout.bindings["magic_value"]
            if parsed[magic_field] != expected:
                raise ProtocolError("superblock magic mismatch")
        self._superblock_cache = parsed
        return parsed

    def read_inode(self, inode: int) -> Dict[str, Any]:
        sb = self.superblock()
        inode_size = self.layout.structs[
            self.layout.bindings["inode_struct"]
        ].fixed_size(self.layout)
        per_block = BLOCK_SIZE // inode_size
        table_start = sb[self.layout.bindings["inode_table_start_field"]]
        block = table_start + inode // per_block
        offset = (inode % per_block) * inode_size
        raw = self._read(block, 1)
        parsed, __ = self.parse_struct(
            self.layout.bindings["inode_struct"], raw, offset
        )
        return parsed

    def _file_data(self, inode_fields: Dict[str, Any]) -> bytes:
        size = inode_fields[self.layout.bindings["size_field"]]
        if size == 0:
            return b""
        extents = inode_fields[self.layout.bindings["extents_field"]]
        count = inode_fields[self.layout.bindings["extent_count_field"]]
        parts = []
        for extent in extents[:count]:
            physical = extent[self.layout.bindings["extent_physical_field"]]
            length = extent[self.layout.bindings["extent_length_field"]]
            parts.append(self._read(physical, length))
        return b"".join(parts)[:size]

    def _parse_dir(self, data: bytes) -> Dict[str, int]:
        if not data:
            return {}
        header, consumed = self.parse_struct(
            self.layout.bindings["dir_header_struct"], data
        )
        entries: Dict[str, int] = {}
        at = consumed
        for _ in range(header[self.layout.bindings["dir_count_field"]]):
            entry, consumed = self.parse_struct(
                self.layout.bindings["dir_entry_struct"], data, at
            )
            at += consumed
            name = entry[self.layout.bindings["dir_name_field"]].decode()
            entries[name] = entry[self.layout.bindings["dir_inode_field"]]
        return entries

    def resolve_file(self, path: str) -> Tuple[int, List[Tuple[int, int]]]:
        """Chase a path to ``(size, [(physical_block, run_length), ...])``
        using only the annotations."""
        inode_number = self.layout.bindings.get("root_inode", 0)
        inode = self.read_inode(inode_number)
        components = [p for p in path.split("/") if p]
        for component in components:
            entries = self._parse_dir(self._file_data(inode))
            if component not in entries:
                raise FileNotFoundError(path)
            inode_number = entries[component]
            inode = self.read_inode(inode_number)
        size = inode[self.layout.bindings["size_field"]]
        count = inode[self.layout.bindings["extent_count_field"]]
        extents = inode[self.layout.bindings["extents_field"]][:count]
        physical = [
            (
                e[self.layout.bindings["extent_physical_field"]],
                e[self.layout.bindings["extent_length_field"]],
            )
            for e in extents
        ]
        return size, physical


def ext4_annotation() -> LayoutAnnotation:
    """The generated annotation for the HyperExt (ext4-like) layout.

    This mirrors what Spiffy derives from ext4 headers; note it is written
    against the *on-disk format*, independently of :mod:`repro.fs.ext4`.
    """
    layout = LayoutAnnotation("hyperext")
    layout.structure(
        "superblock",
        [
            Field("magic", "u32"),
            Field("blocks", "u32"),
            Field("inode_table_start", "u32"),
            Field("inode_table_blocks", "u32"),
            Field("data_start", "u32"),
        ],
    )
    layout.structure(
        "extent",
        [Field("logical", "u32"), Field("physical", "u32"), Field("length", "u32")],
    )
    layout.structure(
        "inode",
        [
            Field("mode", "u32"),
            Field("size", "u64"),
            Field("extent_count", "u32"),
            Field("extents", "struct:extent", count=4),
        ],
    )
    layout.structure("dir_header", [Field("count", "u32")])
    layout.structure(
        "dir_entry",
        [
            Field("name_len", "u16"),
            Field("name", "bytes", length_field="name_len"),
            Field("inode", "u32"),
        ],
    )
    layout.bind("superblock_block", 0)
    layout.bind("superblock_struct", "superblock")
    layout.bind("magic_field", "magic")
    layout.bind("magic_value", 0x48595045)
    layout.bind("inode_struct", "inode")
    layout.bind("inode_table_start_field", "inode_table_start")
    layout.bind("size_field", "size")
    layout.bind("extent_count_field", "extent_count")
    layout.bind("extents_field", "extents")
    layout.bind("extent_physical_field", "physical")
    layout.bind("extent_length_field", "length")
    layout.bind("dir_header_struct", "dir_header")
    layout.bind("dir_count_field", "count")
    layout.bind("dir_entry_struct", "dir_entry")
    layout.bind("dir_name_field", "name")
    layout.bind("dir_inode_field", "inode")
    layout.bind("root_inode", 0)
    return layout


def generate_walker_code(layout: LayoutAnnotation) -> str:
    """Emit C-like accessor code from the annotation (paper §2.3: "generate
    file system layout and metadata access codes (in C/C++)"). This text is
    what the eBPF/HDL toolchain would consume next."""
    lines = [f"/* generated accessors for layout '{layout.name}' */"]
    for struct_def in layout.structs.values():
        lines.append(f"struct {struct_def.name} {{")
        for f in struct_def.fields:
            if f.kind in _SCALARS:
                c_type = {"u8": "uint8_t", "u16": "uint16_t",
                          "u32": "uint32_t", "u64": "uint64_t"}[f.kind]
                suffix = f"[{f.count}]" if f.count > 1 else ""
                lines.append(f"    {c_type} {f.name}{suffix};")
            elif f.kind == "bytes":
                length = f.length_field or f.count
                lines.append(f"    uint8_t {f.name}[{length}];")
            else:
                inner = f.kind.split(":", 1)[1]
                suffix = f"[{f.count}]" if f.count > 1 else ""
                lines.append(f"    struct {inner} {f.name}{suffix};")
        lines.append("};")
        lines.append("")
    lines.append("uint64_t resolve_file(const char *path, extent_t *out) {")
    lines.append(f"    struct {layout.bindings['superblock_struct']} sb;")
    lines.append(f"    read_block({layout.bindings.get('superblock_block', 0)}, &sb);")
    lines.append("    /* walk directories per dir_entry annotation */")
    lines.append("    /* chase extents per inode annotation */")
    lines.append("    return inode.size;")
    lines.append("}")
    return "\n".join(lines)
