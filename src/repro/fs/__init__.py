"""File systems and layout annotations (paper §2.3).

An ext4-like extent-based file system plus a Spiffy-style annotation
DSL. The annotation describes the layout declaratively; from it the
package *generates* a layout walker that resolves directories and files
to data blocks with no file-system code in the loop, which is exactly how
the DPU reads "Arrow/Parquet format, on the F2FS/ext4 file system on NVMe
storage without any host-side, or client-side CPU involvement".
"""

from repro.fs.ext4 import HyperExtFs
from repro.fs.spiffy import (
    Field,
    LayoutAnnotation,
    LayoutWalker,
    StructDef,
    ext4_annotation,
    generate_walker_code,
)

__all__ = [
    "HyperExtFs",
    "Field",
    "StructDef",
    "LayoutAnnotation",
    "LayoutWalker",
    "ext4_annotation",
    "generate_walker_code",
]
