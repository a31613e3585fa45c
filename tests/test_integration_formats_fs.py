"""Integration: columnar data on the file system via the annotation walker.

Paper §2.3's full sentence: "Hyperion can access and process data that is
stored in Arrow/Parquet format, on the F2FS/ext4 file system on NVMe
storage without any host-side, or client-side CPU involvement." This test
runs the format pipeline over the ext4-like layout through its walker.
"""

import pytest

from repro.formats import RecordBatch, Schema, read_table, write_table
from repro.fs import HyperExtFs, LayoutWalker, ext4_annotation
from repro.hw.nvme import Namespace
from tests.test_fs_spiffy import read_file


def dataset(rows=200):
    schema = Schema.of(id="int64", score="float64", tag="string")
    return write_table(
        RecordBatch.from_rows(
            schema, [(i, i * 0.1, ["a", "b"][i % 2]) for i in range(rows)]
        ),
        rows_per_group=64,
    )


class TestParquetOnExt4:
    def test_end_to_end(self):
        namespace = Namespace(1, 2048)
        fs = HyperExtFs.mkfs(namespace)
        fs.mkdir("/tables")
        raw = dataset()
        fs.create_file("/tables/t.parquet", raw)
        # The walker knows nothing about HyperExtFs; only the annotation.
        walker = LayoutWalker(ext4_annotation(), namespace.read_blocks)
        fetched = read_file(walker, "/tables/t.parquet")
        batch = read_table(fetched)
        assert batch.aggregate("score", "count") == 200
        assert batch.aggregate("score", "sum") == pytest.approx(
            sum(i * 0.1 for i in range(200))
        )
