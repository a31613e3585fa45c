"""Tests for the HyperExt (ext4-like) file system."""

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.fs import HyperExtFs
from repro.hw.nvme import Namespace


def make_fs(blocks=1024):
    return HyperExtFs.mkfs(Namespace(1, blocks))


class TestMkfs:
    def test_superblock(self):
        fs = make_fs()
        sb = fs.superblock()
        assert sb["magic"] == 0x48595045
        assert sb["data_start"] == 5

    def test_mount_rejects_garbage(self):
        namespace = Namespace(1, 64)
        fs = HyperExtFs(namespace)
        with pytest.raises(ProtocolError):
            fs.superblock()

    def test_too_small(self):
        with pytest.raises(Exception):
            HyperExtFs.mkfs(Namespace(1, 2))


class TestFiles:
    def test_create_and_read(self):
        fs = make_fs()
        fs.create_file("/hello.txt", b"hello world")
        assert fs.read_file("/hello.txt") == b"hello world"

    def test_multi_block_file(self):
        fs = make_fs()
        data = bytes(range(256)) * 64  # 16 KiB
        fs.create_file("/big.bin", data)
        assert fs.read_file("/big.bin") == data

    def test_empty_file(self):
        fs = make_fs()
        fs.create_file("/empty", b"")
        assert fs.read_file("/empty") == b""

    def test_missing_file(self):
        fs = make_fs()
        with pytest.raises(FileNotFoundError):
            fs.read_file("/ghost")

    def test_duplicate_rejected(self):
        fs = make_fs()
        fs.create_file("/a", b"1")
        with pytest.raises(ConfigurationError):
            fs.create_file("/a", b"2")

    def test_several_files_isolated(self):
        fs = make_fs()
        for i in range(10):
            fs.create_file(f"/file{i}", f"content-{i}".encode())
        for i in range(10):
            assert fs.read_file(f"/file{i}") == f"content-{i}".encode()

    def test_file_extents_physical(self):
        fs = make_fs()
        fs.create_file("/data", b"x" * 10_000)
        extents = fs.file_extents("/data")
        assert sum(e.length for e in extents) == 3  # ceil(10000/4096)
        assert all(e.physical >= fs.superblock()["data_start"] for e in extents)


class TestDirectories:
    def test_mkdir_and_nested_files(self):
        fs = make_fs()
        fs.mkdir("/data")
        fs.mkdir("/data/warehouse")
        fs.create_file("/data/warehouse/table.parquet", b"columns")
        assert fs.read_file("/data/warehouse/table.parquet") == b"columns"

    def test_read_dir_as_file_fails(self):
        fs = make_fs()
        fs.mkdir("/d")
        with pytest.raises(ProtocolError):
            fs.read_file("/d")

    def test_missing_parent(self):
        fs = make_fs()
        with pytest.raises(FileNotFoundError):
            fs.create_file("/no/such/file", b"")

    def test_lookup_root(self):
        fs = make_fs()
        assert fs.lookup("/") == 0

    def test_persistence_across_remount(self):
        namespace = Namespace(1, 1024)
        fs = HyperExtFs.mkfs(namespace)
        fs.create_file("/persisted", b"still here")
        remounted = HyperExtFs(namespace)  # no mkfs: read from disk
        assert remounted.read_file("/persisted") == b"still here"
