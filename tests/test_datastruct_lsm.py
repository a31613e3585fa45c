"""Tests for the LSM tree and SSTables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.datastruct import LsmTree, SsTable
from repro.telemetry import MetricsRegistry


class TestSsTable:
    def test_sorted_required(self):
        with pytest.raises(ProtocolError):
            SsTable([(b"b", b"1"), (b"a", b"2")])

    def test_unique_keys_required(self):
        with pytest.raises(ProtocolError):
            SsTable([(b"a", b"1"), (b"a", b"2")])

    def test_get(self):
        table = SsTable([(b"a", b"1"), (b"b", b"2")])
        assert table.get(b"a") == b"1"
        assert table.get(b"zz") is None

    def test_serialize_roundtrip(self):
        table = SsTable([(b"alpha", b"one"), (b"beta", b"two")])
        restored = SsTable.deserialize(table.serialize())
        assert list(restored.items()) == list(table.items())

    def test_bad_image(self):
        with pytest.raises(ProtocolError):
            SsTable.deserialize(b"JUNK" + b"\x00" * 8)


class TestLsmBasics:
    def test_put_get(self):
        lsm = LsmTree()
        lsm.put(b"k", b"v")
        assert lsm.get(b"k") == b"v"

    def test_missing_key(self):
        assert LsmTree().get(b"nope") is None

    def test_overwrite_in_memtable(self):
        lsm = LsmTree()
        lsm.put(b"k", b"old")
        lsm.put(b"k", b"new")
        assert lsm.get(b"k") == b"new"

    def test_delete(self):
        lsm = LsmTree()
        lsm.put(b"k", b"v")
        lsm.delete(b"k")
        assert lsm.get(b"k") is None

    def test_flush_preserves_reads(self):
        lsm = LsmTree(memtable_limit=1000)
        for i in range(100):
            lsm.put(f"key{i:03d}".encode(), f"val{i}".encode())
        lsm.flush()
        assert lsm.get(b"key050") == b"val50"
        assert lsm.flushes == 1

    def test_auto_flush_at_limit(self):
        lsm = LsmTree(memtable_limit=10)
        for i in range(25):
            lsm.put(f"k{i:02d}".encode(), b"v")
        assert lsm.flushes >= 2


class TestShadowingAndCompaction:
    def test_newer_value_wins_across_levels(self):
        lsm = LsmTree(memtable_limit=1000)
        lsm.put(b"k", b"v1")
        lsm.flush()
        lsm.put(b"k", b"v2")
        lsm.flush()
        assert lsm.get(b"k") == b"v2"

    def test_delete_shadows_flushed_value(self):
        lsm = LsmTree(memtable_limit=1000)
        lsm.put(b"k", b"v")
        lsm.flush()
        lsm.delete(b"k")
        assert lsm.get(b"k") is None

    def test_compaction_merges_and_drops_tombstones(self):
        registry = MetricsRegistry()
        lsm = LsmTree(memtable_limit=1000, l0_limit=2,
                      metrics=registry.scope("lsm"))
        lsm.put(b"a", b"1")
        lsm.flush()
        lsm.put(b"b", b"2")
        lsm.delete(b"a")
        lsm.flush()
        lsm.put(b"c", b"3")
        lsm.flush()  # exceeds l0_limit -> compacts
        assert registry.get("lsm.compactions").value == 1
        assert lsm.l0 == []
        assert lsm.get(b"a") is None
        assert lsm.get(b"b") == b"2"
        assert lsm.get(b"c") == b"3"

    def test_search_cost_grows_with_runs(self):
        lsm = LsmTree(memtable_limit=1000, l0_limit=100)
        lsm.put(b"deep", b"v")
        lsm.flush()
        for i in range(3):
            lsm.put(f"filler{i}".encode(), b"x")
            lsm.flush()
        # 'deep' now sits under several newer runs.
        assert lsm.search_cost(b"deep") >= 4

    def test_items_sorted_and_deduped(self):
        lsm = LsmTree(memtable_limit=1000)
        lsm.put(b"b", b"2")
        lsm.put(b"a", b"1")
        lsm.flush()
        lsm.put(b"a", b"1-new")
        assert list(lsm.items()) == [(b"a", b"1-new"), (b"b", b"2")]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=8),
            st.one_of(st.binary(min_size=1, max_size=8), st.none()),
        ),
        max_size=200,
    )
)
def test_lsm_matches_dict(operations):
    lsm = LsmTree(memtable_limit=16, l0_limit=3)
    reference = {}
    for key, value in operations:
        if value is None:
            lsm.delete(key)
            reference.pop(key, None)
        else:
            lsm.put(key, value)
            reference[key] = value
    for key, value in reference.items():
        assert lsm.get(key) == value
    assert dict(lsm.items()) == reference
