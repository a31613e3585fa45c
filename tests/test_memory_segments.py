"""Tests for segment descriptors and the translation table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.ids import ObjectId
from repro.memory import Segment, SegmentLocation, SegmentTranslationTable


def seg(oid_value, size=64, location=SegmentLocation.DRAM, durable=False, bus=0):
    return Segment(ObjectId(oid_value), size, location, bus, durable=durable)


class TestSegment:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            seg(1, size=0)

    def test_invalid_bus_address(self):
        with pytest.raises(ValueError):
            Segment(ObjectId(1), 10, SegmentLocation.DRAM, -5)

    def test_record_roundtrip(self):
        original = seg(
            0xDEAD, size=12345, location=SegmentLocation.NVME, durable=True, bus=0x999
        )
        restored = Segment.from_record(original.to_record())
        assert restored.oid == original.oid
        assert restored.size == original.size
        assert restored.location == original.location
        assert restored.durable == original.durable
        assert restored.bus_address == original.bus_address

    def test_record_size_fixed(self):
        assert len(seg(7).to_record()) == Segment.RECORD_SIZE

    def test_bad_record_length(self):
        with pytest.raises(ValueError):
            Segment.from_record(b"\x00" * 39)


@given(
    oid=st.integers(min_value=0, max_value=(1 << 128) - 1),
    size=st.integers(min_value=1, max_value=1 << 60),
    bus=st.integers(min_value=0, max_value=1 << 60),
    location=st.sampled_from(list(SegmentLocation)),
    durable=st.booleans(),
)
def test_segment_record_roundtrip_property(oid, size, bus, location, durable):
    original = Segment(ObjectId(oid), size, location, bus, durable=durable)
    restored = Segment.from_record(original.to_record())
    assert (restored.oid, restored.size, restored.bus_address) == (
        original.oid,
        original.size,
        original.bus_address,
    )
    assert restored.location is location
    assert restored.durable is durable


class TestTranslationTable:
    def test_insert_lookup(self):
        table = SegmentTranslationTable()
        segment = seg(42)
        table.insert(segment)
        assert table.lookup(ObjectId(42)) is segment

    def test_duplicate_insert_rejected(self):
        table = SegmentTranslationTable()
        table.insert(seg(1))
        with pytest.raises(ConfigurationError):
            table.insert(seg(1))

    def test_missing_lookup(self):
        with pytest.raises(KeyError):
            SegmentTranslationTable().lookup(ObjectId(9))

    def test_durable_filter(self):
        table = SegmentTranslationTable()
        table.insert(seg(1, durable=True, location=SegmentLocation.NVME))
        table.insert(seg(2, durable=False))
        assert [s.oid.value for s in table.durable_segments()] == [1]

    def test_serialize_durable_only(self):
        table = SegmentTranslationTable()
        table.insert(seg(1, durable=True, location=SegmentLocation.NVME))
        table.insert(seg(2))
        restored = SegmentTranslationTable.deserialize(table.serialize())
        assert len(restored) == 1
        assert ObjectId(1) in restored

    def test_bad_magic(self):
        with pytest.raises(ConfigurationError):
            SegmentTranslationTable.deserialize(b"garbage!" + b"\x00" * 8)

    def test_truncated_image(self):
        table = SegmentTranslationTable()
        table.insert(seg(1, durable=True, location=SegmentLocation.NVME))
        image = table.serialize()
        with pytest.raises(ConfigurationError):
            SegmentTranslationTable.deserialize(image[:-10])

    def test_empty_table_roundtrip(self):
        restored = SegmentTranslationTable.deserialize(
            SegmentTranslationTable().serialize()
        )
        assert len(restored) == 0


@given(
    st.lists(
        st.integers(min_value=0, max_value=(1 << 128) - 1),
        unique=True,
        max_size=50,
    )
)
def test_table_roundtrip_property(oids):
    table = SegmentTranslationTable()
    for value in oids:
        table.insert(seg(value, durable=True, location=SegmentLocation.NVME))
    restored = SegmentTranslationTable.deserialize(table.serialize())
    assert {s.oid for s in restored} == {ObjectId(v) for v in oids}
