"""Tests for the columnar in-memory format and HyperParquet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, ProtocolError
from repro.formats import (
    RecordBatch,
    Schema,
    read_footer,
    read_table,
    write_table,
)


def sample_schema():
    return Schema.of(id="int64", price="float64", city="string")


def sample_batch(rows=100):
    return RecordBatch.from_rows(
        sample_schema(),
        [(i, i * 1.5, ["ams", "nyc", "tok"][i % 3]) for i in range(rows)],
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Schema((("a", "int64"), ("a", "string")))

    def test_unsupported_type(self):
        with pytest.raises(ConfigurationError):
            Schema.of(x="decimal")

    def test_select(self):
        schema = sample_schema().select(["city", "id"])
        assert schema.names == ["city", "id"]


class TestRecordBatch:
    def test_from_rows_and_rows(self):
        batch = sample_batch(3)
        assert list(batch.rows()) == [
            (0, 0.0, "ams"),
            (1, 1.5, "nyc"),
            (2, 3.0, "tok"),
        ]

    def test_ragged_rejected(self):
        with pytest.raises(ProtocolError):
            RecordBatch(Schema.of(a="int64", b="int64"), {"a": [1], "b": [1, 2]})

    def test_project(self):
        batch = sample_batch(5)
        projected = RecordBatch(batch.schema.select(["id"]),
                                {"id": list(batch.column("id").values)})
        assert projected.schema.names == ["id"]
        assert projected.column("id").values == [0, 1, 2, 3, 4]

    def test_filter(self):
        filtered = sample_batch(10).filter(lambda row: row["id"] >= 8)
        assert len(filtered) == 2

    def test_aggregates(self):
        batch = sample_batch(4)
        assert batch.aggregate("id", "sum") == 6
        assert batch.aggregate("id", "min") == 0
        assert batch.aggregate("id", "max") == 3
        assert batch.aggregate("id", "count") == 4
        assert batch.aggregate("id", "mean") == 1.5

    def test_type_coercion(self):
        batch = RecordBatch(Schema.of(x="float64"), {"x": [1, 2]})
        assert batch.column("x").values == [1.0, 2.0]


class TestParquet:
    def test_roundtrip(self):
        batch = sample_batch(100)
        raw = write_table(batch, rows_per_group=30)
        restored = read_table(raw)
        assert list(restored.rows()) == list(batch.rows())

    def test_footer(self):
        raw = write_table(sample_batch(100), rows_per_group=30)
        footer = read_footer(raw)
        assert sum(group.row_count for group in footer.row_groups) == 100
        assert len(footer.row_groups) == 4  # 30+30+30+10

    def test_not_parquet(self):
        with pytest.raises(ProtocolError):
            read_footer(b"random bytes")

    def test_empty_table(self):
        raw = write_table(sample_batch(0))
        assert len(read_table(raw)) == 0

    def test_string_dictionary_roundtrip(self):
        schema = Schema.of(word="string")
        batch = RecordBatch(
            schema, {"word": ["alpha", "beta", "alpha", "gamma", "beta"]}
        )
        restored = read_table(write_table(batch))
        assert restored.column("word").values == batch.column("word").values


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=8),
        ),
        max_size=120,
    ),
    group_size=st.integers(min_value=1, max_value=50),
)
def test_parquet_roundtrip_property(rows, group_size):
    schema = Schema.of(a="int64", b="float64", c="string")
    batch = RecordBatch.from_rows(schema, rows)
    restored = read_table(write_table(batch, rows_per_group=group_size))
    assert list(restored.rows()) == list(batch.rows())
