"""The Arrow-like in-memory columnar representation.

Data-in-motion (paper §2.1/§2.3): typed columns in contiguous arrays, with
the relational kernels (filter, project, aggregate) analytics pipelines
push down to the DPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.common.errors import ConfigurationError, ProtocolError

SUPPORTED_TYPES = ("int64", "float64", "string")


@dataclass(frozen=True)
class Schema:
    """Ordered (name, type) pairs."""

    fields: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        names = [name for name, __ in self.fields]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate column names")
        for name, kind in self.fields:
            if kind not in SUPPORTED_TYPES:
                raise ConfigurationError(f"unsupported type {kind!r} for {name}")

    @classmethod
    def of(cls, **kwargs: str) -> "Schema":
        return cls(tuple(kwargs.items()))

    @property
    def names(self) -> List[str]:
        return [name for name, __ in self.fields]

    def type_of(self, name: str) -> str:
        for field_name, kind in self.fields:
            if field_name == name:
                return kind
        raise KeyError(name)

    def select(self, names: Sequence[str]) -> "Schema":
        return Schema(tuple((n, self.type_of(n)) for n in names))


@dataclass
class Column:
    """One typed value vector."""

    name: str
    kind: str
    values: List[Any]

    def __post_init__(self) -> None:
        caster = {"int64": int, "float64": float, "string": str}[self.kind]
        self.values = [caster(v) for v in self.values]

    def __len__(self) -> int:
        return len(self.values)


class RecordBatch:
    """A set of equal-length columns conforming to a schema."""

    def __init__(self, schema: Schema, columns: Dict[str, List[Any]]):
        if set(columns) != set(schema.names):
            raise ConfigurationError("columns do not match schema")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise ProtocolError(f"ragged columns: lengths {sorted(lengths)}")
        self.schema = schema
        self.columns = {
            name: Column(name, schema.type_of(name), columns[name])
            for name in schema.names
        }

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> Column:
        if name not in self.columns:
            raise KeyError(name)
        return self.columns[name]

    def rows(self) -> Iterator[Tuple]:
        names = self.schema.names
        for index in range(len(self)):
            yield tuple(self.columns[name].values[index] for name in names)

    # -- kernels -----------------------------------------------------------
    def project(self, names: Sequence[str]) -> "RecordBatch":
        schema = self.schema.select(names)
        return RecordBatch(
            schema, {name: list(self.columns[name].values) for name in names}
        )

    def filter(self, predicate: Callable[[Dict[str, Any]], bool]) -> "RecordBatch":
        names = self.schema.names
        keep: List[int] = []
        for index in range(len(self)):
            row = {name: self.columns[name].values[index] for name in names}
            if predicate(row):
                keep.append(index)
        return RecordBatch(
            self.schema,
            {
                name: [self.columns[name].values[i] for i in keep]
                for name in names
            },
        )

    def aggregate(self, column: str, how: str = "sum") -> Any:
        values = self.column(column).values
        if how == "sum":
            return sum(values)
        if how == "min":
            return min(values)
        if how == "max":
            return max(values)
        if how == "count":
            return len(values)
        if how == "mean":
            return sum(values) / len(values) if values else 0.0
        raise ConfigurationError(f"unknown aggregate {how!r}")

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Sequence[Any]]) -> "RecordBatch":
        names = schema.names
        columns: Dict[str, List[Any]] = {name: [] for name in names}
        for row in rows:
            if len(row) != len(names):
                raise ProtocolError("row width does not match schema")
            for name, value in zip(names, row):
                columns[name].append(value)
        return cls(schema, columns)
