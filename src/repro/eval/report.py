"""What every experiment report is made of: text tables for
``repro.eval``, directional metrics and digests for ``repro.bench``."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

LOWER = "lower"
HIGHER = "higher"
INFO = "info"


@dataclass(frozen=True)
class Metric:
    """One tracked number: its value, unit, and which direction is good."""

    value: float
    better: str = INFO
    unit: str = ""

    def payload(self) -> Dict[str, Any]:
        return {"value": self.value, "better": self.better, "unit": self.unit}


def violated(*claims: Tuple[bool, str]) -> List[str]:
    """The sentence of every ``(held, "claim")`` pair that did not hold:
    what an experiment's ``accept(report)`` returns."""
    return [claim for held, claim in claims if not held]


def digest(data) -> str:
    """The first 16 hex digits of the SHA-256 of *data* (str or bytes)."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


class Table:
    """A fixed-column text table."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([_render(value) for value in values])

    def render(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            column.ljust(widths[index]) for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)


def _render(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)
