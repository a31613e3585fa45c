"""Extent trees: sorted logical-to-physical range maps.

The ext4-style file mapping structure: a file's logical byte ranges map to
physical block extents. The annotation-driven file-system walkers
(paper §2.3, Spiffy) resolve file reads through exactly this structure.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class Extent:
    """``[logical, logical + length)`` maps to ``physical`` (block units)."""

    logical: int
    physical: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigurationError("extent length must be positive")
        if self.logical < 0 or self.physical < 0:
            raise ConfigurationError("extent addresses must be non-negative")

    @property
    def logical_end(self) -> int:
        return self.logical + self.length

    def translate(self, logical_block: int) -> int:
        if not self.logical <= logical_block < self.logical_end:
            raise ConfigurationError("block outside extent")
        return self.physical + (logical_block - self.logical)


class ExtentTree:
    """Sorted, non-overlapping extents with binary-search lookup."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._extents: List[Extent] = []

    def __len__(self) -> int:
        return len(self._extents)

    def insert(self, extent: Extent) -> None:
        index = bisect.bisect_left(self._starts, extent.logical)
        if index > 0 and self._extents[index - 1].logical_end > extent.logical:
            raise ConfigurationError("extent overlaps its predecessor")
        if index < len(self._extents) and extent.logical_end > self._starts[index]:
            raise ConfigurationError("extent overlaps its successor")
        self._starts.insert(index, extent.logical)
        self._extents.insert(index, extent)

    def lookup(self, logical_block: int) -> Optional[Extent]:
        index = bisect.bisect_right(self._starts, logical_block) - 1
        if index < 0:
            return None
        extent = self._extents[index]
        if logical_block < extent.logical_end:
            return extent
        return None

    def translate_range(self, count: int) -> List[Tuple[int, int]]:
        """``(physical, run_length)`` pieces covering logical blocks
        ``[0, count)``."""
        pieces: List[Tuple[int, int]] = []
        remaining = count
        cursor = 0
        while remaining > 0:
            extent = self.lookup(cursor)
            if extent is None:
                raise KeyError(f"unmapped logical block {cursor}")
            run = min(remaining, extent.logical_end - cursor)
            pieces.append((extent.translate(cursor), run))
            cursor += run
            remaining -= run
        return pieces

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)
