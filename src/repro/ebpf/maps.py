"""eBPF maps: the state shared between programs and the outside world.

Maps are how eBPF programs keep "traffic-flow proportional state" (paper
§2.4, fail2ban/load-balancer workloads): the program updates them per
packet, and the control plane reads them out.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.common.errors import CapacityError, ProtocolError


class HashMap:
    """BPF_MAP_TYPE_HASH: fixed-size keys and values, bounded entry count."""

    def __init__(self, key_size: int, value_size: int, max_entries: int = 1024):
        if key_size < 1 or value_size < 1 or max_entries < 1:
            raise ProtocolError("map dimensions must be positive")
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        self._entries: Dict[bytes, bytearray] = {}
        self.find = self._entries.get  # lookup of a key_size-byte bytes key

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise ProtocolError(
                f"key is {len(key)} bytes, map expects {self.key_size}"
            )

    def _check_value(self, value: bytes) -> None:
        if len(value) != self.value_size:
            raise ProtocolError(
                f"value is {len(value)} bytes, map expects {self.value_size}"
            )

    def lookup(self, key: bytes) -> Optional[bytearray]:
        if len(key) != self.key_size:
            self._check_key(key)  # raises
        return self._entries.get(bytes(key))

    def update(self, key: bytes, value: bytes) -> None:
        self._check_key(key)
        self._check_value(value)
        key = bytes(key)
        if key not in self._entries and len(self._entries) >= self.max_entries:
            raise CapacityError("map full")
        self._entries[key] = bytearray(value)

    def delete(self, key: bytes) -> bool:
        self._check_key(key)
        return self._entries.pop(bytes(key), None) is not None

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for key, value in self._entries.items():
            yield key, bytes(value)

    def __len__(self) -> int:
        return len(self._entries)
