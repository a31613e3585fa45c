"""Helper functions callable from eBPF programs (the CALL instruction).

Helper ids follow the kernel's numbering where one exists. Each helper
receives the VM and the five argument registers r1-r5 and returns the new
r0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

from repro.common.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ebpf.vm import BpfVm

Helper = Callable[["BpfVm", List[int]], int]

HELPER_MAP_LOOKUP = 1
HELPER_MAP_UPDATE = 2
HELPER_MAP_DELETE = 3
HELPER_KTIME_GET_NS = 5
HELPER_TRACE_PRINTK = 6
HELPER_GET_PRANDOM_U32 = 7


class HelperRegistry:
    """id -> helper function table, per execution environment.

    A CALL looks its helper up in ``table`` at the call, so a helper
    registered after a VM was built is callable; an id missing there is
    the "unknown helper" fault.
    """

    def __init__(self) -> None:
        self.table: Dict[int, Helper] = {}

    def register(self, helper_id: int, fn: Helper) -> None:
        if helper_id in self.table:
            raise ProtocolError(f"helper {helper_id} already registered")
        self.table[helper_id] = fn

    def known(self, helper_id: int) -> bool:
        return helper_id in self.table


def _map_lookup(vm: "BpfVm", args: List[int]) -> int:
    bpf_map = vm.map_by_fd(args[0])
    key = vm.read_memory(args[1], bpf_map.key_size)
    value = bpf_map.lookup(key)
    if value is None:
        return 0
    return vm.expose_buffer(value)


def _map_update(vm: "BpfVm", args: List[int]) -> int:
    bpf_map = vm.map_by_fd(args[0])
    key = vm.read_memory(args[1], bpf_map.key_size)
    value = vm.read_memory(args[2], bpf_map.value_size)
    bpf_map.update(key, value)
    return 0


def _map_delete(vm: "BpfVm", args: List[int]) -> int:
    bpf_map = vm.map_by_fd(args[0])
    key = vm.read_memory(args[1], bpf_map.key_size)
    return 0 if bpf_map.delete(key) else -1 & 0xFFFF_FFFF_FFFF_FFFF


def _ktime_get_ns(vm: "BpfVm", args: List[int]) -> int:
    return vm.clock_ns()


def _trace_printk(vm: "BpfVm", args: List[int]) -> int:
    vm.trace_log.append(tuple(args))
    return 0


def _get_prandom_u32(vm: "BpfVm", args: List[int]) -> int:
    return vm.rng.getrandbits(32)


def standard_helpers() -> HelperRegistry:
    """The default helper set every Hyperion execution environment offers."""
    registry = HelperRegistry()
    registry.register(HELPER_MAP_LOOKUP, _map_lookup)
    registry.register(HELPER_MAP_UPDATE, _map_update)
    registry.register(HELPER_MAP_DELETE, _map_delete)
    registry.register(HELPER_KTIME_GET_NS, _ktime_get_ns)
    registry.register(HELPER_TRACE_PRINTK, _trace_printk)
    registry.register(HELPER_GET_PRANDOM_U32, _get_prandom_u32)
    return registry
