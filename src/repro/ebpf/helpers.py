"""Helper functions callable from eBPF programs (the CALL instruction).

Helper ids follow the kernel's numbering where one exists. Each helper
receives the VM and the five argument registers r1-r5 and returns the new
r0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ebpf.vm import BpfVm

Helper = Callable[["BpfVm", List[int]], int]

HELPER_MAP_LOOKUP = 1
HELPER_MAP_UPDATE = 2
HELPER_MAP_DELETE = 3
HELPER_KTIME_GET_NS = 5
HELPER_TRACE_PRINTK = 6
HELPER_GET_PRANDOM_U32 = 7


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


#: id -> helper: the default set every Hyperion execution environment
#: offers. The verifier rejects a CALL of any other id, and the compiled
#: code binds each helper by id.
HELPERS: Dict[int, Helper] = {
    HELPER_MAP_LOOKUP: _map_lookup,
    HELPER_MAP_UPDATE: _map_update,
    HELPER_MAP_DELETE: _map_delete,
    HELPER_KTIME_GET_NS: _ktime_get_ns,
    HELPER_TRACE_PRINTK: _trace_printk,
    HELPER_GET_PRANDOM_U32: _get_prandom_u32,
}
