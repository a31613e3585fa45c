"""fail2ban on a CPU-free DPU (paper §2.4, first workload class).

"High data volume network middleware applications such as fail2Ban ...
have traffic-flow proportional states that either need to be persisted (in
case of fail2Ban that needs to log network traffic data persistently) ...
These network middleware applications can run in a pure, stand-alone mode
on Hyperion with attached SSDs."

The same verified eBPF program runs in two places:

* **DPU**: packets flow NIC -> compiled hardware pipeline -> NVMe log,
  with fixed pipeline latency and no OS costs;
* **baseline**: packets flow NIC -> interrupt -> syscall -> interpreter
  (with jitter) -> syscall -> block layer -> NVMe.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import List

from repro.baseline.datapath import CpuCentricDatapath
from repro.common.errors import ProtocolError
from repro.dpu.hyperion import HyperionDpu
from repro.ebpf.builder import ProgramBuilder
from repro.ebpf.helpers import HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE
from repro.ebpf.isa import Program
from repro.ebpf.maps import HashMap
from repro.ebpf.vm import BpfVm
from repro.hdl.engine import HardwarePipeline, compile_program
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode
from repro.sim import Simulator

#: Verdicts returned by the filter program.
VERDICT_BAN = 0
VERDICT_PASS = 1

BAN_MAP_FD = 1


@dataclass(frozen=True)
class PacketRecord:
    """One packet of the synthetic trace: context bytes + ground truth."""

    __slots__ = ("src_ip", "auth_failed", "size")  # no slots=True on 3.9
    src_ip: int
    auth_failed: bool
    size: int

    def context(self) -> bytes:
        return struct.pack("<IB", self.src_ip, 1 if self.auth_failed else 0)

    def __reduce__(self):  # pickle and copy rebuild it: frozen slots
        return PacketRecord, (self.src_ip, self.auth_failed, self.size)


def build_fail2ban_program(threshold: int = 3) -> Program:
    """The filter: count auth failures per source, ban above threshold.

    Context layout: ``src_ip u32 | auth_failed u8``. Map fd 1 is a hash of
    ``src_ip (4B, padded key) -> failure count (8B)``.
    """
    b = ProgramBuilder("fail2ban")
    b.load(4, "r6", "r1", 0)  # r6 = src_ip
    b.load(1, "r7", "r1", 4)  # r7 = auth_failed
    b.store(4, "r10", -8, "r6")  # key at [r10-8] (4B used, 4B padding)
    b.store(4, "r10", -4, 0)
    b.mov("r1", BAN_MAP_FD)
    b.mov("r2", "r10")
    b.add("r2", -8)
    b.call(HELPER_MAP_LOOKUP)
    b.jne("r0", 0, "found")
    # First sight of this source: insert its current failure count.
    b.store(8, "r10", -16, "r7")
    b.mov("r1", BAN_MAP_FD)
    b.mov("r2", "r10")
    b.add("r2", -8)
    b.mov("r3", "r10")
    b.add("r3", -16)
    b.mov("r4", 0)
    b.call(HELPER_MAP_UPDATE)
    b.mov("r0", VERDICT_PASS)
    b.exit()
    b.label("found")
    b.load(8, "r8", "r0", 0)  # current count
    b.add("r8", "r7")
    b.store(8, "r0", 0, "r8")  # write back through the map pointer
    b.jgt("r8", threshold, "ban")
    b.mov("r0", VERDICT_PASS)
    b.exit()
    b.label("ban")
    b.mov("r0", VERDICT_BAN)
    b.exit()
    return b.build()


#: Source addresses a generated trace draws from.
TRACE_SOURCES = 100
#: How often an attacker's packet fails authentication (a benign
#: source's fails 1% of the time).
ATTACK_INTENSITY = 0.9
#: The share of trace sources that attack.
ATTACKER_FRACTION = 0.1
#: Wire size of every generated packet.
TRACE_PACKET_SIZE = 512


def generate_packet_trace(packet_count: int, seed: int = 7) -> List[PacketRecord]:
    """A mixed trace: most sources are benign, attackers fail auth often."""
    rng = random.Random(seed)
    attackers = {
        ip for ip in range(TRACE_SOURCES) if rng.random() < ATTACKER_FRACTION
    }
    trace = []
    for _ in range(packet_count):
        src = rng.randrange(TRACE_SOURCES)
        if src in attackers:
            failed = rng.random() < ATTACK_INTENSITY
        else:
            failed = rng.random() < 0.01
        trace.append(
            PacketRecord(src_ip=src, auth_failed=failed, size=TRACE_PACKET_SIZE)
        )
    return trace


class Fail2BanDpu:
    """The standalone DPU deployment: inline pipeline + NVMe packet log."""

    def __init__(self, sim: Simulator, dpu: HyperionDpu, threshold: int = 3):
        dpu.require_booted()
        self.ban_map = HashMap(key_size=8, value_size=8, max_entries=65536)
        compiled = compile_program(build_fail2ban_program(threshold))
        self.pipeline = HardwarePipeline(
            sim, compiled, maps={BAN_MAP_FD: self.ban_map}
        )
        # Packet log on SSD 1 (SSD 0 carries the segment store). Records
        # buffer in on-fabric BRAM and flush to flash a block at a time.
        self._log_ssd = dpu.ssds[1 % len(dpu.ssds)]
        self._log_qp = self._log_ssd.create_queue_pair()
        self._log_lba = 0
        self._log_buffer = bytearray()
        self.banned_packets = 0

    def _write_log_block(self, data: bytes):
        """Process: one block to the next log LBA; a failed write raises."""
        # Reserve the LBA before submitting: callers overlap on the
        # II-pipelined port, and each flush must get its own block.
        lba = self._log_lba
        self._log_lba += 1
        completion = yield self._log_qp.submit(
            NvmeCommand(NvmeOpcode.WRITE, lba=lba, data=data)
        )
        if not completion.ok:
            raise ProtocolError(
                f"packet log write failed at LBA {lba}: {completion.status.name}"
            )

    def flush_log(self):
        """Process: force the partial log block to flash."""
        if self._log_buffer:
            yield from self._write_log_block(bytes(self._log_buffer))
            self._log_buffer = bytearray()

    def process_packet(self, packet: PacketRecord):
        """Process: NIC -> pipeline -> (persist log record) -> verdict."""
        context = packet.context()
        pipeline = self.pipeline
        result, when = pipeline.run(context, pipeline.sim.now)
        yield pipeline.sim.timeout_at(when)
        # The log record lands in BRAM; a full block goes to flash.
        self._log_buffer.extend(context.ljust(16, b"\x00"))
        if len(self._log_buffer) >= 4096:
            block = bytes(self._log_buffer[:4096])
            del self._log_buffer[:4096]
            yield from self._write_log_block(block)
        if result.return_value == VERDICT_BAN:
            self.banned_packets += 1
        return result.return_value

    def banned_sources(self) -> List[int]:
        sources = []
        for key, value in self.ban_map.items():
            (count,) = struct.unpack("<Q", value)
            if count > 0:
                sources.append(struct.unpack("<I", key[:4])[0])
        return sources


class Fail2BanBaseline:
    """The same filter on a conventional server's datapath."""

    def __init__(self, sim: Simulator, datapath: CpuCentricDatapath,
                 threshold: int = 3):
        self.datapath = datapath
        self.ban_map = HashMap(key_size=8, value_size=8, max_entries=65536)
        self.vm = BpfVm(build_fail2ban_program(threshold),
                        maps={BAN_MAP_FD: self.ban_map})
        self.banned_packets = 0

    def process_packet(self, packet: PacketRecord):
        """Process: the full CPU-centric path with persistence."""
        verdict = yield from self.datapath.process_packet(
            self.vm, packet.context().ljust(16, b"\x00")
        )
        if verdict == VERDICT_BAN:
            self.banned_packets += 1
        return verdict
