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
from typing import Dict, List, Tuple

from repro.baseline.datapath import CpuCentricDatapath
from repro.common.errors import ProtocolError
from repro.dpu.hyperion import HyperionDpu
from repro.ebpf.asm import assemble
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


#: Bytes of one packet's record in the log, its context zero-padded.
LOG_RECORD_SIZE = 16

#: ``(src_ip, auth_failed) -> (context, record)``: the bytes are a pure
#: function of the two, and a trace repeats few sources, so its packets
#: share them (a pair per packet would grow a 32k-packet trace by 4 MiB).
_PACKED: Dict[Tuple[int, bool], Tuple[bytes, bytes]] = {}


@dataclass(frozen=True, init=False)
class PacketRecord:
    """One packet of the synthetic trace: context bytes + ground truth.

    The bytes are packed at construction, once per distinct source and
    outcome: :attr:`context` is what the filter reads (``src_ip u32 |
    auth_failed u8``), :attr:`record` the same zero-padded to
    :data:`LOG_RECORD_SIZE`, which the DPU logs and the baseline's
    datapath hands its VM.
    """

    # no slots=True on 3.9; context and record are derived, not fields
    __slots__ = ("src_ip", "auth_failed", "size", "context", "record")
    src_ip: int
    auth_failed: bool
    size: int

    def __init__(self, src_ip: int, auth_failed: bool, size: int):
        packed = _PACKED.get((src_ip, auth_failed))
        if packed is None:
            context = struct.pack("<IB", src_ip, 1 if auth_failed else 0)
            packed = _PACKED[src_ip, auth_failed] = (
                context, context.ljust(LOG_RECORD_SIZE, b"\x00"))
        assign = object.__setattr__  # frozen: past the dataclass's guard
        assign(self, "src_ip", src_ip)
        assign(self, "auth_failed", auth_failed)
        assign(self, "size", size)
        assign(self, "context", packed[0])
        assign(self, "record", packed[1])

    def __reduce__(self):  # pickle and copy rebuild it: frozen slots
        return PacketRecord, (self.src_ip, self.auth_failed, self.size)


def build_fail2ban_program(threshold: int = 3) -> Program:
    """The filter: count auth failures per source, ban above threshold.

    Context layout: ``src_ip u32 | auth_failed u8``. Map fd 1 is a hash of
    ``src_ip (4B, padded key) -> failure count (8B)``.
    """
    return assemble(f"""
        ldxw  r6, [r1+0]           ; r6 = src_ip
        ldxb  r7, [r1+4]           ; r7 = auth_failed
        stxw  [r10-8], r6          ; key at [r10-8] (4B used, 4B padding)
        stw   [r10-4], 0
        mov   r1, {BAN_MAP_FD}
        mov   r2, r10
        add   r2, -8
        call  {HELPER_MAP_LOOKUP}
        jne   r0, 0, found
        ; First sight of this source: insert its current failure count.
        stxdw [r10-16], r7
        mov   r1, {BAN_MAP_FD}
        mov   r2, r10
        add   r2, -8
        mov   r3, r10
        add   r3, -16
        mov   r4, 0
        call  {HELPER_MAP_UPDATE}
        mov   r0, {VERDICT_PASS}
        exit
    found:
        ldxdw r8, [r0+0]           ; current count
        add   r8, r7
        stxdw [r0+0], r8           ; write back through the map pointer
        jgt   r8, {threshold}, ban
        mov   r0, {VERDICT_PASS}
        exit
    ban:
        mov   r0, {VERDICT_BAN}
        exit
    """, name="fail2ban")


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
        pipeline = self.pipeline
        result, when = pipeline.run(packet.context, pipeline.sim.now)
        yield pipeline.sim.timeout_at(when)
        # The log record lands in BRAM; a full block goes to flash.
        self._log_buffer.extend(packet.record)
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
            self.vm, packet.record)
        if verdict == VERDICT_BAN:
            self.banned_packets += 1
        return verdict
