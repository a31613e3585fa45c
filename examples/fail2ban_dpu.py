#!/usr/bin/env python3
"""fail2ban running standalone on a CPU-free DPU vs a conventional server.

The same eBPF ban filter — verified once — processes the same synthetic
attack trace on both systems (paper §2.4, workload 1). The DPU path is
NIC -> hardware pipeline -> NVMe log; the server path pays interrupts,
syscalls, copies, and interpreter jitter per packet.

Run: ``python examples/fail2ban_dpu.py``
"""

from repro.apps.fail2ban import (
    Fail2BanBaseline,
    Fail2BanDpu,
    build_fail2ban_program,
    generate_packet_trace,
)
from repro.baseline import CpuCentricDatapath, CpuModel, OsModel
from repro.common.units import format_time
from repro.dpu import HyperionDpu
from repro.ebpf import Verifier
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sim import Simulator

PACKETS = 2000
THRESHOLD = 3


def main() -> None:
    # One program, verified once, deployed twice.
    program = build_fail2ban_program(THRESHOLD)
    report = Verifier().verify(program)
    print(f"verifier: ok={report.ok}, "
          f"{report.states_explored} abstract states explored")

    trace = generate_packet_trace(PACKETS, seed=99)

    # --- Hyperion ---------------------------------------------------------
    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim), ssd_blocks=65536)
    sim.run_process(dpu.boot())
    app = Fail2BanDpu(sim, dpu, threshold=THRESHOLD)
    start = sim.now

    def dpu_run():
        for packet in trace:
            yield from app.process_packet(packet)
        yield from app.flush_log()

    sim.run_process(dpu_run())
    dpu_time = sim.now - start
    print(f"\nHyperion DPU: {PACKETS} packets in {format_time(dpu_time)} "
          f"({PACKETS / dpu_time / 1e6:.2f} Mpps)")
    print(f"  banned packets: {app.banned_packets}")
    print(f"  sources with failures: {len(app.banned_sources())}")
    print(f"  log blocks persisted on SSD: {app._log_lba}")

    # --- conventional server ----------------------------------------------
    sim = Simulator()
    cpu = CpuModel(sim)
    os_model = OsModel(sim, cpu)
    ssd = NvmeController(sim, "server-ssd")
    ssd.add_namespace(Namespace(1, 65536))
    baseline = Fail2BanBaseline(
        sim, CpuCentricDatapath(sim, cpu, os_model, ssd=ssd), threshold=THRESHOLD
    )
    start = sim.now

    def server_run():
        for packet in trace:
            yield from baseline.process_packet(packet)

    sim.run_process(server_run())
    server_time = sim.now - start
    print(f"\nCPU server:   {PACKETS} packets in {format_time(server_time)} "
          f"({PACKETS / server_time / 1e6:.2f} Mpps)")
    print(f"  banned packets: {baseline.banned_packets}")
    print(f"  syscalls: {os_model.syscalls}, interrupts: {os_model.interrupts}, "
          f"bytes copied: {os_model.bytes_copied}")

    assert app.banned_packets == baseline.banned_packets
    print(f"\nidentical verdicts; DPU is {server_time / dpu_time:.1f}x faster "
          f"end-to-end (no interrupts, no syscalls, no copies, no jitter)")


if __name__ == "__main__":
    main()
