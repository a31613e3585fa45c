#!/usr/bin/env python3
"""Multi-tenant Hyperion: the §4(4) cloud questions, made concrete.

Three tenants share one DPU:

1. each compiles its own eBPF program and has it *signed* by the fleet
   authority — the OS-shell rejects anything unsigned or unencrypted;
2. the slot scheduler multiplexes the reconfigurable slots through the
   ICAP (10-100 ms timescales);
3. the weighted AXIS arbiter gives the premium tenant a 3x bandwidth
   share, so a noisy neighbour cannot starve it.

Run: ``python examples/multi_tenant_cloud.py``
"""

from repro.common.units import format_time
from repro.dpu import HyperionDpu, OsShell, SlotScheduler
from repro.ebpf import assemble
from repro.hdl import compile_program
from repro.hw.fpga.arbiter import WeightedAxisArbiter
from repro.hw.fpga.bitstream import BitstreamAuthority
from repro.hw.net import Network
from repro.sim import Simulator
from repro.transport import RpcClient, RpcServer, UdpSocket

TENANT_PROGRAMS = {
    "tenant-red": "ldxw r3, [r1+0]\nmov r0, r3\nadd r0, 1\nexit",
    "tenant-blue": "ldxw r3, [r1+0]\nmov r0, r3\nmul r0, 2\nexit",
    "tenant-green": "mov r0, 7\nexit",
}


def main() -> None:
    sim = Simulator()
    net = Network(sim)
    dpu = HyperionDpu(sim, net, num_slots=2, ssd_blocks=8192)
    sim.run_process(dpu.boot())

    # --- authorized bitstream loading over the network ----------------------
    authority = BitstreamAuthority(b"fleet-signing-key")
    shell = OsShell(
        dpu, RpcServer(sim, UdpSocket(sim, net.endpoint("shell"))), authority
    )
    operator = RpcClient(sim, UdpSocket(sim, net.endpoint("operator")))

    def load(tenant, signed):
        slot = yield from operator.call(
            "shell", "shell.load", signed, tenant,
            request_size=signed.bitstream.size_bytes, response_size=16,
        )
        return slot

    print("loading signed tenant bitstreams (2 slots, 3 tenants):")
    signed_images = {}
    for tenant, source in TENANT_PROGRAMS.items():
        compiled = compile_program(assemble(source, name=tenant))
        signed_images[tenant] = authority.sign(compiled.to_bitstream())
    for tenant in ("tenant-red", "tenant-blue"):
        slot = sim.run_process(load(tenant, signed_images[tenant]))
        print(f"  {tenant} -> slot {slot}")

    # The third tenant must wait: no free slots.
    try:
        sim.run_process(load("tenant-green", signed_images["tenant-green"]))
    except Exception as exc:
        print(f"  tenant-green rejected while full: {exc}")

    # An unsigned image is refused regardless of capacity.
    rogue = BitstreamAuthority(b"stolen-key").sign(
        signed_images["tenant-green"].bitstream
    )
    try:
        sim.run_process(load("mallory", rogue))
    except Exception as exc:
        print(f"  mallory's forged signature rejected: {exc}")
    print(f"shell stats: {shell.loads_accepted} accepted, "
          f"{shell.loads_rejected} rejected")

    # --- slot multiplexing through the scheduler ----------------------------
    print("\ntime-multiplexing the slots (ICAP partial reconfiguration):")
    scheduler = SlotScheduler(sim, dpu.fabric, dpu.icap)
    # Free one slot and let tenant-green in through the scheduler.
    dpu.fabric.slot_for("tenant-red").unload()
    request = scheduler.submit(
        "tenant-green", signed_images["tenant-green"].bitstream
    )
    sim.run()
    print(f"  tenant-green granted slot {request.slot_index} after "
          f"{format_time(request.wait_time)} (band: 10-100 ms)")

    # --- microarchitectural isolation on the interconnect -------------------
    print("\nweighted AXIS arbitration under contention (premium weight 3):")
    arbiter = WeightedAxisArbiter(sim)
    arbiter.register_tenant("premium", weight=3)
    arbiter.register_tenant("basic", weight=1)
    finish = {}

    def stream(tenant, size):
        yield from arbiter.transfer(tenant, size)
        finish[tenant] = sim.now

    start = sim.now
    sim.process(stream("premium", 30_000_000))
    sim.process(stream("basic", 10_000_000))
    sim.run()
    for tenant in ("premium", "basic"):
        share = arbiter.share_of(tenant)
        print(f"  {tenant:<8} moved {arbiter.bytes_served[tenant]:>11,} B "
              f"({share:.0%} share) in {format_time(finish[tenant] - start)}")
    print("  3:1 demand at 3:1 weights -> both finish together, by design")


if __name__ == "__main__":
    main()
