#!/usr/bin/env python3
"""Disaggregated pointer chasing: the paper's §2.4 latency argument, live.

A B+ tree lives on a network-attached Hyperion DPU. A client looks keys up
two ways:

* chasing node pointers itself — one network round trip per tree level;
* shipping the lookup to the DPU — one round trip total.

The script sweeps the tree size and prints the latency of both paths, plus
the LSM variant of the same argument (one round per run consulted).

Run: ``python examples/pointer_chasing.py``
"""

from repro.apps.pointer_chase import (
    RemoteTreeService,
    client_side_lookup,
    offloaded_lookup,
)
from repro.common.units import format_time
from repro.datastruct import LsmTree
from repro.hw.net import Network
from repro.sim import Simulator
from repro.transport import RpcClient, RpcServer, UdpSocket


def measure(keys: int, propagation: float):
    sim = Simulator()
    net = Network(sim, propagation=propagation)
    service = RemoteTreeService(
        sim, RpcServer(sim, UdpSocket(sim, net.endpoint("dpu")))
    )
    service.populate(keys)
    client = RpcClient(sim, UdpSocket(sim, net.endpoint("client")))
    key = keys // 2

    def timed(fn):
        start = sim.now

        def proc():
            value, rtts = yield from fn(client, "dpu", key)
            assert value == f"value-{key}"
            return sim.now - start, rtts

        return sim.run_process(proc())

    chase_time, chase_rtts = timed(client_side_lookup)
    offload_time, __ = timed(offloaded_lookup)
    return service.tree.height, chase_time, chase_rtts, offload_time


def main() -> None:
    print("B+ tree lookups over a 10 us (one-way) datacenter network:")
    print(f"{'keys':>8}  {'height':>6}  {'client-side':>12}  {'RTTs':>4}  "
          f"{'offloaded':>10}  {'speedup':>7}")
    for keys in (16, 128, 1024, 8192):
        height, chase, rtts, offload = measure(keys, propagation=10e-6)
        print(f"{keys:>8}  {height:>6}  {format_time(chase):>12}  {rtts:>4}  "
              f"{format_time(offload):>10}  {chase / offload:>6.1f}x")

    print()
    print("The same effect on an LSM tree (one round per run consulted):")
    lsm = LsmTree(memtable_limit=1000, l0_limit=100)
    lsm.put(b"old-key", b"buried")
    lsm.flush()
    for i in range(4):
        lsm.put(f"newer-{i}".encode(), b"x")
        lsm.flush()
    runs = 1 + lsm.probe(b"old-key")[0]  # the memtable is consulted too
    one_rtt = 2 * 10e-6
    print(f"  'old-key' sits under {runs} runs -> "
          f"{format_time(runs * one_rtt)} client-side vs "
          f"{format_time(one_rtt)} offloaded")


if __name__ == "__main__":
    main()
