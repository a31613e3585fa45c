"""E2: disaggregated pointer chasing — client-side RTTs vs DPU offload.

Sweep tree depth (via key count) and link propagation delay; report lookup
latency and round trips for both paths. Expected shape: client-side
latency grows ~linearly with tree height (one RTT per level) while the
offloaded path stays at one RTT, so the win factor approaches the height;
as propagation -> 0 the two converge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.apps.pointer_chase import (
    RemoteTreeService,
    client_side_lookup,
    offloaded_lookup,
)
from repro.eval.report import HIGHER, LOWER, Metric, Table, violated
from repro.hw.net import Network
from repro.sim import Simulator
from repro.transport import RpcClient, RpcServer, UdpSocket

#: Random-key lookups timed per point, each way.
LOOKUPS = 20


@dataclass
class ChasePoint:
    """One E2 sweep point: both paths' latency at a tree size/link delay."""

    keys: int
    tree_height: int
    propagation: float
    client_side_latency: float
    client_side_rtts: int
    offload_latency: float

    @property
    def speedup(self) -> float:
        return self.client_side_latency / self.offload_latency


def metrics(points) -> Dict[str, Metric]:
    deepest = max(points, key=lambda p: (p.propagation, p.keys))
    return {
        "deepest_offload_latency_s": Metric(
            deepest.offload_latency, LOWER, "s"),
        "deepest_speedup": Metric(deepest.speedup, HIGHER, "x"),
        "mean_speedup": Metric(
            sum(p.speedup for p in points) / len(points), HIGHER, "x"),
    }


def accept(points) -> List[str]:
    # One depth sweep per link delay; delays and depths both ascend.
    sweeps = [[p for p in points if p.propagation == delay]
              for delay in sorted({p.propagation for p in points})]
    deepest = [sweep[-1].speedup for sweep in sweeps]
    return violated(
        (all(p.offload_latency < p.client_side_latency for p in points),
         "the one-RTT offload beats client-side chasing at every point"),
        (all(p.client_side_rtts == p.tree_height + 1 for p in points),
         "client-side chasing pays one RTT per tree level, plus one"),
        (all(sweep[-1].speedup > sweep[0].speedup for sweep in sweeps),
         "the offload win grows with tree depth at every link delay"),
        (deepest == sorted(deepest),
         "the offload win shrinks as the link gets faster"),
    )


def _measure(keys: int, propagation: float, seed: int = 2) -> ChasePoint:
    sim = Simulator()
    net = Network(sim, propagation=propagation)
    server = RpcServer(sim, UdpSocket(sim, net.endpoint("dpu")))
    service = RemoteTreeService(sim, server)
    service.populate(keys)
    client = RpcClient(sim, UdpSocket(sim, net.endpoint("client")))
    rng = random.Random(seed)
    targets = [rng.randrange(keys) for _ in range(LOOKUPS)]

    def timed(fn, key):
        start = sim.now

        def proc():
            __, rtts = yield from fn(client, "dpu", key)
            return sim.now - start, rtts

        return sim.run_process(proc())

    chase_total, offload_total = 0.0, 0.0
    chase_rtts = 0
    for key in targets:
        elapsed, rtts = timed(client_side_lookup, key)
        chase_total += elapsed
        chase_rtts = rtts
        elapsed, __ = timed(offloaded_lookup, key)
        offload_total += elapsed
    return ChasePoint(
        keys=keys,
        tree_height=service.tree.height,
        propagation=propagation,
        client_side_latency=chase_total / LOOKUPS,
        client_side_rtts=chase_rtts,
        offload_latency=offload_total / LOOKUPS,
    )


def run_pointer_chase(
    key_counts: List[int] = (16, 64, 256, 1024, 4096),
    propagations: List[float] = (1e-6, 10e-6, 50e-6),
    seed: int = 2,
) -> List[ChasePoint]:
    return [
        _measure(keys, propagation, seed=seed)
        for propagation in propagations
        for keys in key_counts
    ]


def format_pointer_chase(points: List[ChasePoint]) -> str:
    table = Table(
        "E2: B+ tree pointer chasing over the network "
        "(client-side RTT x depth vs 1-RTT DPU offload)",
        ["keys", "height", "one-way delay", "client-side",
         "RTTs", "offloaded", "speedup"],
    )
    for p in points:
        table.add_row(
            p.keys,
            p.tree_height,
            f"{p.propagation * 1e6:.0f} us",
            f"{p.client_side_latency * 1e6:.1f} us",
            p.client_side_rtts,
            f"{p.offload_latency * 1e6:.1f} us",
            f"{p.speedup:.1f}x",
        )
    return table.render()
