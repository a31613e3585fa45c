"""E4: the L4 load balancer with DRAM->SSD state overflow (Tiara-style).

Ablation of §2.1's placement policies: ``overflow`` spills cold connection
state to the DPU's own SSDs, ``drop`` is the DRAM-only baseline. Expected
shape: overflow keeps broken connections at zero at the cost of occasional
flash-latency lookups; drop loses state and breaks returning flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.loadbalancer import LoadBalancer, generate_connections
from repro.dpu import HyperionDpu
from repro.eval.report import INFO, LOWER, Metric, Table, violated
from repro.hw.net import Network
from repro.sim import Simulator


@dataclass
class LbResult:
    """One E4 policy run: hit rates, broken connections, latency."""

    policy: str
    packets: int
    hot_hit_rate: float
    cold_hits: int
    broken_connections: int
    mean_latency: float
    flash_state_bytes: int


def metrics(results) -> Dict[str, Metric]:
    overflow = next(r for r in results if r.policy == "overflow")
    drop = next(r for r in results if r.policy == "drop")
    return {
        "overflow_mean_latency_s": Metric(overflow.mean_latency, LOWER, "s"),
        "overflow_broken_connections": Metric(
            overflow.broken_connections, LOWER, "conns"),
        "drop_broken_connections": Metric(
            drop.broken_connections, INFO, "conns"),
    }


def accept(results) -> List[str]:
    overflow, drop = results
    return violated(
        (overflow.broken_connections == 0,
         "overflow to SSD keeps every returning flow on its backend"),
        (drop.broken_connections > 0, "DRAM-only drop breaks flows"),
        (overflow.cold_hits > 0, "overflow serves cold hits from flash"),
        (overflow.mean_latency > drop.mean_latency,
         "correctness costs latency: overflow is slower on average"),
        (overflow.hot_hit_rate > 0.5,
         "the hot path dominates: most packets never touch flash"),
        (overflow.flash_state_bytes > 0 and drop.flash_state_bytes == 0,
         "the spilled state sits on the DPU's own SSD, and only there"),
    )


def _run_policy(policy: str, packet_count: int, flow_count: int,
                dram_entries: int, seed: int = 23) -> LbResult:
    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim), ssd_blocks=65536)
    sim.run_process(dpu.boot())
    lb = LoadBalancer(
        sim, dpu, dram_table_entries=dram_entries, policy=policy
    )
    trace = generate_connections(packet_count, flow_count=flow_count, seed=seed)
    started = sim.now

    def scenario():
        for packet in trace:
            yield from lb.handle_packet(packet)

    sim.run_process(scenario())
    elapsed = sim.now - started
    return LbResult(
        policy=policy,
        packets=lb.packets,
        hot_hit_rate=lb.hot_hits / lb.packets,
        cold_hits=lb.cold_hits,
        broken_connections=lb.broken_connections,
        mean_latency=elapsed / lb.packets,
        flash_state_bytes=lb.state_bytes_on_flash(),
    )


def run_loadbalancer(
    packet_count: int = 4000, flow_count: int = 600, dram_entries: int = 64,
    seed: int = 23,
) -> List[LbResult]:
    return [
        _run_policy("overflow", packet_count, flow_count, dram_entries, seed),
        _run_policy("drop", packet_count, flow_count, dram_entries, seed),
    ]


def format_loadbalancer(results: List[LbResult]) -> str:
    table = Table(
        "E4: stateful L4 load balancing, DRAM table overflow vs drop",
        ["policy", "packets", "hot hit rate", "cold hits",
         "broken conns", "mean latency", "state on flash"],
    )
    for r in results:
        table.add_row(
            r.policy, r.packets, f"{r.hot_hit_rate:.2f}", r.cold_hits,
            r.broken_connections, f"{r.mean_latency * 1e6:.2f} us",
            r.flash_state_bytes,
        )
    return table.render()
