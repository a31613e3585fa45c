"""Every counting substrate reports to the registry under a live Sampler.

Each owner (store, LSM tree, failover client, link, port, KV-SSD) holds
its registry counters directly; what it reports and the registry path
must agree while a sampler is watching the same registry — sampling is
read-only and must never perturb (or lag) them.
(File and test names predate the ``*Stats`` facades' removal; kept so
test ids stay stable.)
"""

import pytest

from repro.datastruct.lsm import LsmTree
from repro.dpu.cluster import FailoverKvClient, ReplicatedDpuKvCluster
from repro.hw.fpga.fabric import MemoryBank
from repro.hw.net import Frame, Network
from repro.hw.nvme import Namespace, NvmeController
from repro.memory import DramBackend, NvmeBackend, SingleLevelStore
from repro.sharding import ShardedKvClient, ShardedKvCluster
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry, Sampler

from tests.capture import arrivals
from tests.manual_clock import ManualClock


def make_store(dram_capacity=1 << 16):
    sim = Simulator()
    dram = DramBackend(
        sim, MemoryBank("ddr4-0", dram_capacity, 19.2e9, 80e-9), dram_capacity
    )
    controller = NvmeController(sim, "store-ssd")
    controller.add_namespace(Namespace(1, 4096))
    qp = controller.create_queue_pair()
    return sim, SingleLevelStore(sim, dram, NvmeBackend(controller, qp))


def _sampled(registry, clock, *prefixes):
    sampler = Sampler(registry, clock)
    for prefix in prefixes:
        sampler.watch_prefix(prefix)
    return sampler


class TestScopeBackedFacades:
    """Owners holding live counters: drive, sample, compare."""

    def test_store_stats(self):
        sim, store = make_store()
        reg = sim.telemetry
        sampler = _sampled(reg, sim, "memory.store")
        segments = [store.allocate(64), store.allocate(64)]
        store.write(segments[0].oid, b"x" * 64)
        for __ in range(3):
            store.read(segments[0].oid, 8)
        sampler.sample()
        assert reg.counter("memory.store.allocations").value == 2
        assert reg.counter("memory.store.writes").value == 1
        assert sampler.series("memory.store.reads").last[1] == 3.0
        store.read(segments[1].oid, 8)  # counting continues after sampling
        assert reg.counter("memory.store.reads").value == 4

    def test_lsm_stats(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        sampler = _sampled(reg, clock, "lsm")
        tree = LsmTree(memtable_limit=4, metrics=reg.scope("lsm"))
        for index in range(24):
            tree.put(f"k{index:02d}".encode(), b"v")
        clock.advance(1e-3)
        sampler.sample()
        assert tree.flushes == reg.counter("lsm.flushes").value > 0
        assert reg.counter("lsm.compactions").value > 0
        assert reg.counter("lsm.bytes_compacted").value > 0
        assert sampler.series("lsm.flushes").last[1] == float(tree.flushes)

    def test_failover_stats(self):
        sim = Simulator()
        network = Network(sim)
        cluster = ReplicatedDpuKvCluster(
            sim, network, dpu_count=3, replication=2
        )
        client = FailoverKvClient(sim, network, "c", cluster)
        sampler = _sampled(sim.telemetry, sim, "dpu.failover.c")
        keys = [f"k{i}".encode() for i in range(12)]

        def scenario():
            for key in keys:
                yield from client.put(key, b"v")
            network.switch.blackhole("kv-dpu-1")
            for key in keys:
                yield from client.get(key)
            sampler.sample()

        sim.run_process(scenario())
        reg = sim.telemetry
        assert reg.counter("dpu.failover.c.reads").value == len(keys)
        assert client.failovers == \
            reg.counter("dpu.failover.c.failovers").value >= 1
        # The health map's down count is a gauge the sampler sees.
        assert reg.gauge("dpu.failover.c.marked_down").value == 1
        assert sampler.series("dpu.failover.c.marked_down").last[1] == 1.0


class TestSnapshotFacades:
    """Counters reached through their real subsystems with a sampler
    running alongside."""

    def test_link_and_port_stats(self):
        sim = Simulator()
        sampler = _sampled(sim.telemetry, sim, "net")
        network = Network(sim)
        a = network.endpoint("a")
        seen = arrivals(sim, network.endpoint("b"))

        def send():
            for __ in range(3):
                yield a.send(Frame("a", "b", None, payload_size=100))
            sampler.sample()

        sim.run_process(send())
        assert sim.telemetry.counter("net.link.a.up.frames_sent").value == 3
        assert sim.telemetry.counter("net.link.a.up.bytes_sent").value == 3 * 138
        assert sim.telemetry.counter("net.port.a.tx_frames").value == 3
        sent = sampler.series("net.link.a.up.frames_sent")
        assert sent is not None and sent.last[1] == 3.0
        assert len(seen) == 3

    def test_cluster_stats(self):
        sim = Simulator()
        sampler = _sampled(sim.telemetry, sim, "kvssd")
        network = Network(sim)
        cluster = ShardedKvCluster(sim, network, dpu_count=2, ssd_blocks=4096)
        client = ShardedKvClient(sim, cluster, "host", cache=None)

        def workload():
            for index in range(6):
                key = f"key:{index}".encode()
                yield from client.put(key, b"v")
                value = yield from client.get(key)
                assert value == b"v"
            sampler.sample()

        sim.run_process(workload())
        registry_total = sum(
            sim.telemetry.counter(f"kvssd.{address}-flash.{op}").value
            for address in cluster.addresses
            for op in ("gets", "puts")
        )
        assert registry_total == client.ops == 12
        sampled_total = sum(
            sampler.series(name).last[1]
            for name in sampler.names()
            if name.endswith(".gets") or name.endswith(".puts")
        )
        assert sampled_total == pytest.approx(float(registry_total))
