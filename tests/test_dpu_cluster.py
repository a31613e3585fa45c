"""Tests for multi-DPU clusters with client-driven routing (paper §2.4).

The plain routing pattern lives in :mod:`repro.sharding`; these cases
drive it through the single-key, uncached client path.
"""

from repro.hw.net import Network
from repro.sharding import ShardedKvClient, ShardedKvCluster
from repro.sim import Simulator


def make_cluster(sim, dpu_count=4):
    cluster = ShardedKvCluster(
        sim, Network(sim), dpu_count=dpu_count, ssd_blocks=8192
    )
    client = ShardedKvClient(sim, cluster, "app-client", cache=None)
    return cluster, client


def ops_per_dpu(cluster):
    return {
        address: device.gets + device.puts
        for address, device in cluster.devices.items()
    }


class TestRouting:
    def test_put_get_roundtrip(self):
        sim = Simulator()
        cluster, client = make_cluster(sim)

        def scenario():
            yield from client.put(b"user:42", b"alice")
            value = yield from client.get(b"user:42")
            return value

        assert sim.run_process(scenario()) == b"alice"

    def test_keys_spread_across_dpus(self):
        sim = Simulator()
        cluster, client = make_cluster(sim, dpu_count=4)

        def scenario():
            for i in range(200):
                yield from client.put(f"key-{i}".encode(), b"v")

        sim.run_process(scenario())
        per_dpu = ops_per_dpu(cluster)
        assert sum(per_dpu.values()) == 200
        # Every DPU got some share; hashing keeps the spread reasonable.
        assert all(count > 0 for count in per_dpu.values())
        assert cluster.balance() < 1.6

    def test_data_lands_only_on_owner(self):
        sim = Simulator()
        cluster, client = make_cluster(sim, dpu_count=3)

        def scenario():
            yield from client.put(b"solo", b"value")

        sim.run_process(scenario())
        owner = cluster.owner_of(b"solo")
        for address, device in cluster.devices.items():
            if address == owner:
                assert device.lsm.get(b"solo") == b"value"
            else:
                assert device.lsm.get(b"solo") is None

    def test_delete_routes_to_owner(self):
        sim = Simulator()
        cluster, client = make_cluster(sim)

        def scenario():
            yield from client.put(b"k", b"v")
            yield from client.delete(b"k")
            value = yield from client.get(b"k")
            return value

        assert sim.run_process(scenario()) is None

    def test_single_dpu_cluster(self):
        sim = Simulator()
        cluster, client = make_cluster(sim, dpu_count=1)

        def scenario():
            yield from client.put(b"k", b"v")
            value = yield from client.get(b"k")
            return value

        assert sim.run_process(scenario()) == b"v"

    def test_concurrent_clients(self):
        sim = Simulator()
        cluster = ShardedKvCluster(
            sim, Network(sim), dpu_count=2, ssd_blocks=8192
        )
        clients = [
            ShardedKvClient(sim, cluster, f"client-{i}", cache=None)
            for i in range(3)
        ]

        def worker(client, base):
            for i in range(20):
                yield from client.put(f"{base}-{i}".encode(), b"x")

        for index, client in enumerate(clients):
            sim.process(worker(client, f"c{index}"))
        sim.run()
        assert sum(ops_per_dpu(cluster).values()) == 60
