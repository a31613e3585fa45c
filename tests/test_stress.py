"""Stress and scale tests: many processes, many clients, big structures."""

import random

from repro.datastruct import BPlusTree, LsmTree
from repro.eval.report import Table
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sim import Resource, Simulator, Store
from repro.storage import KvSsd, KvSsdClient, KvSsdService
from repro.telemetry import MetricsRegistry
from repro.transport import RpcClient, RpcServer, UdpSocket


class TestSimulatorScale:
    def test_ten_thousand_processes(self):
        sim = Simulator()
        finished = [0]

        def worker(delay):
            yield sim.timeout(delay)
            finished[0] += 1

        rng = random.Random(1)
        for _ in range(10_000):
            sim.process(worker(rng.uniform(0, 1.0)))
        sim.run()
        assert finished[0] == 10_000

    def test_deep_process_chain(self):
        sim = Simulator()

        def link(depth):
            if depth == 0:
                yield sim.timeout(0)
                return 0
            value = yield sim.process(link(depth - 1))
            return value + 1

        assert sim.run_process(link(400)) == 400

    def test_resource_under_thundering_herd(self):
        sim = Simulator()
        lock = Resource(sim)
        order = []

        def contender(index):
            yield lock.request()
            order.append(index)
            yield sim.timeout(1e-6)
            lock.release()

        for index in range(500):
            sim.process(contender(index))
        sim.run()
        assert order == list(range(500))  # FIFO fairness at scale

    def test_store_pipeline_throughput(self):
        sim = Simulator()
        queue = Store(sim)
        consumed = []

        def producer():
            for i in range(2_000):
                yield queue.put(i)

        def consumer():
            for _ in range(2_000):
                item = yield queue.get()
                consumed.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert consumed == list(range(2_000))


class TestDataStructureScale:
    def test_bptree_ten_thousand_keys(self):
        tree = BPlusTree(order=32)
        keys = list(range(10_000))
        random.Random(5).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 2)
        assert tree.size == 10_000
        assert tree.height <= 4
        for key in (0, 4_999, 9_999):
            assert tree.get(key) == key * 2
        assert [key for key, __ in tree.items()] == sorted(keys)

    def test_lsm_many_generations(self):
        registry = MetricsRegistry()
        lsm = LsmTree(memtable_limit=50, l0_limit=3,
                      metrics=registry.scope("lsm"))
        rng = random.Random(7)
        reference = {}
        for i in range(3_000):
            key = f"k{rng.randrange(500):04d}".encode()
            value = f"v{i}".encode()
            lsm.put(key, value)
            reference[key] = value
        for key, value in list(reference.items())[:100]:
            assert lsm.get(key) == value
        assert registry.get("lsm.compactions").value > 5


class TestConcurrentKvClients:
    def test_many_clients_consistent(self):
        sim = Simulator()
        net = Network(sim)
        controller = NvmeController(sim, "kv")
        controller.add_namespace(Namespace(1, 262144))
        device = KvSsd(sim, controller, memtable_limit=100_000)
        KvSsdService(RpcServer(sim, UdpSocket(sim, net.endpoint("kv-dpu"))), device)
        clients = [
            KvSsdClient(
                RpcClient(sim, UdpSocket(sim, net.endpoint(f"c{i}"))), "kv-dpu"
            )
            for i in range(8)
        ]
        outcomes = {}

        def worker(index, stub):
            for i in range(25):
                key = f"client{index}:key{i}".encode()
                yield from stub.put(key, f"value-{index}-{i}".encode())
            value = yield from stub.get(f"client{index}:key0".encode())
            outcomes[index] = value

        for index, stub in enumerate(clients):
            sim.process(worker(index, stub))
        sim.run()
        assert len(outcomes) == 8
        for index, value in outcomes.items():
            assert value == f"value-{index}-0".encode()
        assert device.puts == 200


class TestReportRendering:
    def test_huge_and_tiny_floats(self):
        table = Table("edge", ["a"])
        table.add_row(123456.789)
        table.add_row(0.000123)
        text = table.render()
        assert "1.23e+05" in text
        assert "0.000123" in text

    def test_column_alignment_with_long_cells(self):
        table = Table("align", ["name", "value"])
        table.add_row("x", 1)
        table.add_row("a-very-long-row-name-indeed", 2)
        lines = table.render().splitlines()
        data_lines = lines[4:]
        positions = {line.rstrip()[-1] for line in data_lines}
        assert positions == {"1", "2"}
