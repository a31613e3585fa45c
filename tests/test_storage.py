"""Tests for the KV-SSD and the Corfu shared log."""

import gc
import tracemalloc

import pytest

from repro.common.errors import ProtocolError
from tests.sstable_reference import parse_sstable
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sim import Simulator
from repro.storage import (
    CorfuClient,
    CorfuLogUnit,
    CorfuSequencer,
    KvSsd,
    KvSsdClient,
    KvSsdService,
)
from repro.transport import RpcClient, RpcServer, UdpSocket


def make_rpc(sim, net, name):
    return RpcServer(sim, UdpSocket(sim, net.endpoint(name)))


def make_client(sim, net, name):
    return RpcClient(sim, UdpSocket(sim, net.endpoint(name)))


def make_controller(sim, name="ssd", blocks=65536):
    controller = NvmeController(sim, name)
    controller.add_namespace(Namespace(1, blocks))
    return controller


class TestKvSsd:
    def make_device(self, sim):
        return KvSsd(sim, make_controller(sim), memtable_limit=8)

    def test_put_get(self):
        sim = Simulator()
        device = self.make_device(sim)

        def scenario():
            yield from device.put(b"user:1", b"alice")
            value = yield from device.get(b"user:1")
            return value

        assert sim.run_process(scenario()) == b"alice"

    def test_get_missing(self):
        sim = Simulator()
        device = self.make_device(sim)

        def scenario():
            value = yield from device.get(b"ghost")
            return value

        assert sim.run_process(scenario()) is None

    def test_delete(self):
        sim = Simulator()
        device = self.make_device(sim)

        def scenario():
            yield from device.put(b"k", b"v")
            yield from device.delete(b"k")
            value = yield from device.get(b"k")
            return value

        assert sim.run_process(scenario()) is None

    def test_a_get_below_the_memtable_reads_the_value_after_its_flash_read(self):
        # The key sits in L0, so the get waits on one flash read; a put
        # of the key lands in the memtable during that wait. The get
        # returns what its read would find when it completes: the put.
        sim = Simulator()
        device = self.make_device(sim)
        sim.run_process(device.put(b"k", b"old"))
        device.lsm.flush()
        assert len(device.lsm.l0) == 1 and device.lsm.get(b"k") == b"old"
        finished = {}

        def writer():
            yield from device.put(b"k", b"new")
            finished["put"] = sim.now

        def reader():
            yield sim.timeout(450e-6)  # the put's WAL program is ~510 us
            value = yield from device.get(b"k")
            finished["get"] = (sim.now, value)

        start = sim.now
        sim.process(writer())
        sim.process(reader())
        sim.run()
        got_at, value = finished["get"]
        assert start + 450e-6 < finished["put"] < got_at
        assert value == b"new"

    def test_flush_persists_sstable_to_flash(self):
        sim = Simulator()
        device = self.make_device(sim)

        def scenario():
            for i in range(20):  # exceeds memtable_limit=8 -> flushes
                yield from device.put(f"key{i:02d}".encode(), b"value")

        sim.run_process(scenario())
        # The first SSTable image sits at the start of the SSTable area.
        namespace = device.controller.namespaces[1]
        first = parse_sstable(namespace.read_blocks(1024, 1))
        assert len(first) == 8
        assert first.get(b"key00") == b"value"

    def test_a_put_pins_its_record_not_a_block(self):
        """A WAL record is stored without its block's trailing zeros, so
        1,000 overwrites of one key grow the heap by a record's worth
        each, not by a 4 KiB page (4,226 B per put when it was padded)."""
        sim = Simulator()
        device = self.make_device(sim)
        value = bytes(range(1, 65))

        def puts(count):
            for _ in range(count):
                yield from device.put(b"pinned", value)

        sim.run_process(puts(100))  # warm-up: every lazy structure exists
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim.run_process(puts(1_000))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown / 1_000 <= 512

    def test_scan(self):
        sim = Simulator()
        device = self.make_device(sim)

        def scenario():
            for i in range(5):
                yield from device.put(f"k{i}".encode(), str(i).encode())
            results = yield from device.scan(b"k1", b"k4")
            return results

        results = sim.run_process(scenario())
        assert [k for k, __ in results] == [b"k1", b"k2", b"k3"]

    def test_remote_service(self):
        sim = Simulator()
        net = Network(sim)
        device = self.make_device(sim)
        KvSsdService(make_rpc(sim, net, "kv-dpu"), device)
        stub = KvSsdClient(make_client(sim, net, "app"), "kv-dpu")

        def scenario():
            yield from stub.put(b"color", b"green")
            value = yield from stub.get(b"color")
            yield from stub.delete(b"color")
            gone = yield from stub.get(b"color")
            return value, gone

        assert sim.run_process(scenario()) == (b"green", None)


class TestCorfu:
    def setup_log(self, sim, replicas=2):
        net = Network(sim)
        CorfuSequencer(make_rpc(sim, net, "sequencer"))
        units = []
        for i in range(replicas):
            unit = CorfuLogUnit(
                make_rpc(sim, net, f"unit{i}"), make_controller(sim, f"ssd{i}")
            )
            units.append(unit)
        client = CorfuClient(
            make_client(sim, net, "writer"),
            "sequencer",
            [f"unit{i}" for i in range(replicas)],
        )
        return client, units, net

    def test_append_assigns_positions(self):
        sim = Simulator()
        client, __, __ = self.setup_log(sim)

        def scenario():
            first = yield from client.append(b"entry-0")
            second = yield from client.append(b"entry-1")
            return first, second

        assert sim.run_process(scenario()) == (0, 1)

    def test_read_back(self):
        sim = Simulator()
        client, __, __ = self.setup_log(sim)

        def scenario():
            position = yield from client.append(b"hello log")
            data = yield from client.read(position)
            return data

        assert sim.run_process(scenario()) == b"hello log"

    def test_entries_read_back_exactly_as_appended(self):
        """An entry is neither padded to the block size nor clobbered by
        the next append when it spans more than one block."""
        sim = Simulator()
        client, __, __ = self.setup_log(sim)
        entries = [b"hello", b"A" * 5000, b"B" * 10, b""]

        def scenario():
            positions = []
            for entry in entries:
                positions.append((yield from client.append(entry)))
            read = []
            for position in positions:
                read.append((yield from client.read(position)))
            return read

        assert sim.run_process(scenario()) == entries

    def test_write_once_enforced(self):
        sim = Simulator()
        client, units, net = self.setup_log(sim, replicas=1)
        rogue = CorfuClient(make_client(sim, net, "rogue"), "sequencer", ["unit0"])

        def scenario():
            position = yield from client.append(b"first")
            # Bypass the sequencer and try to overwrite position 0.
            yield from rogue.client.call(
                "unit0", "corfu.write", position, b"overwrite",
                request_size=64, response_size=16,
            )

        with pytest.raises(Exception, match="already written"):
            sim.run_process(scenario())

    def test_failover_to_replica(self):
        sim = Simulator()
        client, units, __ = self.setup_log(sim, replicas=2)

        def scenario():
            position = yield from client.append(b"replicated")
            units[0].fail()
            data = yield from client.read(position)
            return data

        assert sim.run_process(scenario()) == b"replicated"

    def test_all_replicas_down(self):
        sim = Simulator()
        client, units, __ = self.setup_log(sim, replicas=2)

        def scenario():
            position = yield from client.append(b"x")
            for unit in units:
                unit.fail()
            yield from client.read(position)

        with pytest.raises(ProtocolError, match="no replica"):
            sim.run_process(scenario())

    def test_tail_tracks_appends(self):
        sim = Simulator()
        client, __, __ = self.setup_log(sim)

        def scenario():
            for i in range(5):
                yield from client.append(f"e{i}".encode())
            tail = yield from client.tail()
            return tail

        assert sim.run_process(scenario()) == 5

    def test_concurrent_appenders_get_unique_positions(self):
        sim = Simulator()
        client, units, net = self.setup_log(sim)
        other = CorfuClient(
            make_client(sim, net, "writer2"), "sequencer", ["unit0", "unit1"]
        )
        positions = []

        def appender(corfu, count):
            for i in range(count):
                position = yield from corfu.append(b"data")
                positions.append(position)

        sim.process(appender(client, 5))
        sim.process(appender(other, 5))
        sim.run()
        assert sorted(positions) == list(range(10))
