"""A noise-free performance budget: engine entries per operation.

Wall-clock throughput drifts with the machine; the number of entries an
operation pushes through the engine (``Simulator._eid`` delta) does
not. These pins are exact integers, so the next change that makes a KV
op schedule more (or fewer) entries fails here — re-measure, and say in
the commit which layer moved — instead of surfacing weeks later as
wall-clock drift in ``BENCH_<n>.json``.

The second half pins that observing a run does not move it: tracing on
or off, the engine consumes the same eids and every request completes
at the same simulated instant.
"""

import pytest

from repro.apps.fail2ban import Fail2BanBaseline, Fail2BanDpu, PacketRecord
from repro.baseline import CpuCentricDatapath, CpuModel, OsModel
from repro.dpu import HyperionDpu
from repro.ebpf import assemble
from repro.eval import p2pdma
from repro.georep import Consistency, GeoCluster, GeoKvClient, WanFabric
from repro.georep.region import SHIP_INTERVAL
from repro.hdl import HardwarePipeline, compile_program
from repro.hw.net import Frame, Network
from repro.hw.nvme import Namespace, NvmeCommand, NvmeController, NvmeOpcode
from repro.sharding import ShardedKvClient, ShardedKvCluster
from repro.sim import Simulator
from repro.storage.kvssd import KvSsd, KvSsdClient, KvSsdService
from repro.transport import RpcClient, RpcServer, UdpSocket

THINK = 2e-6

#: One frame endpoint -> switch -> endpoint: the uplink serialization
#: (its sender waits on it), the lookup (scheduled as the frame leaves
#: the uplink, for the instant it will have propagated and been looked
#: up), the arrival at the endpoint (scheduled by the lookup, for the
#: instant the downlink will have serialized and propagated it). (19
#: before frames rode callbacks; 5 while the arrival at the switch was
#: an entry of its own; 4 while the downlink serialization was.)
FRAME_CROSSING = 3


def entries(sim, operation, think=THINK):
    """Engine entries one client operation costs, think time included."""
    def client():
        yield sim.timeout(think)
        yield from operation

    sim.run()  # nothing left over from setup
    before = sim._eid
    sim.run_process(client())
    return sim._eid - before


class TestEntriesPerOp:
    @pytest.fixture()
    def stack(self):
        """One client, one KV-SSD DPU, one switch between them."""
        sim = Simulator()
        network = Network(sim)
        controller = NvmeController(sim, "dpu-flash")
        controller.add_namespace(Namespace(1, 16384))
        device = KvSsd(sim, controller, memtable_limit=100_000)
        server = RpcServer(sim, UdpSocket(sim, network.endpoint("dpu")))
        KvSsdService(server, device)
        stub = KvSsdClient(
            RpcClient(sim, UdpSocket(sim, network.endpoint("host"))), "dpu"
        )
        sim.run_process(stub.put(b"warm", b"v" * 64))
        return sim, stub

    @staticmethod
    def echo_pair():
        sim = Simulator()
        network = Network(sim)
        server = RpcServer(sim, UdpSocket(sim, network.endpoint("server")))
        server.register("echo", lambda value: value)
        client = RpcClient(sim, UdpSocket(sim, network.endpoint("client")))
        return sim, client

    def test_echo_round_trip(self):
        sim, client = self.echo_pair()
        # Two crossings and the start of the request's own process (an
        # unqueued server serves requests concurrently; nobody waits on
        # it, so its end is no entry: 2 before). The caller resumes
        # inside the reply's delivery entry. Plus the think timeout and
        # the driving process's bootstrap, completion. (13 before the
        # downlink serialization became busy-until arithmetic.)
        assert entries(sim, client.call("server", "echo", 1)) == (
            2 * FRAME_CROSSING + 1 + 3
        )

    def test_answered_call_with_a_timeout_costs_one_stale_entry(self):
        sim, client = self.echo_pair()
        # The attempt's expiry callback, popped as a no-op after the
        # answer. (An any_of([done, timeout]) wait cost two and left
        # the caller's wake-up a hop of its own. 14 before the
        # downlink serialization and the handler's end left the count.)
        assert entries(
            sim, client.call("server", "echo", 1, timeout=1e-3, retries=2)
        ) == 2 * FRAME_CROSSING + 1 + 3 + 1

    def test_uncontended_get(self, stack):
        sim, stub = stack
        # The echo's 10 plus the KV-SSD's service time; the handler
        # generator runs in the request's process. (14 before: hw.net's
        # two downlink serializations and the request process's end.)
        assert entries(sim, stub.get(b"warm")) == 11

    def test_uncontended_put(self, stack):
        sim, stub = stack
        # The get's 11 plus the WAL's single-page write command's 4: its
        # start and its three latencies. (21 before: the get's three,
        # and hw.nvme's queue-loop hand-off, command end and deferred
        # completion.)
        assert entries(sim, stub.put(b"warm", b"w" * 64)) == 15

    def test_single_page_nvme_write_command(self):
        sim = Simulator()
        controller = NvmeController(sim, "ssd")
        controller.add_namespace(Namespace(1, 1024))
        qp = controller.create_queue_pair()
        controller.start()
        command = NvmeCommand(NvmeOpcode.WRITE, lba=3, data=b"x" * 512)

        def write():
            completion = yield qp.submit(command)
            assert completion.ok

        # Three latencies (firmware, channel transfer, cell program) and
        # the start of the command's own process (commands overlap across
        # dies), which submit spawns directly and which wakes the
        # submitter inline as its last act. (10 while a queue loop took
        # the command, the command's end was an entry and the completion
        # woke the submitter in one of its own; 15 while submit spawned
        # a process, the page program another under an all_of, and each
        # free channel/die grant was an event.)
        assert entries(sim, write()) == 4 + 3

    def test_cross_region_crossing(self):
        """Uplink, region a's lookup, the WAN link, region b's lookup, the
        arrival: the WAN link keeps its serialization entry, because a
        partition is decided as the frame finishes serializing. (6 while
        region b's downlink serialization was an entry too.)"""
        sim = Simulator()
        fabric = WanFabric(sim)
        for region in "ab":
            fabric.add_region(region, Network(sim))
        fabric.connect("a", "b")
        port = fabric.endpoint("a", "host-a")
        fabric.endpoint("b", "host-b").listen(lambda frame: None)
        frame = Frame("host-a", "host-b", None, 64)
        assert entries(sim, port.send(frame)) == 5 + 3

    def test_idle_log_shipper_interval(self):
        """A caught-up shipper between heartbeats: one expiry entry per
        ``SHIP_INTERVAL``, which wakes it inline. (2 while the poll was an
        ``any_of([wake, timeout])``: the timeout and the any_of's hop.)"""
        sim = Simulator()
        cluster = GeoCluster(sim, ("a", "b"))
        shippers = [shipper for region in cluster.regions.values()
                    for shipper in region.shippers.values()]
        # Past the first heartbeat's WAN round trip, before the next.
        idle = 16e-3
        sim.run(until=idle)
        heartbeats = [shipper._heartbeats.value for shipper in shippers]
        before = sim._eid
        sim.run(until=idle + SHIP_INTERVAL)
        assert [shipper._heartbeats.value for shipper in shippers] == (
            heartbeats)
        assert sim._eid - before == 1 * len(shippers)


#: The think timeout and the driving process's bootstrap and completion.
DRIVER = 3


class TestEntriesPerPacket:
    """The inline pipeline against the CPU-centric path, per packet:
    back-to-back latencies of one actor are one entry."""

    PACKET = PacketRecord(src_ip=7, auth_failed=True, size=512)

    @staticmethod
    def baseline():
        sim = Simulator()
        cpu = CpuModel(sim)
        ssd = NvmeController(sim, "server-ssd")
        ssd.add_namespace(Namespace(1, 1024))
        return sim, CpuCentricDatapath(sim, cpu, OsModel(sim, cpu), ssd=ssd)

    def test_pipeline_input(self):
        sim = Simulator()
        pipeline = HardwarePipeline(
            sim, compile_program(assemble("mov r0, 1\nexit")))
        # Port wait, initiation interval and drain are one instant on
        # the clock. (3 while the port was a Resource: grant, II, drain.)
        assert entries(sim, pipeline.execute()) == 1 + DRIVER

    def test_os_receive_and_write(self):
        sim, path = self.baseline()
        sim.run()
        before = sim._eid
        # Interrupt + syscall + copy, and syscall + block layer + copy:
        # arithmetic on an instant, no entry at all (one sleep each
        # before the caller folded them; 3 each before that).
        when = path.os.write_storage(path.os.receive_packet(sim.now, 512), 512)
        assert when > sim.now
        assert sim._eid == before

    def test_baseline_packet_without_a_flush(self):
        sim, path = self.baseline()
        app = Fail2BanBaseline(sim, path)
        # Receive, software execution and page-cache write run back to
        # back on one core: one sleep. (3 while the program ran at its
        # receive completion; 7 before that.)
        assert entries(sim, app.process_packet(self.PACKET)) == 1 + DRIVER

    def test_p2p_bounce_transfer(self, monkeypatch):
        """One bounce transfer (NIC DMA, the core's interrupt + copy +
        write syscall, DMA to the SSD, the NVMe write), counted over the
        run that carries it. (14 while receive and write were a sleep
        each and the transfer's end queued a completion nobody awaited.)"""
        counted = []

        class CountingSimulator(Simulator):
            def run(self, until=None):
                before = self._eid
                super().run(until)
                counted.append(self._eid - before)

        monkeypatch.setattr(p2pdma, "Simulator", CountingSimulator)
        p2pdma._run_bounce(4096, 1)
        assert counted == [12]

    def test_dpu_packet_without_a_flush(self):
        sim = Simulator()
        dpu = HyperionDpu(sim, Network(sim), ssd_blocks=4096)
        sim.run_process(dpu.boot())
        app = Fail2BanDpu(sim, dpu)
        # The pipeline input; the log record lands in BRAM. (3 before.)
        assert entries(sim, app.process_packet(self.PACKET)) == 1 + DRIVER


def sharded_run(trace_seed):
    """Six closed-loop clients against two DPUs: single gets, puts and
    40-key ``get_many`` scatters whose responses span two fragments.
    Returns what must not depend on whether the run was observed."""
    sim = Simulator()
    cluster = ShardedKvCluster(sim, Network(sim), dpu_count=2,
                               queue_capacity=64, workers=2)
    clients = [ShardedKvClient(sim, cluster, name=f"c{i}", cache=None)
               for i in range(6)]
    keys = [f"k{i:02d}".encode() for i in range(40)]
    for key in keys:
        sim.run_process(clients[0].put(key, b"v" * 64))
    if trace_seed is not None:
        sim.tracer.enable(sample_rate=0.25, seed=trace_seed)
    completions = []

    def loop(index, client):
        for round_ in range(8):
            yield sim.timeout(THINK)
            value = yield from client.get(keys[(index + round_) % 40])
            completions.append((index, round_, "get", sim.now, value))
            values = yield from client.get_many(keys)
            completions.append((index, round_, "many", sim.now,
                                len(values)))
            if round_ % 3 == 0:
                yield from client.put(keys[index], b"w" * 64)
                completions.append((index, round_, "put", sim.now, None))

    for index, client in enumerate(clients):
        sim.process(loop(index, client))
    sim.run()
    return sim, completions


def geo_run(trace_seed):
    """Two clients of a 2-region QUORUM cluster, one homed in each
    region: every write crosses the WAN in a ship, every request and
    reply crosses rack downlinks whose ``net.tx`` spans close at their
    known end. Returns what must not depend on whether the run was
    observed."""
    sim = Simulator()
    cluster = GeoCluster(sim, ("a", "b"), consistency=Consistency.QUORUM)
    clients = [GeoKvClient(sim, cluster, f"c-{home}", home=home)
               for home in "ab"]
    if trace_seed is not None:
        sim.tracer.enable(sample_rate=0.5, seed=trace_seed)
    completions = []

    def loop(index, client):
        for round_ in range(6):
            yield sim.timeout(THINK)
            key = f"k{(index + round_) % 4}".encode()
            yield from client.put(key, b"v%d" % round_)
            completions.append((index, round_, "put", sim.now))
            value = yield from client.get(key)
            completions.append((index, round_, "get", sim.now, value))

    for index, client in enumerate(clients):
        sim.process(loop(index, client))
    sim.run(until=0.2)
    cluster.stop()
    sim.run()
    return sim, completions


class TestTracingDoesNotMoveTheSchedule:
    @pytest.mark.parametrize("trace_seed", [0, 1, 7])
    def test_same_eids_same_clock_same_completions(self, trace_seed):
        plain_sim, plain = sharded_run(None)
        traced_sim, traced = sharded_run(trace_seed)
        assert traced_sim.tracer.roots  # something was sampled...
        sampled = sum(1 for root in traced_sim.tracer.roots
                      if root.name == "rpc.call")
        assert 0 < sampled < len(plain)  # ...and something was not
        assert traced_sim._eid == plain_sim._eid
        assert traced_sim.now == plain_sim.now
        assert traced == plain

    @pytest.mark.parametrize("trace_seed", [0, 3])
    def test_geo_cluster_same_eids_same_clock_same_completions(
            self, trace_seed):
        plain_sim, plain = geo_run(None)
        traced_sim, traced = geo_run(trace_seed)
        names = {span.name for root in traced_sim.tracer.roots
                 for span in root.walk()}
        assert {"wan.tx", "net.tx", "repl.ship"} <= names
        assert len(plain) == 2 * 6 * 2
        assert traced_sim._eid == plain_sim._eid
        assert traced_sim.now == plain_sim.now
        assert traced == plain

    def test_multi_fragment_responses_were_exercised(self):
        sim, __ = sharded_run(0)
        batch = [root for root in sim.tracer.roots
                 if root.attrs.get("method") == "rpc.batch"]
        assert batch
        hops = [span for span in batch[0].walk() if span.name == "net.tx"]
        # Request: 1 frame x 2 hops; response: 2 fragments x 2 hops.
        assert len(hops) == 6

    def test_sampled_get_tree_is_unchanged(self):
        """rpc.call -> net.tx x2 -> rpc.handle -> ... -> net.tx x2, with
        the names, substrates, parents and durations the per-frame
        processes used to produce."""
        sim = Simulator()
        cluster = ShardedKvCluster(sim, Network(sim), dpu_count=1,
                                   queue_capacity=64, workers=2)
        client = ShardedKvClient(sim, cluster, name="c0", cache=None)
        sim.run_process(client.put(b"k", b"v" * 64))
        tracer = sim.tracer.enable(sample_rate=0.5, seed=0)
        while not tracer.roots:  # head sampling: draw until one is kept
            sim.run_process(client.get(b"k"))
        (root,) = tracer.roots
        shape = [(span.name, span.substrate, span.parent and span.parent.name)
                 for span in root.walk()]
        assert shape == [
            ("rpc.call", "transport", None),
            ("net.tx", "net", "rpc.call"),      # client uplink
            ("net.tx", "net", "rpc.call"),      # switch -> DPU downlink
            ("rpc.handle", "transport", "rpc.call"),
            ("kv.get", "kvssd", "rpc.handle"),
            ("net.tx", "net", "rpc.handle"),    # DPU uplink
            ("net.tx", "net", "rpc.call"),      # switch -> client downlink
        ]
        spans = list(root.walk())
        network = cluster.network
        hop = network.propagation + network.switch.forward_latency
        up, down, handle, __, reply_up, reply_down = spans[1:]
        assert up.attrs["bytes"] == down.attrs["bytes"]
        assert reply_up.attrs["bytes"] == reply_down.attrs["bytes"]
        request = up.attrs["bytes"] / network.bandwidth
        reply = reply_up.attrs["bytes"] / network.bandwidth
        assert up.start == root.start and up.end == up.start + request
        assert down.start == up.end + hop
        assert down.end == down.start + request
        assert handle.start == down.end + network.propagation
        assert reply_up.end == handle.end  # the handler ends with its send
        assert reply_down.start == reply_up.end + hop
        assert reply_down.end == reply_down.start + reply
        assert root.end == reply_down.end + network.propagation
        assert all(span.end is not None for span in spans)


class TestContendedTimingWithoutTies:
    """Queues, link backlogs and multi-fragment batches under load, with
    random think times: 16 clients, 4 DPUs, 2 workers each, 640 ops."""

    @staticmethod
    def digest(keys_of):
        import hashlib
        import random

        sim = Simulator()
        cluster = ShardedKvCluster(sim, Network(sim), dpu_count=4,
                                   queue_capacity=64, workers=2)
        clients = [ShardedKvClient(sim, cluster, name=f"c{i}", cache=None)
                   for i in range(16)]
        keys = sorted({key for index in range(16) for key in keys_of(index)})
        for key in keys:
            sim.run_process(clients[0].put(key, b"v" * 64))
        completions = []

        def loop(index, client):
            rng = random.Random(index)
            mine = keys_of(index)
            yield sim.timeout(rng.uniform(0, 5e-6))
            for round_ in range(40):
                yield sim.timeout(rng.uniform(1e-6, 3e-6))
                draw = rng.random()
                if draw < 0.6:
                    yield from client.get(rng.choice(mine))
                elif draw < 0.8:
                    yield from client.put(rng.choice(mine),
                                          b"w" * rng.randrange(10, 3000))
                else:
                    yield from client.get_many(
                        rng.sample(mine, rng.randrange(2, 60)))
                completions.append((index, round_, sim.now))

        for index, client in enumerate(clients):
            sim.process(loop(index, client))
        sim.run()
        completions.sort()
        assert len(completions) == 16 * 40
        return hashlib.sha256(repr(completions).encode()).hexdigest()[:16]

    def test_disjoint_keys_complete_at_the_pinned_instants(self):
        """Each client on its own 60 keys: no two events share an
        instant, so removing zero-delay hops has nothing to reorder and
        every completion time is bit-identical. The digest was taken at
        the commit *before* handlers moved into the worker and the
        request path shed its same-instant hops (which also produces it
        with about half the engine entries)."""
        keys = [f"k{i:03d}".encode() for i in range(960)]
        assert self.digest(
            lambda index: keys[index * 60:(index + 1) * 60]
        ) == "7724776be2791a19"

    def test_matches_the_process_per_frame_schedule(self):
        """All 16 clients on the same 120 keys — the run that pinned the
        move of frames onto callbacks. It is *not* tie-free: two workers
        that met at one key lock leave it 2 us apart and then walk their
        batches in 2 us lock-step, reach the next shared key at the same
        instant, and eid order picks who is granted first. With handlers
        running in the worker (no bootstrap/completion hop per sub-op)
        one such grant between two batches on shard-dpu-0 goes the other
        way: the earliest differing pair of completions trades exactly
        2 us, and 470 of the 640 follow from it. Re-pinned so the next
        reordering is seen; this read 91a4bf88fe03fc0a before, and the
        tie-free variant above shows nothing but ties moved."""
        keys = [f"k{i:03d}".encode() for i in range(120)]
        assert self.digest(lambda index: keys) == "7a023d6b5ab54170"
