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

from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sharding import ShardedKvClient, ShardedKvCluster
from repro.sim import Simulator
from repro.storage.kvssd import KvSsd, KvSsdClient, KvSsdService
from repro.transport import RpcClient, RpcServer, UdpSocket

THINK = 2e-6

#: One frame endpoint -> switch -> endpoint: two serializations, two
#: propagations, one lookup. (19 before frames rode callbacks.)
FRAME_CROSSING = 5


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

    def test_echo_round_trip(self):
        sim = Simulator()
        network = Network(sim)
        server = RpcServer(sim, UdpSocket(sim, network.endpoint("server")))
        server.register("echo", lambda value: value)
        client = RpcClient(sim, UdpSocket(sim, network.endpoint("client")))
        # Two crossings, the handler process's bootstrap and completion,
        # the client's wakeup — plus the think timeout and the driving
        # process's own bootstrap and completion.
        assert entries(sim, client.call("server", "echo", 1)) == (
            2 * FRAME_CROSSING + 3 + 3
        )

    def test_uncontended_get(self, stack):
        sim, stub = stack
        assert entries(sim, stub.get(b"warm")) == 19

    def test_uncontended_put(self, stack):
        sim, stub = stack
        assert entries(sim, stub.put(b"warm", b"w" * 64)) == 34


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
    def test_matches_the_process_per_frame_schedule(self):
        """Queues, link backlogs and multi-fragment batches under load,
        with random think times so that no two events share an instant:
        every completion time equals what the per-frame-process
        datapath produced (digest pinned at the commit before frames
        moved to callbacks). Only zero-delay hops were removed, so with
        no ties to break there is nothing left that can move."""
        import hashlib
        import random

        sim = Simulator()
        cluster = ShardedKvCluster(sim, Network(sim), dpu_count=4,
                                   queue_capacity=64, workers=2)
        clients = [ShardedKvClient(sim, cluster, name=f"c{i}", cache=None)
                   for i in range(16)]
        keys = [f"k{i:03d}".encode() for i in range(120)]
        for key in keys:
            sim.run_process(clients[0].put(key, b"v" * 64))
        completions = []

        def loop(index, client):
            rng = random.Random(index)
            yield sim.timeout(rng.uniform(0, 5e-6))
            for round_ in range(40):
                yield sim.timeout(rng.uniform(1e-6, 3e-6))
                draw = rng.random()
                if draw < 0.6:
                    yield from client.get(rng.choice(keys))
                elif draw < 0.8:
                    yield from client.put(rng.choice(keys),
                                          b"w" * rng.randrange(10, 3000))
                else:
                    yield from client.get_many(
                        rng.sample(keys, rng.randrange(2, 60)))
                completions.append((index, round_, sim.now))

        for index, client in enumerate(clients):
            sim.process(loop(index, client))
        sim.run()
        completions.sort()
        digest = hashlib.sha256(repr(completions).encode()).hexdigest()
        assert len(completions) == 16 * 40
        assert digest[:16] == "91a4bf88fe03fc0a"
