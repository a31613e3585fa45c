"""Tests for the scale-out data plane: the consistent-hash ring, the
hot-key cache, batched RPC, the sharded cluster's forwarding stubs, and
live migration (join + drain) under concurrent client traffic."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.hw.net import Network
from repro.sharding import (
    DEFAULT_VNODES,
    HashRing,
    HotKeyCache,
    ShardedKvClient,
    ShardedKvCluster,
    ShardMigrator,
)
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry
from repro.transport import BatchOp, MAX_BATCH_OPS, RpcClient, RpcError, UdpSocket
from repro.verify import HistoryRecorder, check_history


def resident_keys(cluster, address):
    """Keys physically resident on one DPU (sorted, minus forwards)."""
    forwarder = cluster.forwarders[address]
    return [key for key, __ in forwarder.device.lsm.items()
            if key not in forwarder.forward]


def balance(cluster):
    """max/mean resident keys across ring members; 1.0 is perfect."""
    counts = [len(resident_keys(cluster, a)) for a in cluster.ring.nodes]
    mean = sum(counts) / len(counts)
    return max(counts) / mean if mean else 1.0


# ---------------------------------------------------------------------------
# hash ring
# ---------------------------------------------------------------------------

KEYS = [f"key-{i:04d}".encode() for i in range(2000)]


def test_single_node_ring_owns_everything():
    ring = HashRing()
    ring.add_node("only")
    assert len(ring) == 1
    assert all(ring.owner_of(key) == "only" for key in KEYS[:100])
    assert ring.replicas_of(KEYS[0], 1) == ["only"]
    with pytest.raises(ConfigurationError):
        ring.replicas_of(KEYS[0], 3)
    assert ring.skew(KEYS[:100]) == 1.0


def test_empty_ring_refuses_lookup():
    with pytest.raises(ConfigurationError):
        HashRing().owner_of(b"k")


def test_duplicate_and_missing_nodes_rejected():
    ring = HashRing()
    ring.add_node("a")
    with pytest.raises(ConfigurationError):
        ring.add_node("a")
    with pytest.raises(ConfigurationError):
        ring.remove_node("b")


def test_placement_is_deterministic_and_hashseed_free():
    # blake2b placement: a fixed key/node set must map identically in
    # every process regardless of PYTHONHASHSEED.
    ring = HashRing(vnodes=DEFAULT_VNODES)
    for node in ("dpu-0", "dpu-1", "dpu-2"):
        ring.add_node(node)
    owners = [ring.owner_of(key) for key in KEYS[:20]]
    again = HashRing(vnodes=DEFAULT_VNODES)
    for node in ("dpu-2", "dpu-0", "dpu-1"):  # insertion order irrelevant
        again.add_node(node)
    assert owners == [again.owner_of(key) for key in KEYS[:20]]


def test_virtual_nodes_bound_skew():
    # The satellite's skew bound: with enough virtual nodes, max/mean
    # load stays near 1 even for adversarially regular key sets.
    ring = HashRing(vnodes=DEFAULT_VNODES)
    for index in range(8):
        ring.add_node(f"dpu-{index}")
    assert ring.skew(KEYS) < 1.6
    # And a ring with a single point per node is visibly worse.
    coarse = HashRing(vnodes=1)
    for index in range(8):
        coarse.add_node(f"dpu-{index}")
    assert coarse.skew(KEYS) > ring.skew(KEYS)


def test_node_removal_only_moves_the_removed_nodes_keys():
    ring = HashRing()
    for index in range(4):
        ring.add_node(f"dpu-{index}")
    before = {key: ring.owner_of(key) for key in KEYS}
    after = ring.without_node("dpu-2")
    moved = [key for key in KEYS if after.owner_of(key) != before[key]]
    # Consistent hashing's contract: only keys owned by the removed
    # node change owner.
    assert moved
    assert all(before[key] == "dpu-2" for key in moved)


def test_replicas_are_distinct_and_clockwise_stable():
    ring = HashRing()
    for index in range(5):
        ring.add_node(f"dpu-{index}")
    for key in KEYS[:50]:
        replicas = ring.replicas_of(key, 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert replicas[0] == ring.owner_of(key)


# ---------------------------------------------------------------------------
# hot-key cache
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0


def test_cache_hit_until_lease_expires():
    clock = _Clock()
    cache = HotKeyCache(clock, capacity=4, lease=1.0)
    cache.fill(b"k", b"v", epoch=1)
    assert cache.lookup(b"k", epoch=1) == b"v"
    clock.now = 0.999
    assert cache.lookup(b"k", epoch=1) == b"v"
    clock.now = 1.0
    assert cache.lookup(b"k", epoch=1) is None
    assert cache.hits == 2 and cache.misses == 1


def test_cache_epoch_mismatch_is_a_miss():
    cache = HotKeyCache(_Clock(), capacity=4, lease=1.0)
    cache.fill(b"k", b"v", epoch=1)
    assert cache.lookup(b"k", epoch=2) is None
    # The stale entry is gone for good, not resurrected at the old epoch.
    assert cache.lookup(b"k", epoch=1) is None


def test_cache_lru_eviction_and_invalidate():
    registry = MetricsRegistry()
    cache = HotKeyCache(_Clock(), capacity=2, lease=1.0,
                        metrics=registry.scope("cache"))
    cache.fill(b"a", b"1", epoch=1)
    cache.fill(b"b", b"2", epoch=1)
    assert cache.lookup(b"a", epoch=1) == b"1"  # refreshes a's recency
    cache.fill(b"c", b"3", epoch=1)             # evicts b, the LRU entry
    assert registry.get("cache.evicted").value == 1
    assert cache.lookup(b"b", epoch=1) is None
    assert cache.lookup(b"a", epoch=1) == b"1"
    cache.invalidate(b"a")
    assert cache.lookup(b"a", epoch=1) is None
    assert len(cache) == 1


def test_cache_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        HotKeyCache(_Clock(), capacity=0)
    with pytest.raises(ConfigurationError):
        HotKeyCache(_Clock(), lease=0.0)


# ---------------------------------------------------------------------------
# batched RPC
# ---------------------------------------------------------------------------

def _rpc_pair():
    sim = Simulator()
    network = Network(sim)
    from repro.transport import RpcServer
    server = RpcServer(sim, UdpSocket(sim, network.endpoint("srv")))
    client = RpcClient(sim, UdpSocket(sim, network.endpoint("cli")))
    return sim, server, client


def test_call_batch_runs_every_op_in_one_round_trip():
    sim, server, client = _rpc_pair()
    server.register("add", lambda a, b: a + b)
    server.register("boom", lambda: 1 / 0)
    got = []

    def driver():
        responses = yield from client.call_batch("srv", [
            BatchOp("add", (1, 2)),
            BatchOp("boom"),
            BatchOp("add", (10, 20)),
        ])
        got.extend(responses)

    sim.run_process(driver())
    assert [r.ok for r in got] == [True, False, True]
    assert got[0].result == 3 and got[2].result == 30
    assert "division" in got[1].error
    # The whole batch consumed exactly one server request slot.
    served = {name: sim.telemetry.get(f"rpc.server.srv.{name}").value
              for name in ("requests_served", "batches_served", "batched_ops")}
    assert served == {"requests_served": 1, "batches_served": 1,
                      "batched_ops": 3}


def test_call_batch_validates_size():
    sim, server, client = _rpc_pair()
    server.register("noop", lambda: None)

    def driver(ops):
        yield from client.call_batch("srv", ops)

    with pytest.raises(ConfigurationError):
        sim.run_process(driver([]))
    too_many = [BatchOp("noop") for __ in range(MAX_BATCH_OPS + 1)]
    with pytest.raises(ConfigurationError):
        sim.run_process(driver(too_many))


# ---------------------------------------------------------------------------
# sharded cluster + live migration
# ---------------------------------------------------------------------------

def _sharded(sim, dpus=3, **kwargs):
    network = Network(sim)
    cluster = ShardedKvCluster(sim, network, dpu_count=dpus,
                               queue_capacity=64, workers=2, **kwargs)
    return cluster


def _preload(sim, cluster, keys, value=b"v0"):
    loader = ShardedKvClient(sim, cluster, name="loader")
    sim.run_process(loader.put_many([(key, value) for key in keys]))


def test_sharded_cluster_serves_and_balances():
    sim = Simulator()
    cluster = _sharded(sim, dpus=4)
    keys = [f"key-{i:03d}".encode() for i in range(200)]
    _preload(sim, cluster, keys)
    client = ShardedKvClient(sim, cluster, name="c")

    values = []

    def driver():
        values.extend((yield from client.get_many(keys)))

    sim.run_process(driver())
    assert values == [b"v0"] * len(keys)
    assert balance(cluster) < 1.8
    # Every key is resident exactly where the ring says it is.
    for address in cluster.members():
        for key in resident_keys(cluster, address):
            assert cluster.owner_of(key) == address


def test_throughput_scales_with_shared_nothing_partitions():
    # Client-driven routing, the MICA pattern (paper §2.4 C1): one writer
    # per DPU, 60 uncached single-key puts each, on 1, 2 and 4 DPUs.
    throughputs = []
    for count in (1, 2, 4):
        sim = Simulator()
        cluster = ShardedKvCluster(sim, Network(sim), dpu_count=count,
                                   ssd_blocks=16384, name="kv")

        def writer(client, base):
            for i in range(60):
                yield from client.put(f"{base}:key:{i}".encode(), b"v" * 32)

        for index in range(count):
            client = ShardedKvClient(sim, cluster, f"client-{index}",
                                     cache=None)
            sim.process(writer(client, f"c{index}"))
        sim.run()
        throughputs.append(count * 60 / sim.now)
        assert balance(cluster) < 1.8
    assert throughputs == sorted(throughputs)
    assert throughputs[-1] > 2.5 * throughputs[0]


def test_join_migration_moves_only_new_ranges_and_loses_nothing():
    sim = Simulator()
    cluster = _sharded(sim, dpus=2)
    keys = [f"key-{i:03d}".encode() for i in range(120)]
    _preload(sim, cluster, keys)
    migrator = ShardMigrator(sim, cluster, segment_keys=8)
    client = ShardedKvClient(sim, cluster, name="c")
    box = {}

    def driver():
        box["report"] = yield from migrator.add_dpu()
        box["values"] = yield from client.get_many(keys)

    sim.run_process(driver())
    report = box["report"]
    assert report.direction == "join"
    assert report.keys_moved > 0
    assert report.epoch == cluster.epoch == 2
    assert box["values"] == [b"v0"] * len(keys)
    # The new node owns and physically holds its ranges.
    new = report.node
    assert new in cluster.members()
    resident = resident_keys(cluster, new)
    assert len(resident) == report.keys_moved
    assert all(cluster.owner_of(key) == new for key in resident)


def test_drain_migration_empties_the_node_and_loses_nothing():
    sim = Simulator()
    cluster = _sharded(sim, dpus=3)
    keys = [f"key-{i:03d}".encode() for i in range(120)]
    _preload(sim, cluster, keys)
    migrator = ShardMigrator(sim, cluster, segment_keys=8)
    client = ShardedKvClient(sim, cluster, name="c")
    victim = cluster.members()[1]
    box = {}

    def driver():
        box["report"] = yield from migrator.remove_dpu(victim)
        box["values"] = yield from client.get_many(keys)

    sim.run_process(driver())
    assert box["report"].direction == "leave"
    assert victim not in cluster.members()
    assert resident_keys(cluster, victim) == []
    assert box["values"] == [b"v0"] * len(keys)


def test_drain_refuses_last_node_and_unknown_node():
    sim = Simulator()
    cluster = _sharded(sim, dpus=1)
    migrator = ShardMigrator(sim, cluster)

    def drain(address):
        yield from migrator.remove_dpu(address)

    with pytest.raises(ConfigurationError):
        sim.run_process(drain(cluster.members()[0]))
    with pytest.raises(ConfigurationError):
        sim.run_process(drain("no-such-dpu"))


def test_concurrent_churn_during_join_and_drain_never_fails():
    # The tentpole's availability claim: topology changes are latency
    # events. Four writers/readers hammer the keyspace while a DPU
    # joins and another drains; no op may fail and no write may vanish.
    sim = Simulator()
    cluster = _sharded(sim, dpus=3)
    keys = [f"key-{i:03d}".encode() for i in range(80)]
    _preload(sim, cluster, keys)
    migrator = ShardMigrator(sim, cluster, segment_keys=4)
    client = ShardedKvClient(sim, cluster, name="churn")
    state = {key: b"v0" for key in keys}
    failures = []
    stop = [False]

    def churn(worker):
        rng = random.Random(f"churn/{worker}")
        while not stop[0]:
            key = keys[rng.randrange(len(keys))]
            try:
                if rng.random() < 0.3:
                    value = f"w{worker}".encode()
                    yield from client.put(key, value)
                    state[key] = value
                else:
                    if (yield from client.get(key)) is None:
                        failures.append(("lost", key))
            except RpcError as error:
                failures.append(("rpc", key, str(error)))

    def control():
        report = yield from migrator.add_dpu()
        yield from migrator.remove_dpu(report.node)
        stop[0] = True

    for worker in range(4):
        sim.process(churn(worker))
    sim.process(control())
    sim.run(until=1.0)
    assert stop[0], "migrations did not finish"
    assert failures == []
    final = {}

    def verify():
        values = yield from client.get_many(keys)
        final.update(dict(zip(keys, values)))

    sim.run_process(verify())
    assert final == state


def test_crash_during_migration_rides_through_and_loses_nothing():
    # E19's satellite: kill a handoff source mid-`shard.handoff`. The
    # migrator's timeout/retransmit budget must ride the outage out
    # (handoff segments are idempotent — re-sent ones skip keys already
    # forwarded), commit the epoch bump exactly once, and leave every
    # key reachable with no acknowledged write lost.
    sim = Simulator()
    cluster = _sharded(sim, dpus=3)
    keys = [f"key-{i:03d}".encode() for i in range(96)]
    _preload(sim, cluster, keys)
    migrator = ShardMigrator(sim, cluster, segment_keys=4,
                             call_timeout=2e-3, call_retries=64)
    client = ShardedKvClient(sim, cluster, name="crash",
                             timeout=2.5e-3, retries=64)
    victim = cluster.members()[0]
    state = dict.fromkeys(keys, b"v0")
    failures = []
    stop = [False]
    box = {}

    def writer(worker):
        rng = random.Random(f"crash/{worker}")
        serial = 0
        while not stop[0]:
            key = keys[rng.randrange(len(keys))]
            try:
                if rng.random() < 0.4:
                    value = f"w{worker}-{serial}".encode()
                    serial += 1
                    yield from client.put(key, value)
                    state[key] = value
                else:
                    if (yield from client.get(key)) is None:
                        failures.append(("lost", key))
            except RpcError as error:
                failures.append(("rpc", key, str(error)))

    def control():
        box["report"] = yield from migrator.add_dpu()
        box["done_at"] = sim.now
        stop[0] = True

    def crash():
        yield sim.timeout(0.5e-3)
        cluster.network.switch.blackhole(victim)
        yield sim.timeout(15e-3)
        cluster.network.switch.restore(victim)
        box["healed_at"] = sim.now

    for worker in range(2):
        sim.process(writer(worker))
    sim.process(control())
    sim.process(crash())
    sim.run(until=1.0)
    assert box.get("report"), "migration never completed"
    report = box["report"]
    assert report.direction == "join" and report.keys_moved > 0
    assert report.epoch == cluster.epoch == 2
    # The kill really landed mid-migration: completion waited for heal.
    assert box["done_at"] > box["healed_at"]
    assert failures == []
    # Ownership and residency are coherent under the new epoch...
    for address in cluster.members():
        for key in resident_keys(cluster, address):
            assert cluster.owner_of(key) == address
    # ...and no key is unreachable, no acknowledged write lost.
    final = {}

    def verify():
        values = yield from client.get_many(keys)
        final.update(dict(zip(keys, values)))

    sim.run_process(verify())
    assert final == state


def test_cache_invalidation_race_during_migration():
    # The satellite's coherence race: a value cached under the old
    # epoch must not be served after migration commits, even within
    # its lease, and a fresh read must come from the new owner.
    sim = Simulator()
    cluster = _sharded(sim, dpus=2)
    keys = [f"key-{i:03d}".encode() for i in range(60)]
    _preload(sim, cluster, keys)
    cache = HotKeyCache(sim, capacity=128, lease=10.0)  # outlives the run
    client = ShardedKvClient(sim, cluster, name="c", cache=cache)
    writer = ShardedKvClient(sim, cluster, name="w")
    migrator = ShardMigrator(sim, cluster, segment_keys=8)
    box = {}

    def driver():
        yield from client.get_many(keys)      # warm the cache at epoch 1
        assert cache.hits == 0
        report = yield from migrator.add_dpu()
        # Another client updates a key that moved to the new node.
        moved = resident_keys(cluster, report.node)[0]
        yield from writer.put(moved, b"fresh")
        box["value"] = yield from client.get(moved)
        box["moved"] = moved

    sim.run_process(driver())
    # The cached epoch-1 value was discarded, not served within lease.
    assert box["value"] == b"fresh"
    assert cache._epoch_invalidated.value > 0


def test_cache_served_read_is_visible_to_the_verifier():
    """Regression: a lease hit returned before ``history.invoke``, so a
    stale in-lease read never reached the linearizability checker."""
    sim = Simulator()
    cluster = _sharded(sim, dpus=2)
    history = HistoryRecorder(sim)
    writer = ShardedKvClient(sim, cluster, name="writer", cache=None,
                             history=history)
    reader = ShardedKvClient(sim, cluster, name="reader",
                             cache=HotKeyCache(sim, lease=5e-3),
                             history=history)

    def driver():
        yield from writer.put(b"hot", b"old")
        first = yield from reader.get(b"hot")       # fills the lease
        yield from writer.put(b"hot", b"new")
        yield sim.timeout(1e-6)  # strictly after the overwrite's ack
        second = yield from reader.get(b"hot")      # served inside it
        return first, second

    assert sim.run_process(driver()) == (b"old", b"old")
    reads = [op for op in history.ops
             if op.client == "reader" and op.action == "r"]
    assert [op.value for op in reads] == [b"old", b"old"]
    check = check_history(history)
    assert [result.key for result in check.violations] == [b"hot"]


def test_batch_spanning_a_migrating_shard():
    # The satellite's batching edge case: a get_many whose keys span
    # the shard mid-handoff must succeed via forwarding, not error.
    sim = Simulator()
    cluster = _sharded(sim, dpus=2)
    keys = [f"key-{i:03d}".encode() for i in range(80)]
    _preload(sim, cluster, keys)
    migrator = ShardMigrator(sim, cluster, segment_keys=2)
    client = ShardedKvClient(sim, cluster, name="c", batch_limit=16)
    rounds = []
    done = [False]

    def reader():
        while not done[0]:
            values = yield from client.get_many(keys[:32])
            rounds.append(values)

    def control():
        yield from migrator.add_dpu()
        done[0] = True

    sim.process(reader())
    sim.process(control())
    sim.run(until=1.0)
    assert done[0]
    assert rounds, "reader made no progress"
    assert all(values == [b"v0"] * 32 for values in rounds)
    forwarded = sum(f.forwarded_ops for f in cluster.forwarders.values())
    assert forwarded > 0, "migration window produced no forwarded ops"


def test_sharded_cluster_rejects_bad_config():
    sim = Simulator()
    network = Network(sim)
    with pytest.raises(ConfigurationError):
        ShardedKvCluster(sim, network, dpu_count=0)
    with pytest.raises(ConfigurationError):
        ShardedKvCluster(sim, network, queue_capacity=8, workers=1)
    cluster = _sharded(sim, dpus=1)
    with pytest.raises(ConfigurationError):
        ShardedKvClient(sim, cluster, name="x", batch_limit=0)
    with pytest.raises(ConfigurationError):
        ShardMigrator(sim, cluster, segment_keys=0)
