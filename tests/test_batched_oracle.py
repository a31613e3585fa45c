"""The callback fan-out of multi-key ops against the processes it replaced.

``ShardedKvClient._batched`` sends each sub-batch of a multi-owner op
from a scheduled callback and settles its answer in the entry that
delivers it; ``RpcClient.call_batch`` is ``issue_batch`` plus a wait.
The runner process per sub-batch and the generator ``call_batch`` they
replaced are kept in ``tests/batched_reference.py``. Both versions run
the same generated schedule — 1–8 owners, sub-batches split by a small
``batch_limit``, cache on or off, all-hit reads, shed batches, unknown
sub-op methods, ``put_many``, tracing off or sampled at 0, 0.25 and 1 —
and must agree exactly: every completion in the order it happened, its
instant and value or error, every settle and cache fill with its
instant, the order in which servers started handlers, the telemetry
snapshot and the rendered span trees. The new path may only take fewer
engine entries.
"""

from collections import namedtuple
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.net import Network
from repro.sharding import HotKeyCache, ShardedKvClient, ShardedKvCluster
from repro.sim import Simulator
from repro.storage.kvssd import kv_op
from repro.transport import MAX_BATCH_OPS, BatchOp, RpcError

from tests.batched_reference import ReferenceShardedKvClient

KEYS = [f"k{i:02d}".encode() for i in range(24)]

#: ``dpus``: cluster size; ``queue``: per-DPU queue bound (``None``:
#: unbounded; 1 sheds under a burst); ``limit``: the clients'
#: ``batch_limit``; ``lease``: cache lease, ``None`` for no cache;
#: ``rate``: tracing sample rate, ``None`` for tracing off; ``scripts``:
#: per client, ``(think, kind, key indices)`` steps.
Scenario = namedtuple("Scenario", "dpus queue limit lease rate seed scripts")


class RecordingCache(HotKeyCache):
    """A cache that logs every fill with its instant."""

    def __init__(self, sim, log, **kwargs):
        super().__init__(sim, **kwargs)
        self.log = log

    def fill(self, key, value, epoch):
        self.log.append(("fill", self.clock.now, key, value))
        super().fill(key, value, epoch)


def _get_many(client, keys, step):
    return client.get_many(keys)


def _put_many(client, keys, step):
    return client.put_many(
        [(key, b"%s/%d" % (client.name.encode(), step)) for key in keys])


def _get(client, keys, step):
    return client.get(keys[0])


def _mixed(client, keys, step):
    """Process: one batch of reads where every other sub-op names a
    method no server has; returns every settle with its instant, and
    the error the batch raised."""
    settled = []
    ops = [(p, kv_op("kv.get", key) if p % 2 == 0
            else BatchOp("kv.nope", (key,)))
           for p, key in enumerate(keys)]
    try:
        yield from client._batched(
            ops, lambda p, v: settled.append((p, v, client.sim.now)))
    except RpcError as error:
        return settled, str(error)
    return settled, None


OPS = {"many": _get_many, "put_many": _put_many, "get": _get,
       "mixed": _mixed}


def _recording(starts, sim, address, method, handler, *args):
    starts.append((sim.now, address, method, args))
    return handler(*args)


def run(scenario, reference):
    """Everything observable about one run of *scenario*."""
    sim = Simulator()
    cluster = ShardedKvCluster(sim, Network(sim), dpu_count=scenario.dpus,
                               queue_capacity=scenario.queue, workers=2)
    starts = []
    for address, server in cluster.servers.items():
        for method, handler in list(server._handlers.items()):
            server._handlers[method] = partial(
                _recording, starts, sim, address, method, handler)
    client_class = ReferenceShardedKvClient if reference else ShardedKvClient
    loader = client_class(sim, cluster, name="loader",
                          batch_limit=MAX_BATCH_OPS)
    sim.run_process(loader.put_many([(key, b"v0") for key in KEYS]))
    if scenario.rate is not None:
        sim.tracer.enable(sample_rate=scenario.rate, seed=scenario.seed)
    log = []
    clients = []
    for index in range(len(scenario.scripts)):
        cache = None
        if scenario.lease is not None:
            cache = RecordingCache(
                sim, log, capacity=16, lease=scenario.lease,
                metrics=sim.telemetry.scope(f"cache.c{index}"))
        clients.append(client_class(sim, cluster, name=f"c{index}",
                                    cache=cache, batch_limit=scenario.limit))

    def loop(index, client, script):
        for step, (think, kind, picks) in enumerate(script):
            if think:
                yield sim.timeout(think)
            keys = [KEYS[pick] for pick in picks]
            try:
                result = yield from OPS[kind](client, keys, step)
            except RpcError as error:
                result = f"raised {error}"
            log.append(("done", sim.now, index, step, kind, result))

    processes = [sim.process(loop(index, client, script))
                 for index, (client, script)
                 in enumerate(zip(clients, scenario.scripts))]
    sim.run()
    for process in processes:
        process.result()  # a client that never finished fails here
    return {
        "log": log,
        "starts": starts,
        "now": sim.now,
        "telemetry": sim.telemetry.snapshot_bytes(),
        "spans": sim.tracer.render(),
    }, sim._eid


def assert_same(scenario):
    expected, reference_eids = run(scenario, reference=True)
    got, eids = run(scenario, reference=False)
    assert got == expected
    assert eids <= reference_eids
    return expected


steps = st.tuples(
    st.sampled_from([0.0, 0.0, 1e-6, 3e-6, 2e-5]),
    st.sampled_from(["many", "many", "many", "put_many", "get", "mixed"]),
    st.lists(st.integers(0, len(KEYS) - 1), min_size=1, max_size=12),
)
scenarios = st.builds(
    Scenario,
    dpus=st.integers(1, 8),
    queue=st.sampled_from([None, None, 1, 4]),
    limit=st.integers(1, 8),
    lease=st.sampled_from([None, 5e-6, 1e-3]),
    rate=st.sampled_from([None, 0.0, 0.25, 1.0]),
    seed=st.integers(0, 3),
    scripts=st.lists(st.lists(steps, min_size=1, max_size=5),
                     min_size=1, max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(scenarios)
# Two clients' sub-batches at one instant, one owner: the sends must
# each take their own entry, in the order the runners started.
@example(Scenario(1, None, 1, None, None, 0,
                  [[(0.0, "many", [0, 0])], [(0.0, "many", [0])]]))
# A caller that resumes inside the last delivery, ahead of entries
# already queued at that instant, issues its next read too early.
@example(Scenario(4, None, 4, 5e-6, None, 0,
                  [[(0.0, "many", [0, 0, 0, 0, 1]), (0.0, "many", [0])],
                   [(0.0, "many", [6, 1, 17, 17, 23])]]))
def test_generated_schedules_match_the_runner_processes(scenario):
    assert_same(scenario)


SPREAD = list(range(12))
BURST = [(0.0, "many", SPREAD)] * 2


@pytest.mark.parametrize("scenario", [
    # An all-hit get_many: the second read of each client is served
    # from its cache and must not wait at all.
    Scenario(4, None, 4, 1e-3, None, 0,
             [[(0.0, "many", SPREAD), (0.0, "many", SPREAD)]] * 2),
    # Four owners, each split in three by batch_limit 2, three clients
    # racing, traced at every rate.
    *[Scenario(4, None, 2, 5e-6, rate, 1, [BURST] * 3)
      for rate in (None, 0.0, 0.25, 1.0)],
    # One-slot queues: batches are shed while their siblings land.
    Scenario(3, 1, 3, 1e-3, 0.25, 2, [BURST] * 4),
    # Unknown methods among the sub-ops of a multi-owner batch.
    Scenario(5, None, 3, None, 1.0, 0, [[(0.0, "mixed", SPREAD)]] * 2),
    # Multi-owner writes racing multi-owner reads.
    Scenario(8, None, 4, 1e-3, 1.0, 3,
             [[(0.0, "put_many", SPREAD), (1e-6, "many", SPREAD)],
              [(0.0, "many", SPREAD), (0.0, "put_many", SPREAD)]]),
], ids=["all-hit", "split-untraced", "split-rate-0", "split-rate-0.25",
        "split-rate-1", "shed", "unknown-method", "put-many"])
def test_named_schedules_match_the_runner_processes(scenario):
    assert_same(scenario)
