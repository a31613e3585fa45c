"""The rules of the shared KV client core, held across all three clients.

``ShardedKvClient``, ``FailoverKvClient`` and ``GeoKvClient`` stand on
one :class:`~repro.sharding.core.KvClientCore`: one outcome rule for an
op that raised, and one candidate walk in which a circuit refusal is
not an attempt.
"""

import pytest

from repro.common.errors import DegradedError
from repro.georep import GeoCluster, GeoKvClient
from repro.hw.net import Network
from repro.sharding import FailoverKvClient, ShardedKvClient, ShardedKvCluster
from repro.sim import Simulator
from repro.transport import RpcError
from repro.verify import HistoryRecorder, OpStatus


class _Stack:
    """One client on its own small cluster, recording into a history."""

    #: The client's endpoint address (its RPC metrics live under it).
    address = ""
    #: Where the client registers its breakers' metrics.
    scope = ""

    def run(self, process):
        return self.sim.run_process(process)

    def cut_replies(self) -> None:
        """Requests still arrive; every answer to the client is lost."""
        self.switch.blackhole(self.address)

    def rpc_calls(self) -> int:
        return self.sim.telemetry.get(f"rpc.client.{self.address}.calls").value

    def rejected(self, candidate) -> int:
        path = f"{self.scope}.breaker.{candidate}.rejected"
        return self.sim.telemetry.get(path).value

    def open_circuit(self, candidate) -> None:
        breaker = self.client.breakers[candidate]
        for __ in range(breaker.failure_threshold):
            breaker.record_failure()


class _Sharded(_Stack):
    address = "shard-client-c"

    def __init__(self):
        self.sim = Simulator()
        self.history = HistoryRecorder(self.sim)
        cluster = ShardedKvCluster(self.sim, Network(self.sim), dpu_count=2,
                                   ssd_blocks=4096)
        self.switch = cluster.network.switch
        self.client = ShardedKvClient(self.sim, cluster, "c", timeout=1e-3,
                                      history=self.history)


class _Failover(_Stack):
    address = "c"
    scope = "dpu.failover.c"

    def __init__(self):
        self.sim = Simulator()
        self.history = HistoryRecorder(self.sim)
        self.cluster = ShardedKvCluster(self.sim, Network(self.sim),
                                        dpu_count=3, name="kv")
        self.switch = self.cluster.network.switch
        self.client = FailoverKvClient(self.sim, self.cluster, "c", 2)
        self.client.history = self.history

    def candidates(self, key):
        return self.cluster.ring.replicas_of(key, 2)

    def attempts_spent(self) -> int:
        return self.client.replica_failures


class _Geo(_Stack):
    address = "geo-c"
    scope = "geo.client.c"

    def __init__(self):
        self.sim = Simulator()
        self.history = HistoryRecorder(self.sim)
        self.cluster = GeoCluster(self.sim, ("a", "b"))
        self.switch = self.cluster.region("a").network.switch
        self.client = GeoKvClient(self.sim, self.cluster, "c", home="a",
                                  rounds=1, history=self.history)

    def run(self, process):
        # Log shippers never let the heap drain: run a bounded window,
        # then stop them and let the stragglers out.
        process = self.sim.process(process)
        self.sim.run(until=0.5)
        self.cluster.stop()
        self.sim.run()
        if not process.ok:
            raise process.value
        return process.value

    def candidates(self, key):
        return self.client.preference

    def attempts_spent(self) -> int:
        return self.client.replayed_writes


ALL = [_Sharded, _Failover, _Geo]
GUARDED = [_Failover, _Geo]


def _only_op(stack):
    [op] = stack.history.ops
    return op


@pytest.mark.parametrize("stack", ALL, ids=lambda s: s.__name__[1:])
def test_a_sent_write_with_no_answer_is_indeterminate(stack):
    stack = stack()
    stack.cut_replies()
    with pytest.raises((RpcError, DegradedError)):
        stack.run(stack.client.put(b"k", b"v"))
    assert stack.rpc_calls() > 0
    assert _only_op(stack).status is OpStatus.INDETERMINATE


@pytest.mark.parametrize("stack", ALL, ids=lambda s: s.__name__[1:])
def test_a_read_with_no_answer_fails(stack):
    stack = stack()
    stack.cut_replies()
    with pytest.raises((RpcError, DegradedError)):
        stack.run(stack.client.get(b"k"))
    assert stack.rpc_calls() > 0
    assert _only_op(stack).status is OpStatus.FAIL


@pytest.mark.parametrize("stack", GUARDED, ids=lambda s: s.__name__[1:])
def test_a_write_no_circuit_let_out_fails(stack):
    """Regression: with every candidate's circuit open no request is
    sent, yet the write was recorded indeterminate — so the checker had
    to let an op that definitely did not happen land at any time."""
    stack = stack()
    for candidate in stack.candidates(b"k"):
        stack.open_circuit(candidate)
    with pytest.raises(DegradedError):
        stack.run(stack.client.put(b"k", b"v"))
    assert stack.rpc_calls() == 0
    assert _only_op(stack).status is OpStatus.FAIL


@pytest.mark.parametrize("stack", GUARDED, ids=lambda s: s.__name__[1:])
def test_a_circuit_refusal_is_not_an_attempt(stack):
    stack = stack()
    first = stack.candidates(b"k")[0]
    stack.open_circuit(first)
    stack.run(stack.client.put(b"k", b"v"))
    assert stack.rejected(first) == 1
    assert stack.client.failovers == 1
    assert stack.attempts_spent() == 0
    assert _only_op(stack).status is OpStatus.OK
