"""Chain replication as a client policy over the KV cluster (§2.4, §4).

The paper's discussion question 3 asks how to build applications
"executed over multiple DPUs". Following the cited MICA pattern, routing
is client-driven, with no coordinator in the data path:
:class:`FailoverKvClient` sends each key to the K DPUs of its replica
chain on a :class:`~repro.sharding.ShardedKvCluster`. E13 storms it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, DegradedError
from repro.sharding.cluster import ShardedKvCluster
from repro.sharding.core import KvClientCore
from repro.sim import Simulator
from repro.storage.kvssd import KV_ACK, KV_HEADER, KV_VALUE
from repro.transport import RetryPolicy

__all__ = ["FailoverKvClient"]

#: Per-call wire timing (exponential backoff from ``CALL_TIMEOUT``), and
#: the failed calls that open a replica's circuit and for how long.
CALL_TIMEOUT = 1.5e-3
CALL_RETRIES = 1
CALL_DEADLINE = 50e-3
CALL_POLICY = RetryPolicy(base=CALL_TIMEOUT, multiplier=2.0,
                          max_interval=CALL_TIMEOUT * 8, jitter=0.1)
BREAKER_FAILURES = 3
BREAKER_RESET = CALL_TIMEOUT * 20


class FailoverKvClient(KvClientCore):
    """Client-driven failover over a :class:`ShardedKvCluster`.

    Chain replication as a policy on the shared
    :class:`~repro.sharding.core.KvClientCore`: a key's replica chain is
    the *replication* distinct DPUs clockwise from it on the cluster's
    ring, head (the ring owner) first. Writes walk the chain
    head-to-tail; any live replica serves a read, so the DPUs stay dumb
    and shared-nothing. Replicas that time out are marked down in the
    client's health map and demoted in read order; any answer marks
    them up again. Every RPC carries a timeout, bounded retries with
    backoff + jitter, and a deadline: a dead DPU costs a few retransmit
    intervals, never a hung simulation.

    Each replica is additionally guarded by a
    :class:`~repro.overload.CircuitBreaker`: after a few consecutive
    failed calls the circuit opens and further calls to that replica are
    refused *instantly* — an immediate failover down the chain instead
    of burning the per-call deadline re-timing-out against a corpse.
    """

    def __init__(self, sim: Simulator, cluster: ShardedKvCluster, name: str,
                 replication: int):
        members = cluster.members()
        if not 1 <= replication <= len(members):
            raise ConfigurationError(
                f"replication factor {replication} needs "
                f"1..{len(members)} replicas"
            )
        super().__init__(
            sim, cluster.network.endpoint(name), name, timeout=CALL_TIMEOUT,
            retries=CALL_RETRIES, deadline=CALL_DEADLINE, policy=CALL_POLICY,
        )
        self.cluster = cluster
        self.replication = replication
        self.health: Dict[str, bool] = {address: True for address in members}
        scope = sim.telemetry.unique_scope(f"dpu.failover.{name}")
        self._reads = scope.counter("reads")
        self._writes = scope.counter("writes")
        self._failed_ops = scope.counter("failed_ops")
        # Ops that only succeeded on a non-head replica.
        self._failovers = scope.counter("failovers")
        # Individual replica RPCs that timed out or errored.
        self._replica_failures = scope.counter("replica_failures")
        self._marked_down = scope.gauge("marked_down")
        self._guard(scope, {a: a for a in members}, BREAKER_FAILURES,
                    BREAKER_RESET)

    # -- read-through counters -------------------------------------------------
    @property
    def failed_ops(self) -> int:
        """Ops no replica could serve."""
        return self._failed_ops.value

    @property
    def failovers(self) -> int:
        """Ops that only succeeded on a non-head replica."""
        return self._failovers.value

    @property
    def replica_failures(self) -> int:
        """Individual replica RPCs that timed out or errored."""
        return self._replica_failures.value

    @property
    def marked_down(self) -> List[str]:
        """Replicas the health map currently holds down."""
        return [a for a, up in self.health.items() if not up]

    # -- internals -----------------------------------------------------------
    def _set_health(self, address: str, up: bool) -> None:
        """Record a health change; the gauge follows the map both ways."""
        if self.health[address] is not up:
            self.health[address] = up
            self._marked_down.set(len(self.marked_down))

    def _mark_down(self, address: str) -> None:
        self._set_health(address, False)
        self._replica_failures.inc()

    # -- the KV surface ------------------------------------------------------
    def _write(self, action: str, method: str, key: bytes,
               value: Optional[bytes], request_size: int):
        """Process: the one write path — every replica of the chain, in
        order, as successive first answers: each ack marks its replica up
        and the walk resumes after it. One ack suffices for availability
        (skipped replicas are marked down for repair). Returns the ack
        count."""
        pending = self.history.invoke(self.name, action, key, value)
        chain = self.cluster.ring.replicas_of(key, self.replication)
        replicas = iter(chain)
        acked = sent = 0
        while True:
            address, answer, attempts = yield from self._first_answer(
                replicas, method, key, value, request_size=request_size,
                response_size=KV_ACK, on_failure=self._mark_down,
            )
            sent += attempts
            if address is None:
                break
            self._set_health(address, True)
            if acked == 0 and address != chain[0]:
                self._failovers.inc()
            acked += 1
        if acked == 0:
            self._failed_ops.inc()
            # Zero acks does not mean zero effect: a request may have
            # landed on a replica whose response frame was lost.
            pending.raised(sent=sent > 0)
            raise DegradedError(
                f"{method} {key!r}: no replica reachable ({answer})"
            )
        self._writes.inc()
        pending.ok()
        return acked

    def get(self, key: bytes, expected_value_size: int = KV_VALUE):
        """Process: read from the first live replica, failing over down
        the chain when the preferred one is dead."""
        key = bytes(key)
        pending = self.history.invoke(self.name, "r", key)
        chain = self.cluster.ring.replicas_of(key, self.replication)
        # The replica chain, healthy members first (stable order).
        ordered = ([a for a in chain if self.health[a]]
                   + [a for a in chain if not self.health[a]])
        address, value, __ = yield from self._first_answer(
            ordered, "kv.get", key, request_size=KV_HEADER + len(key),
            response_size=expected_value_size, on_failure=self._mark_down,
        )
        if address is None:
            self._failed_ops.inc()
            pending.raised()
            raise DegradedError(f"get {key!r}: no replica reachable ({value})")
        self._set_health(address, True)
        if address != chain[0]:
            self._failovers.inc()
        self._reads.inc()
        pending.ok(value)
        return value
