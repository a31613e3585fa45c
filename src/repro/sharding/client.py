"""The scale-out KV client: ring routing + hot-key cache + batched RPC.

The client side of the scale-out data plane. A
:class:`ShardedKvClient` owns one egress socket and, per op, does three
things the naive per-op client cannot:

* **route** on the cluster's shared :class:`~repro.sharding.ring.
  HashRing` — no directory service, no lookup round trip;
* **cache** hot values under a lease, tagged with the routing epoch so
  one migration commit invalidates every stale entry at once;
* **batch** multi-key ops (:meth:`get_many` / :meth:`put_many`) into
  one :meth:`~repro.transport.RpcClient.call_batch` round trip per
  owner per ``batch_limit`` keys — one wire request, one admission
  token, one queue slot for the whole segment.

E16 sweeps these knobs: the ≥4× 8-DPU goodput target only holds with
batching and caching on, which is the point.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.sharding.cache import HotKeyCache
from repro.sharding.cluster import ShardedKvCluster
from repro.sharding.core import KvClientCore
from repro.sim import Simulator
from repro.storage.kvssd import KV_ACK, KV_HEADER, KV_VALUE, kv_op
from repro.transport import BatchOp, MAX_BATCH_OPS, RpcError

__all__ = ["ShardedKvClient"]


class ShardedKvClient(KvClientCore):
    """One tenant's handle onto a :class:`ShardedKvCluster`.

    A :class:`~repro.sharding.core.KvClientCore` whose placement is the
    ring owner: one candidate per key, no breaker.

    Args:
        sim: the simulator.
        cluster: the cluster to route against. The client reads the
            cluster's live ring and epoch on **every** op, so it follows
            topology changes as soon as they commit — between a handoff
            and the commit it routes to the old owner, whose forwarding
            stub proxies the op.
        name: unique suffix for this client's endpoint and metrics.
        cache: optional :class:`~repro.sharding.cache.HotKeyCache`;
            ``None`` disables client-side caching entirely.
        batch_limit: max ops coalesced into one wire request by the
            multi-key paths (clamped to the transport's
            :data:`~repro.transport.MAX_BATCH_OPS`).
        timeout / retries / deadline: per-call wire timing for the
            single-key ops. The defaults wait forever — right for a
            healthy fabric; chaos runs set them so an op parked on a
            blackholed DPU resolves as a *failed* (read) or
            *indeterminate* (write) outcome instead of wedging its
            client process.
        history: optional :class:`~repro.verify.HistoryRecorder`; when
            set, the single-key ops record invoke/outcome on the sim
            clock for consistency checking.
    """

    def __init__(self, sim: Simulator, cluster: ShardedKvCluster,
                 name: str = "client", *,
                 cache: Optional[HotKeyCache] = None,
                 batch_limit: int = 16,
                 timeout: Optional[float] = None,
                 retries: int = 0,
                 deadline: Optional[float] = None,
                 history=None):
        if not 1 <= batch_limit <= MAX_BATCH_OPS:
            raise ConfigurationError(
                f"batch_limit must be in 1..{MAX_BATCH_OPS}"
            )
        super().__init__(
            sim, cluster.network.endpoint(f"shard-client-{name}"), name,
            timeout=timeout, retries=retries, deadline=deadline,
            history=history,
        )
        self.cluster = cluster
        self.cache = cache
        self.batch_limit = batch_limit
        self._metrics = sim.telemetry.unique_scope(f"shard.client.{name}")
        self._ops = self._metrics.counter("ops")
        self._round_trips = self._metrics.counter("round_trips")
        self._cache_served = self._metrics.counter("cache_served")

    # -- read-through counters -------------------------------------------------
    @property
    def ops(self) -> int:
        """Logical KV operations completed by this client."""
        return self._ops.value

    @property
    def round_trips(self) -> int:
        """Wire round trips issued (batching makes this < :attr:`ops`)."""
        return self._round_trips.value

    # -- single-key ops --------------------------------------------------------
    def get(self, key: bytes):
        """Process: read one key (cache → owner DPU), returns the value."""
        key = bytes(key)
        epoch = self.cluster.epoch
        # Invoked before the cache lookup: a lease-served value is an
        # observation too, and a stale one must reach the checker.
        pending = self.history.invoke(self.name, "r", key)
        if self.cache is not None:
            cached = self.cache.lookup(key, epoch)
            if cached is not None:
                self._ops.value += 1
                self._cache_served.value += 1
                pending.ok(cached)
                return cached
        owner = self.cluster.owner_of(key)
        try:
            value = yield from self._call(
                owner, "kv.get", key,
                request_size=KV_HEADER + len(key), response_size=KV_VALUE,
            )
        except RpcError:
            pending.raised()
            raise
        self._ops.value += 1
        self._round_trips.value += 1
        if self.cache is not None and value is not None:
            self.cache.fill(key, value, epoch)
        pending.ok(value)
        return value

    def put(self, key: bytes, value: bytes):
        """Process: write one key to its owner; invalidates the cache."""
        key, value = bytes(key), bytes(value)
        return self._write("w", "kv.put", key, value,
                           KV_HEADER + len(key) + len(value))

    def delete(self, key: bytes):
        """Process: delete one key at its owner; invalidates the cache."""
        key = bytes(key)
        return self._write("d", "kv.delete", key, None, KV_HEADER + len(key))

    def _write(self, action: str, method: str, key: bytes,
               value: Optional[bytes], request_size: int):
        """Process: the one write path — a put, or a delete (no value)."""
        owner = self.cluster.owner_of(key)
        pending = self.history.invoke(self.name, action, key, value)
        try:
            yield from self._call(
                owner, method, key, value,
                request_size=request_size, response_size=KV_ACK,
            )
        except RpcError:
            # The request (or only its ack) may have been lost: the
            # write may have landed. Never record it as a clean failure.
            pending.raised()
            raise
        self._ops.value += 1
        self._round_trips.value += 1
        if self.cache is not None:
            self.cache.invalidate(key)
        pending.ok()
        return True

    # -- batched multi-key ops -------------------------------------------------
    def _batched(self, ops: List[Tuple[int, BatchOp]], settle):
        """Process: the one batched path for ``(position, op)`` pairs.

        Ops are grouped by their key's owner and coalesced into one
        batch per owner per :attr:`batch_limit` ops; each answer goes to
        ``settle(position, result)`` inside the entry that delivers it,
        so a cache fill carries its own sub-batch's delivery instant.
        The per-owner sub-batches of one multi-key op travel in
        parallel, so the op's latency is the *slowest* owner's round
        trip, not the sum — without this, a batch spanning many DPUs
        serializes and scaling flattens.

        No process runs per sub-batch: each is sent from a scheduled
        callback (one entry, where a sender process's start was) and
        settled by :meth:`~repro.transport.RpcClient.issue_batch`'s
        answer callback; the caller waits on one event, succeeded as
        the last sub-batch settles, and resumes in an entry of its own.
        The first sub-batch failure is re-raised after every sub-batch
        has settled (no orphaned in-flight work). No misses means no
        wait at all; a single sub-batch has nothing to overlap with and
        runs in the caller's process.
        """
        groups: Dict[str, List[Tuple[int, BatchOp]]] = {}
        owner_of = self.cluster.ring.owner_of
        for entry in ops:
            groups.setdefault(owner_of(entry[1].args[0]), []).append(entry)
        limit = self.batch_limit
        chunks = [
            (owner, group[start:start + limit])
            for owner, group in groups.items()
            for start in range(0, len(group), limit)
        ]
        if not chunks:
            return
        if len(chunks) == 1:
            owner, chunk = chunks[0]
            responses = yield from self.rpc.call_batch(
                owner, [op for __, op in chunk]
            )
            self._settle(chunk, responses, settle)
            return
        done = self.sim.event()
        errors: List[RpcError] = []
        remaining = len(chunks)

        def answered(chunk, response) -> None:
            nonlocal remaining
            try:
                if not response.ok:
                    raise RpcError(response.error)
                self._settle(chunk, response.result, settle)
            except RpcError as error:
                errors.append(error)
            remaining -= 1
            if not remaining:
                done.succeed()

        for owner, chunk in chunks:
            self.sim.call_later(0.0, partial(
                self.rpc.issue_batch, owner, [op for __, op in chunk],
                partial(answered, chunk),
            ))
        yield done
        if errors:
            raise errors[0]

    def _settle(self, chunk: List[Tuple[int, BatchOp]], responses,
                settle) -> None:
        """Count one round trip and settle *chunk*'s answers in order;
        the first failed sub-op raises, after those before it settled."""
        self._round_trips.value += 1
        for (p, __), response in zip(chunk, responses):
            if not response.ok:
                raise RpcError(response.error)
            settle(p, response.result)

    def get_many(self, keys: Iterable[bytes]):
        """Process: read many keys with batched, owner-grouped RPCs.

        Returns values aligned with *keys* (``None`` for absent keys).
        Cache hits are served locally; only misses go to the wire, one
        ``call_batch`` per owner per :attr:`batch_limit` misses.
        """
        keys = [bytes(key) for key in keys]
        epoch = self.cluster.epoch
        cache = self.cache
        if cache is None:
            values: List[object] = [None] * len(keys)
        else:
            lookup = cache.lookup
            values = [lookup(key, epoch) for key in keys]
        misses = [(position, kv_op("kv.get", key))
                  for position, key in enumerate(keys) if values[position] is None]
        # Nothing above yields: counting the hits once is invisible.
        self._cache_served.value += len(keys) - len(misses)

        def fill(p, value):
            values[p] = value
            if cache is not None and value is not None:
                cache.fill(keys[p], value, epoch)

        yield from self._batched(misses, fill)
        self._ops.value += len(keys)
        return values

    def put_many(self, pairs: Iterable[Tuple[bytes, bytes]]):
        """Process: write many pairs with batched, owner-grouped RPCs."""
        ops = [(p, kv_op("kv.put", bytes(k), bytes(v)))
               for p, (k, v) in enumerate(pairs)]

        def invalidate(p, _result):
            if self.cache is not None:
                self.cache.invalidate(ops[p][1].args[0])

        yield from self._batched(ops, invalidate)
        self._ops.value += len(ops)
        return True
