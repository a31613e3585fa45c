"""The scale-out data plane: sharding, live migration, batching, caching.

Paper §2.4's multi-DPU workload class only pays off at rack scale, where
many wimpy DPUs jointly serve what one brawny host did. This package is
the client/coordination machinery that makes that scaling real:

* :class:`HashRing` — consistent hashing with virtual nodes, the
  deterministic placement function every cluster and client shares;
* :class:`ShardedKvCluster` / :class:`ShardMigrator` — elastic cluster
  membership: a DPU added or drained mid-run hands its key ranges off
  over the simulated network while a forwarding stub keeps serving
  in-flight keys (a topology change is a latency event, not an outage);
* :class:`HotKeyCache` — a client-side lease/epoch cache that stays
  coherent across migrations;
* :class:`ShardedKvClient` — ring routing + the cache + batched RPC
  (:meth:`repro.transport.RpcClient.call_batch`) in one client;
* :class:`FailoverKvClient` — chain replication as a client policy:
  each key on its K ring successors, health-ordered reads, a circuit
  breaker per replica (E13's storm client).

E16 (:mod:`repro.eval.scaleout`, ``make exp E=e16``) measures the result:
aggregate throughput vs DPU count with and without batching+caching, and
a mid-run scale-out event with zero failed ops.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("CacheEntry", "HotKeyCache"),
    "cluster": ("ShardedKvCluster", "ShardForwarder"),
    "client": ("ShardedKvClient",),
    "failover": ("FailoverKvClient",),
    "migration": ("MigrationReport", "ShardMigrator"),
    "ring": ("DEFAULT_VNODES", "HashRing"),
})
