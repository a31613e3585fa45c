"""Client-side hot-key cache with lease/epoch invalidation.

The scale-out data plane's third leg (after sharding and batching): a
client that re-reads the same hot keys should not pay a network round
trip per read. The cache is *coherent by construction* against the two
ways a cached value can go stale:

* **Leases** bound staleness from concurrent writers: every fill carries
  a lease; a hit after the lease expires (on the simulated clock) is a
  miss, forcing a re-read. This is the classic lease discipline — the
  server never tracks readers, the reader just promises not to trust a
  value for longer than the lease.
* **Epochs** handle topology changes: every fill is stamped with the
  routing epoch it was read under. Live shard migration bumps the
  cluster epoch, so every entry cached against the old shard map is
  invalid the moment the new map is visible — a migrated key can never
  serve a value read from its old home.

Entries are evicted LRU once ``capacity`` is reached. All counters land
in ``cache.*`` telemetry scopes.

>>> class _Clock:
...     now = 0.0
>>> cache = HotKeyCache(_Clock(), capacity=2, lease=1.0)
>>> cache.fill(b"k", b"v", epoch=1)
>>> cache.lookup(b"k", epoch=1)
b'v'
>>> cache.lookup(b"k", epoch=2) is None   # migration bumped the epoch
True
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.telemetry import MetricScope

__all__ = ["HotKeyCache", "CacheEntry"]


@dataclass
class CacheEntry:
    """One cached value: payload, lease expiry, fill-time routing epoch."""

    value: bytes
    expires: float
    epoch: int


class HotKeyCache:
    """A bounded LRU read cache keyed by lease expiry and routing epoch.

    Args:
        clock: anything exposing ``now`` (usually the simulator).
        capacity: maximum resident entries; LRU eviction beyond it.
        lease: seconds (simulated) a fill may be trusted.
        metrics: telemetry scope for ``hits/misses/...`` counters; a
            standalone ``cache`` scope when omitted.
    """

    def __init__(self, clock, capacity: int = 128, lease: float = 5e-3,
                 metrics: Optional[MetricScope] = None):
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        if lease <= 0:
            raise ConfigurationError("cache lease must be positive")
        self.clock = clock
        self.capacity = capacity
        self.lease = lease
        self._entries: "OrderedDict[bytes, CacheEntry]" = OrderedDict()
        metrics = (
            metrics if metrics is not None
            else MetricScope.standalone("cache")
        )
        self._hits = metrics.counter("hits")
        self._misses = metrics.counter("misses")
        self._lease_expired = metrics.counter("lease_expired")
        self._epoch_invalidated = metrics.counter("epoch_invalidated")
        self._evicted = metrics.counter("evicted")
        self._invalidated = metrics.counter("invalidated")
        self._size = metrics.gauge("size")

    # -- counters (read-through) ---------------------------------------------
    @property
    def hits(self) -> int:
        """Lookups served from a live, epoch-valid entry."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Lookups that found nothing servable (cold, expired, or stale)."""
        return self._misses.value

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- the cache surface ---------------------------------------------------
    def lookup(self, key: bytes, epoch: int) -> Optional[bytes]:
        """The cached value, or ``None`` on miss/expiry/epoch mismatch.

        Args:
            key: the key being read.
            epoch: the reader's *current* routing epoch; entries filled
                under an older epoch are discarded (topology changed
                under them).
        """
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
            return None
        if entry.epoch != epoch:
            del self._entries[key]
            self._epoch_invalidated.inc()
            self._misses.inc()
            self._size.set(len(self._entries))
            return None
        if self.clock.now >= entry.expires:
            del self._entries[key]
            self._lease_expired.inc()
            self._misses.inc()
            self._size.set(len(self._entries))
            return None
        self._entries.move_to_end(key)
        self._hits.inc()
        return entry.value

    def fill(self, key: bytes, value: bytes, epoch: int) -> None:
        """Install a freshly-read value under the reader's epoch."""
        self._entries[key] = CacheEntry(
            value=value, expires=self.clock.now + self.lease, epoch=epoch,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evicted.inc()
        self._size.set(len(self._entries))

    def invalidate(self, key: bytes) -> None:
        """Drop one key (the caller wrote or deleted it)."""
        if self._entries.pop(key, None) is not None:
            self._invalidated.inc()
            self._size.set(len(self._entries))
