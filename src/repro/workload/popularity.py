"""Zipfian key popularity with tunable skew.

Real key-value traffic is never uniform: a handful of keys absorb most
of the load (session tokens, home-page fragments, celebrity profiles).
:class:`ZipfKeys` models that with the classic Zipf-Mandelbrot weight
``w_i = 1 / (i + 1)^skew`` over a fixed key universe, so the traffic
generators can reproduce the hot-key concentration that makes caching,
migration, and autoscaling interesting.

Draws go through ``random.Random`` instances owned by the caller, so
the stream is a pure function of the seed — same seed, byte-identical
key sequence, independent of ``PYTHONHASHSEED``.

>>> from random import Random
>>> keys = ZipfKeys(128, skew=1.0)
>>> keys.key(0)
b'key-00000'
>>> rng = Random("doc/zipf")
>>> [keys.pick_index(rng) for _ in range(6)]
[3, 16, 4, 38, 0, 2]
>>> 0.4 < keys.hot_mass(8) < 0.6   # top 8 of 128 keys draw ~half the load
True
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List

from repro.common.errors import ConfigurationError

__all__ = ["ZipfKeys"]


class ZipfKeys:
    """A fixed key universe with Zipf(``skew``) popularity weights.

    ``skew=0`` degenerates to uniform; ``skew~1`` matches the classic
    web-object distribution; higher values concentrate the mass onto
    ever fewer keys.  Weights are precomputed into a cumulative table,
    so :meth:`pick_index` is one ``rng.random()`` plus a bisect.
    """

    def __init__(self, count: int, skew: float = 1.0) -> None:
        if count < 1:
            raise ConfigurationError("zipf key count must be >= 1")
        if skew < 0:
            raise ConfigurationError("zipf skew must be >= 0")
        self.count = count
        self.skew = skew
        self._keys = [f"key-{i:05d}".encode() for i in range(count)]
        cumulative: List[float] = []
        total = 0.0
        for rank in range(count):
            total += 1.0 / float(rank + 1) ** skew
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def key(self, index: int) -> bytes:
        """The key at popularity rank *index* (0 = hottest)."""
        return self._keys[index]

    def keys(self) -> List[bytes]:
        """All keys in rank order (a copy; safe to mutate)."""
        return list(self._keys)

    def pick_index(self, rng) -> int:
        """Draw one popularity rank from *rng* (caller owns the stream)."""
        return bisect_left(self._cumulative, rng.random() * self._total)

    def pick(self, rng) -> bytes:
        """Draw one key from *rng* according to the Zipf weights."""
        return self._keys[self.pick_index(rng)]

    def span(self, start: int, length: int) -> List[bytes]:
        """*length* consecutive keys starting at rank *start*, wrapping."""
        return [self._keys[(start + i) % self.count] for i in range(length)]

    def hot_mass(self, top: int) -> float:
        """Fraction of total popularity carried by the *top* hottest keys."""
        if top <= 0:
            return 0.0
        if top >= self.count:
            return 1.0
        return self._cumulative[top - 1] / self._total

    def describe(self) -> str:
        """One canonical line, used in workload-spec echoes and reports."""
        return (
            f"zipf keys={self.count} skew={self.skew!r} "
            f"hot8={self.hot_mass(8):.3f}"
        )
