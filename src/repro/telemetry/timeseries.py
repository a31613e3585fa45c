"""Clock-driven metric sampling into ring-buffered time series.

End-of-run totals say *what* happened; a time series says *when*. The
:class:`Sampler` snapshots watched registry metrics at a fixed simulated
-time period:

* a counter or gauge at path ``p`` produces one series named ``p``
  holding its raw value over time (``Series.rate`` turns a counter
  series into a per-second rate);
* a histogram at path ``p`` produces a cumulative ``p.count`` series
  plus *interval* series ``p.mean`` / ``p.max`` / ``p.p99`` computed
  over only the samples observed since the previous tick (via a
  cursor, so sampling stays O(new samples)). Ticks with no fresh
  samples append no interval points — a silent histogram produces a
  gap, not a misleading zero.

Series are ring buffers (the newest :data:`SERIES_CAPACITY` points), and every
windowed aggregation (``rate``, ``mean``, ``max``, ``quantile``) reads
the points inside a trailing simulated-time window. All of it follows
the determinism contract: sampling runs on the simulated clock, and
``snapshot_bytes()`` renders every series canonically.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)

__all__ = ["Series", "Sampler"]

#: One sampled point: (simulated time, value).
Point = Tuple[float, float]

#: Points a series keeps; the oldest is evicted past this.
SERIES_CAPACITY = 1024


class Series:
    """A ring buffer of ``(time, value)`` points for one statistic."""

    __slots__ = ("name", "_points")

    def __init__(self, name: str):
        self.name = name
        self._points: Deque[Point] = deque(maxlen=SERIES_CAPACITY)

    # -- recording -----------------------------------------------------------
    def append(self, when: float, value: float) -> None:
        """Record (*when*, *value*), evicting the oldest point when full."""
        if self._points and when < self._points[-1][0]:
            raise ConfigurationError(
                f"series {self.name}: time went backwards "
                f"({when!r} < {self._points[-1][0]!r})"
            )
        self._points.append((when, float(value)))

    # -- reading -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> Tuple[Point, ...]:
        """All retained points, oldest first."""
        return tuple(self._points)

    @property
    def last(self) -> Optional[Point]:
        """The most recent point, or ``None`` when empty."""
        return self._points[-1] if self._points else None

    def window(self, duration: Optional[float] = None) -> List[Point]:
        """Points inside the trailing ``duration`` ending at the newest
        point (``None``: every retained point)."""
        if not self._points:
            return []
        if duration is None:
            return list(self._points)
        start = self._points[-1][0] - duration
        return [(t, v) for t, v in self._points if start <= t]

    # -- aggregation -----------------------------------------------------------
    def rate(self, duration: Optional[float] = None) -> float:
        """Per-second increase across the window (counter series slope)."""
        points = self.window(duration)
        if len(points) < 2:
            return 0.0
        (t0, v0), (t1, v1) = points[0], points[-1]
        return (v1 - v0) / (t1 - t0) if t1 > t0 else 0.0

    def mean(self) -> float:
        """Mean of every retained value."""
        if not self._points:
            return 0.0
        return sum(v for __, v in self._points) / len(self._points)

    def max(self) -> float:
        """Largest retained value."""
        return max((v for __, v in self._points), default=0.0)

    def quantile(self, fraction: float) -> float:
        """Interpolated quantile (0..1) of every retained value."""
        return percentile([v for __, v in self._points], fraction)

    def snapshot_line(self) -> str:
        """One canonical line summarizing the series for snapshots."""
        rendered = " ".join(f"{t!r}:{v!r}" for t, v in self._points)
        return f"series {self.name} n={len(self._points)} {rendered}".rstrip()

    def __repr__(self) -> str:
        return f"Series({self.name}, n={len(self._points)})"


#: Histogram interval statistics a sampler derives per tick.
_INTERVAL_STATS = ("mean", "max", "p99")


class Sampler:
    """Periodically snapshots watched metrics into :class:`Series`.

    Works against any clock exposing ``now`` (a ``Simulator``, or a
    hand-stepped test clock): call :meth:`sample` yourself, or let :meth:`run`
    drive a workload process with a sampling side-process on the same
    simulator. ``on_sample`` hooks (the SLO monitor) fire after each
    tick with the tick's timestamp.
    """

    def __init__(self, registry: MetricsRegistry, clock,
                 period: float = 1e-3):
        if period <= 0:
            raise ConfigurationError("sampler period must be positive")
        self.registry = registry
        self.clock = clock
        self.period = period
        self.ticks = 0
        self.on_sample: List[Callable[[float], None]] = []
        self._watched: List[str] = []
        self._prefixes: List[str] = []
        self._series: Dict[str, Series] = {}
        self._cursors: Dict[str, int] = {}

    # -- selection -----------------------------------------------------------
    def watch(self, path: str) -> "Sampler":
        """Sample the metric at exactly ``path`` (resolved at each tick,
        so watching before the component registers is fine)."""
        if path not in self._watched:
            self._watched.append(path)
        return self

    def watch_prefix(self, prefix: str) -> "Sampler":
        """Sample every metric under ``prefix`` (re-expanded each tick)."""
        if prefix not in self._prefixes:
            self._prefixes.append(prefix)
        return self

    def _resolved_paths(self) -> List[str]:
        paths = set(self._watched)
        for prefix in self._prefixes:
            paths.update(self.registry.paths(prefix))
        return sorted(paths)

    # -- series access -------------------------------------------------------
    def _series_for(self, name: str) -> Series:
        series = self._series.get(name)
        if series is None:
            series = Series(name)
            self._series[name] = series
        return series

    def series(self, name: str) -> Optional[Series]:
        """The recorded series for *name*, or ``None`` if never watched."""
        return self._series.get(name)

    def names(self) -> List[str]:
        """Names of all watched series, sorted."""
        return sorted(self._series)

    # -- sampling ------------------------------------------------------------
    def sample(self) -> int:
        """Take one snapshot at the clock's current time.

        Returns the number of points appended across all series.
        """
        now = self.clock.now
        self.ticks += 1
        appended = 0
        for path in self._resolved_paths():
            metric = self.registry.get(path)
            if metric is None:
                continue
            if isinstance(metric, (Counter, Gauge)):
                self._series_for(path).append(now, metric.value)
                appended += 1
            elif isinstance(metric, Histogram):
                self._series_for(f"{path}.count").append(now, metric.count)
                appended += 1
                cursor = self._cursors.get(path, 0)
                fresh = metric.samples_since(cursor)
                self._cursors[path] = metric.count
                if fresh:
                    stats = {
                        "mean": sum(fresh) / len(fresh),
                        "max": max(fresh),
                        "p99": percentile(fresh, 0.99),
                    }
                    for stat in _INTERVAL_STATS:
                        self._series_for(f"{path}.{stat}").append(
                            now, stats[stat]
                        )
                        appended += 1
        for hook in self.on_sample:
            hook(now)
        return appended

    # -- simulator integration -----------------------------------------------
    def pump(self, sim, until):
        """A sampling process: tick every period until ``until`` triggers."""
        while not until.triggered:
            yield sim.timeout(self.period)
            self.sample()

    def run(self, sim, generator):
        """Run ``generator`` as a process with this sampler ticking beside
        it; returns the process value (like ``sim.run_process``)."""
        process = sim.process(generator)
        sim.spawn(self.pump(sim, process))
        sim.run()
        return process.result()

    # -- canonical output ----------------------------------------------------
    def snapshot_bytes(self) -> bytes:
        """Every series as canonical bytes (same seed => same bytes)."""
        lines = [self._series[name].snapshot_line() for name in self.names()]
        return "\n".join(lines).encode()
