"""Counters, gauges, histograms, and the hierarchical metrics registry.

Design rules (the determinism contract):

* Metric paths are dot-separated component paths; the component id a
  substrate uses for fault injection is the same path it uses here, so
  one name addresses both "what can break" and "what was measured".
* Registration is idempotent: asking for the same path twice returns the
  same object; asking with a conflicting type raises.
* ``snapshot_bytes()`` is canonical — paths sorted, floats rendered with
  ``repr`` — so two runs of the same seeded workload are byte-identical.
* Histograms keep their raw samples (this is a simulation, not a prod
  agent), so quantiles are *exact*: linear interpolation at
  ``fraction * (n - 1)``, matching ``statistics.quantiles`` with
  ``method="inclusive"``. The fixed buckets exist for cheap rendering
  and for the canonical snapshot.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.common.errors import ConfigurationError

__all__ = [
    "percentile",
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricScope",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Exact quantile of ``samples`` by linear interpolation.

    The single shared implementation behind every eval report (the two
    private ``_percentile`` copies in ``repro.eval`` used to disagree on
    rounding). Matches ``statistics.quantiles(..., method="inclusive")``:
    the value at rank ``fraction * (len - 1)`` of the sorted samples,
    interpolating between neighbours. Empty input returns 0.0.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Metric:
    """Base: a named value owned by (exactly one) registry."""

    __slots__ = ("name",)
    kind = "metric"

    def __init__(self, name: str):
        self.name = name

    def snapshot_line(self) -> str:
        """One canonical line for :meth:`MetricsRegistry.snapshot_bytes`."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing integer (frames sent, ops served...).

    :attr:`value` is a plain slot, and a module uses one way to add to
    it throughout. The modules on the per-frame and per-op paths (the
    network, transports, overload queues and admission, sharding client
    and cache, KV-SSD, NVMe, geo-replication and the traffic generator)
    write ``counter.value += n``, where ``n`` is a literal or a count
    they computed and cannot be negative; that saves a call per op.
    Every other module calls :meth:`inc`, which rejects a negative
    amount.
    """

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str):
        super().__init__(name)
        #: The current count.
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        """Add *amount* (>= 0) and return the new count."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name} cannot decrease")
        self.value += amount
        return self.value

    def snapshot_line(self) -> str:
        """One canonical line for :meth:`MetricsRegistry.snapshot_bytes`."""
        return f"counter {self.name} {self.value}"

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge(Metric):
    """A value that can go up and down (queue depth, DRAM pressure).
    Per-op paths assign the :attr:`value` slot instead of calling
    :meth:`set`; the snapshot renders the ``repr`` of what is stored."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, name: str):
        super().__init__(name)
        #: The current value.
        self.value: float = 0.0

    def set(self, value: float) -> float:
        """Replace the value; returns it."""
        self.value = value
        return value

    def snapshot_line(self) -> str:
        """One canonical line for :meth:`MetricsRegistry.snapshot_bytes`."""
        return f"gauge {self.name} {self.value!r}"

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


#: Default histogram buckets: log-spaced from 1 ns to 10 s — wide enough
#: for every latency this simulation produces (flash programs, ICAP
#: reconfigurations, RPC deadlines).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** exponent for exponent in range(-9, 2)
)


class Histogram(Metric):
    """Fixed-bucket histogram that also keeps raw samples.

    Buckets give the canonical snapshot and the rendered distribution;
    the raw samples give *exact* quantiles (see :func:`percentile`).

    Recording is the hot path (every RPC, NVMe command, and queue
    sojourn observes a latency), so ``observe`` is the sample list's
    ``append``. The sum and the bucket counts are computed on read from the
    samples — the sum by left-to-right float additions from ``0.0``, so
    it is *bit-identical* to eager per-observe accounting.
    """

    kind = "histogram"

    def __init__(self, name: str):
        super().__init__(name)
        self.bounds = DEFAULT_BUCKETS
        self._samples: List[float] = []
        #: ``observe(value)``: binning and summing are deferred to reads.
        self.observe = self._samples.append
        #: bucket index -> (value, trace_id): the last traced request
        #: whose sample landed in that bucket (see :meth:`exemplar`).
        self._exemplars: Dict[int, Tuple[float, str]] = {}

    # -- recording -----------------------------------------------------------
    def exemplar(self, value: float, trace_id: str) -> None:
        """Attach *trace_id* as the exemplar for *value*'s bucket.

        Called by instrumented sites alongside ``observe`` when the
        observation belongs to a sampled trace (and the tracer has
        exemplar capture armed), linking a latency bucket back to one
        concrete request that landed in it. Kept out of ``observe``
        itself and out of :meth:`snapshot_line` so the hot path and the
        canonical snapshot bytes are untouched; exemplars surface only
        through :func:`repro.telemetry.prometheus_text` (OpenMetrics
        exemplar syntax) and :meth:`exemplars`.
        """
        self._exemplars[bisect_left(self.bounds, value)] = (value, trace_id)

    def exemplars(self) -> Dict[int, Tuple[float, str]]:
        """Captured exemplars: bucket index -> (value, trace_id)."""
        return dict(self._exemplars)

    # -- reading -------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of samples observed."""
        return len(self._samples)

    @property
    def sum(self) -> float:
        """Sum of all observed samples, added left to right (not with
        ``sum()``, which compensates from Python 3.12 on)."""
        total = 0.0
        for value in self._samples:
            total += value
        return total

    @property
    def samples(self) -> Tuple[float, ...]:
        """The raw samples, in observation order."""
        return tuple(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return self.sum / len(self._samples)

    @property
    def pstdev(self) -> float:
        """Population standard deviation of the samples."""
        if not self._samples:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((s - mean) ** 2 for s in self._samples) / len(self._samples)
        )

    @property
    def min(self) -> float:
        """Smallest observed sample (0.0 when empty)."""
        return min(self._samples) if self._samples else 0.0

    @property
    def max(self) -> float:
        """Largest observed sample (0.0 when empty)."""
        return max(self._samples) if self._samples else 0.0

    def quantile(self, fraction: float) -> float:
        """Exact quantile over every observed sample.

        Raises :class:`ValueError` (naming this histogram's metric path)
        when nothing has been observed yet: a quantile of an empty sample
        set is a question with no answer, and silently returning 0.0 hid
        wiring bugs where an experiment summarized the wrong histogram.
        """
        if not self._samples:
            raise ValueError(
                f"histogram {self.name}: quantile({fraction}) of an empty "
                "sample set (no observations recorded)"
            )
        return percentile(self._samples, fraction)

    def samples_since(self, index: int) -> Tuple[float, ...]:
        """Samples observed at or after insertion ``index`` (cursor reads).

        The time-series :class:`~repro.telemetry.timeseries.Sampler` keeps
        a per-histogram cursor and asks only for the fresh tail at each
        tick, so periodic sampling stays O(new samples), not O(history).
        """
        return tuple(self._samples[index:])

    def _counts(self) -> List[int]:
        """counts[i] = samples <= bounds[i]; counts[-1] = overflow."""
        bounds = self.bounds
        counts = [0] * (len(bounds) + 1)
        for value in self._samples:
            counts[bisect_left(bounds, value)] += 1
        return counts

    def bucket_counts(self) -> List[Tuple[Optional[float], int]]:
        """(upper bound, count) pairs; the last bound is None (overflow)."""
        bounds: List[Optional[float]] = list(self.bounds)
        bounds.append(None)
        return list(zip(bounds, self._counts()))

    def snapshot_line(self) -> str:
        """One canonical line for :meth:`MetricsRegistry.snapshot_bytes`."""
        quantiles = " ".join(
            f"p{int(f * 100):02d}={percentile(self._samples, f)!r}"
            for f in (0.50, 0.90, 0.99)
        )
        buckets = ",".join(str(c) for c in self._counts())
        return (
            f"histogram {self.name} count={self.count} "
            f"sum={self.sum!r} "
            f"min={self.min!r} max={self.max!r} {quantiles} "
            f"buckets={buckets}"
        )

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self.count})"


class MetricScope:
    """A registry view bound to one component path prefix.

    A substrate model holds a scope (``dpu0.net.port0``) and registers
    relative names (``rx_frames``) under it. Components that learn their
    real identity late (``attach_faults`` renames a link from ``link#2``
    to ``client.uplink``) call :meth:`rename` — the metrics move, the
    object references the component holds stay valid.
    """

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self.registry = registry
        self.prefix = prefix

    @property
    def prefix(self) -> str:
        return self._prefix

    @prefix.setter
    def prefix(self, value: str) -> None:
        # The dotted-path head is built once per (re)naming, not per
        # metric registration — path strings are assembled with a single
        # concatenation in :meth:`_path`.
        self._prefix = value
        self._dot = value + "." if value else ""

    @staticmethod
    def standalone(prefix: str) -> "MetricScope":
        """A scope over a fresh private registry, for components built
        without a simulator (a bare LsmTree)."""
        return MetricsRegistry().scope(prefix)

    def _path(self, name: str) -> str:
        return self._dot + name

    def counter(self, name: str) -> Counter:
        """The counter at ``prefix.name`` (created on first use)."""
        return self.registry.counter(self._path(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge at ``prefix.name`` (created on first use)."""
        return self.registry.gauge(self._path(name))

    def histogram(self, name: str) -> Histogram:
        """The histogram at ``prefix.name`` (created on first use)."""
        return self.registry.histogram(self._path(name))

    def scope(self, sub: str) -> "MetricScope":
        """A child scope at ``prefix.sub``, over the same registry."""
        return MetricScope(self.registry, self._path(sub))

    def rename(self, new_prefix: str) -> "MetricScope":
        """Move this scope's metrics under *new_prefix* (see class docs)."""
        self.prefix = self.registry.rename(self.prefix, new_prefix)
        return self


class MetricsRegistry:
    """All metrics of one simulated system, addressed by path.

    One registry per :class:`~repro.sim.Simulator` (``sim.telemetry``),
    created lazily; a fresh simulator therefore always snapshots from a
    clean slate, which is what makes same-seed runs byte-identical.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._claimed: Dict[str, int] = {}  # base prefix -> instances seen

    # -- registration --------------------------------------------------------
    def _get_or_create(self, path: str, cls: Type[Metric], *args) -> Metric:
        if not path:
            raise ConfigurationError("metric path cannot be empty")
        existing = self._metrics.get(path)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"{path} already registered as {existing.kind}"
                )
            return existing
        metric = cls(path, *args)
        self._metrics[path] = metric
        return metric

    def counter(self, path: str) -> Counter:
        """The counter at *path* (created on first use)."""
        return self._get_or_create(path, Counter)

    def gauge(self, path: str) -> Gauge:
        """The gauge at *path* (created on first use)."""
        return self._get_or_create(path, Gauge)

    def histogram(self, path: str) -> Histogram:
        """The histogram at *path* (created on first use)."""
        return self._get_or_create(path, Histogram)

    def scope(self, prefix: str) -> MetricScope:
        """A :class:`MetricScope` prefixing every name with *prefix*."""
        return MetricScope(self, prefix)

    def unique_scope(self, base: str) -> MetricScope:
        """A scope whose prefix is unique in this registry.

        The first instance of a component class claims the bare name
        (``link``); later ones get ``link#1``, ``link#2``... Claiming is
        in construction order, which a deterministic simulation makes
        reproducible.
        """
        seen = self._claimed.get(base, 0)
        self._claimed[base] = seen + 1
        return self.scope(base if seen == 0 else f"{base}#{seen}")

    def rename(self, old_prefix: str, new_prefix: str) -> str:
        """Move every metric under ``old_prefix`` to ``new_prefix``.

        If the target prefix is already populated (two links both
        attached as ``client.uplink``), the move is uniquified the same
        way :meth:`unique_scope` is. Returns the prefix actually used.
        """
        if new_prefix == old_prefix:
            return new_prefix
        seen = self._claimed.get(new_prefix, 0)
        self._claimed[new_prefix] = seen + 1
        target = new_prefix if seen == 0 else f"{new_prefix}#{seen}"
        moves = [
            path for path in self._metrics
            if path == old_prefix or path.startswith(old_prefix + ".")
        ]
        for path in moves:
            metric = self._metrics.pop(path)
            new_path = target + path[len(old_prefix):]
            metric.name = new_path
            self._metrics[new_path] = metric
        return target

    # -- reading -------------------------------------------------------------
    def get(self, path: str) -> Optional[Metric]:
        """The metric registered at *path*, or ``None``."""
        return self._metrics.get(path)

    def __contains__(self, path: str) -> bool:
        return path in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def paths(self, prefix: str = "") -> List[str]:
        """All registered paths under *prefix* (all of them when empty), sorted."""
        return sorted(
            path for path in self._metrics
            if not prefix or path == prefix or path.startswith(prefix + ".")
        )

    def walk(self) -> Iterator[Metric]:
        """Every metric, in path order."""
        for path in self.paths():
            yield self._metrics[path]

    # -- canonical output ----------------------------------------------------
    def snapshot_bytes(self) -> bytes:
        """The whole registry as canonical bytes.

        Same seed => byte-identical output, the same contract
        ``FaultInjector.schedule_bytes`` gives for fault schedules.
        """
        lines = [metric.snapshot_line() for metric in self.walk()]
        return "\n".join(lines).encode()

    def render(self, prefix: str = "") -> str:
        """Human-readable metric tree, indented by path depth."""
        lines: List[str] = []
        previous: Tuple[str, ...] = ()
        for path in self.paths(prefix):
            parts = tuple(path.split("."))
            # Print any new ancestor groups this path introduces.
            common = 0
            for a, b in zip(parts[:-1], previous):
                if a != b:
                    break
                common += 1
            for depth in range(common, len(parts) - 1):
                lines.append("  " * depth + parts[depth] + "/")
            metric = self._metrics[path]
            indent = "  " * (len(parts) - 1)
            if isinstance(metric, Counter):
                rendered = str(metric.value)
            elif isinstance(metric, Gauge):
                rendered = f"{metric.value:g}"
            else:
                hist = metric
                assert isinstance(hist, Histogram)
                if hist.count:
                    rendered = (
                        f"count={hist.count} mean={hist.mean:.3g} "
                        f"p50={hist.quantile(0.5):.3g} "
                        f"p99={hist.quantile(0.99):.3g}"
                    )
                else:
                    rendered = "count=0"
            lines.append(f"{indent}{parts[-1]} = {rendered}")
            previous = parts[:-1]
        return "\n".join(lines)
