"""The per-layer cost ledger of a traced run, measured from outside.

Nothing here is imported by ``repro``; every number is taken at the
package's public surface:

* **host self time and calls** per layer: ``cProfile`` around the measured
  window, each function's self time charged to the layer that owns its
  source file. A C builtin has no frame of its own, so its time goes to
  the layer of the function that called it;
* **engine entries**: counting closures around the benchmark-owned
  simulator's public ``timeout``/``event``/``process`` factories;
* **simulated self time** per substrate: ``sim.tracer`` spans, head-sampled
  at :data:`SAMPLE_RATE`, each span's duration minus what its children
  cover;
* **modelled counters**: the registry's public ``paths()``/``get()``,
  as deltas over the measured window.
"""

from __future__ import annotations

import cProfile
import os
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

import repro
from repro.sim import Simulator
from repro.telemetry import Counter, Histogram

#: Layers are the package names under ``src/repro/`` that the workloads
#: reach; ``other`` is the rest of ``repro`` (common, memory, faults...),
#: ``python`` every frame outside ``repro``, ``bench`` this directory.
LAYERS = (
    "sim", "hw.net", "hw.nvme", "hw.pcie", "hw.fpga", "transport",
    "sharding", "storage", "datastruct", "telemetry", "overload",
    "workload", "georep", "ebpf", "hdl", "dpu", "baseline", "apps",
    "other", "python", "bench",
)

#: Tracer substrate -> layer, for simulated self time.
SUBSTRATES = {
    "net": "hw.net", "wan": "hw.net", "transport": "transport",
    "shard": "sharding", "kvssd": "storage", "nvme": "hw.nvme",
    "pcie": "hw.pcie", "fpga": "hw.fpga", "georep": "georep",
}

SAMPLE_RATE = 1 / 32

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> str:
    """The layer owning the source file *filename*."""
    if filename.startswith(_BENCH_ROOT):
        return "bench"
    if not filename.startswith(_REPRO_ROOT):
        return "python"
    parts = filename[len(_REPRO_ROOT):].split(os.sep)
    layer = ".".join(parts[:2]) if parts[0] == "hw" else parts[0]
    return layer if layer in LAYERS else "other"


def fold_profile(stats) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``cProfile`` entries -> (self seconds, calls) per layer."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in stats:
        if isinstance(entry.code, str):
            continue  # a builtin: charged to its callers below
        layer = layer_of(entry.code.co_filename)
        seconds[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                seconds[layer] += callee.inlinetime
    return seconds, calls


def covered(span) -> float:
    """Simulated seconds of *span*'s interval that its children cover."""
    total = 0.0
    reach = span.start
    for start, end in sorted((c.start, c.end) for c in span.children
                             if c.end is not None):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def walk(roots: Iterable) -> Iterable:
    """Every finished span under *roots*, iteratively (deep trees)."""
    stack = list(roots)
    while stack:
        span = stack.pop()
        stack.extend(span.children)
        if span.end is not None:
            yield span


class Ledger:
    """Instruments one workload's simulators for one traced run."""

    def __init__(self, seed: int):
        self.seed = seed
        #: Factory calls by kind; :meth:`begin` zeroes them, so after
        #: :meth:`end` they count the measured window alone.
        self.entries = {"timeout": 0, "event": 0, "process": 0}
        self._wrapped: List[Tuple[Simulator, Dict[str, Callable]]] = []
        self._before: Dict[Tuple[int, str], float] = {}
        self.host_seconds: Dict[str, float] = {}
        self.host_calls: Dict[str, int] = {}
        self.deltas: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}

    # -- engine entry counts ---------------------------------------------------
    def new_sim(self) -> Simulator:
        """A simulator whose public factories count their calls."""
        sim = Simulator()
        originals = {}
        for name in self.entries:
            originals[name] = factory = getattr(sim, name)
            setattr(sim, name, self._counting(name, factory))
        self._wrapped.append((sim, originals))
        return sim

    def _counting(self, name: str, factory: Callable) -> Callable:
        entries = self.entries

        def counting(*args, **kwargs):
            entries[name] += 1
            return factory(*args, **kwargs)

        return counting

    # -- modelled counters -------------------------------------------------------
    def _watched(self):
        """Every counter and histogram: ``((simulator index, path), metric)``."""
        for index, (sim, _originals) in enumerate(self._wrapped):
            registry = sim.telemetry
            for path in registry.paths():
                metric = registry.get(path)
                if isinstance(metric, (Counter, Histogram)):
                    yield (index, path), metric

    @staticmethod
    def _level(metric) -> float:
        return metric.count if isinstance(metric, Histogram) else metric.value

    # -- the traced window --------------------------------------------------------
    def begin(self) -> None:
        """Start tracing: call once the workload is built."""
        for sim, _originals in self._wrapped:
            sim.tracer.enable(sample_rate=SAMPLE_RATE, seed=self.seed)
        self._before = {key: self._level(metric)
                        for key, metric in self._watched()}
        for name in self.entries:
            self.entries[name] = 0
        self._profile = cProfile.Profile()

    def step(self, slices: Iterator) -> None:
        """Advance the measured window by one slice under the profiler
        (``next(slices)``: raises ``StopIteration`` at the end). What the
        caller does between two steps is not profiled."""
        self._profile.runcall(next, slices)

    def end(self) -> None:
        """Stop tracing, put the factories back, fold what was recorded."""
        for sim, originals in self._wrapped:
            sim.tracer.disable()
            for name, factory in originals.items():
                setattr(sim, name, factory)
        self.host_seconds, self.host_calls = fold_profile(
            self._profile.getstats())
        for key, metric in self._watched():
            before = self._before.get(key, 0)
            path = key[1]
            if isinstance(metric, Histogram):
                self.histograms.setdefault(path, []).extend(
                    metric.samples_since(before))
            else:
                self.deltas[path] = (self.deltas.get(path, 0)
                                     + metric.value - before)

    # -- queries the metric code uses ----------------------------------------------
    def total(self, suffix: str, prefix: str = "") -> float:
        """Sum of window deltas over counters ``prefix*...suffix``."""
        return sum(value for path, value in self.deltas.items()
                   if path.startswith(prefix) and path.endswith(suffix))

    def samples(self, suffix: str) -> List[float]:
        """Window samples of every histogram whose path ends in *suffix*."""
        merged: List[float] = []
        for path, samples in self.histograms.items():
            if path.endswith(suffix):
                merged.extend(samples)
        return merged

    def sim_self_seconds(self) -> Dict[str, float]:
        """Sampled simulated self time per layer, scaled to all flows."""
        seconds = dict.fromkeys(set(SUBSTRATES.values()), 0.0)
        for sim, _originals in self._wrapped:
            for span in walk(sim.tracer.roots):
                layer = SUBSTRATES.get(span.substrate.split(".")[0])
                if layer is not None:
                    seconds[layer] += (span.end - span.start) - covered(span)
        return {layer: value / SAMPLE_RATE
                for layer, value in seconds.items()}

    def spans(self) -> List[dict]:
        """Every recorded span, flat, for the trace file."""
        rows = []
        for sim, _originals in self._wrapped:
            for span in walk(sim.tracer.roots):
                rows.append({
                    "trace": span.trace_id, "span": span.span_id,
                    "parent": span.parent.span_id if span.parent else "",
                    "name": span.name, "substrate": span.substrate,
                    "start": span.start, "end": span.end,
                })
        return rows
