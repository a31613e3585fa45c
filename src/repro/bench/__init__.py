"""Continuous-benchmark harness: run the eval suite, emit BENCH artifacts.

Every run executes the registered experiments under their default
configurations, extracts the headline metrics (each tagged with a
direction: lower-is-better latencies, higher-is-better throughputs, or
plain informational values), and renders a canonical JSON payload.

The payload is **deterministic by construction**: it contains
simulated-time measurements, counts, and SHA-256 digests of the canonical
telemetry artifacts (registry snapshots, SLO alert logs, Prometheus text,
Chrome trace JSON). Wall-clock durations are reported on stdout for the
human reading the run, but never enter the artifact — the same seed must
produce byte-identical ``BENCH_<n>.json`` files on every machine. The
host-clock ledger is ``perfbench/`` (``make perf``, ``make profile``).

Artifact protocol, mirroring the repo's append-only evaluation history:

* artifacts live at the repo root (or ``--output-dir``) as
  ``BENCH_1.json``, ``BENCH_2.json``, ...;
* if the new payload is byte-identical to the newest artifact, nothing is
  written — the benchmark is unchanged;
* otherwise the next number is written and compared against the previous
  artifact: any tracked latency up by more than
  :data:`REGRESSION_THRESHOLD` (or throughput down by more than it) is
  flagged as a regression, which ``python -m repro.bench --check`` turns
  into a nonzero exit for CI. Every metric whose value or unit differs
  from the previous artifact (a digest's value is its unit), or that
  only one of the two has, is listed as moved, whatever its direction
  or size: a rebaseline names each key it changes.

The same reports are held against the paper: each experiment's
``accept(report)`` names the claims its default-config report violates,
and ``--check`` fails on any. Claims are printed, never serialized.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eval.registry import run_each, select
from repro.eval.report import HIGHER, INFO, LOWER

#: Relative change on a directional metric that counts as a regression.
REGRESSION_THRESHOLD = 0.20

#: Version stamp of the payload schema, bumped on incompatible changes.
ARTIFACT_FORMAT = 1

ARTIFACT_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass
class BenchRun:
    """One full suite execution: canonical payload + wall-clock sidecar."""

    seed: Optional[int]
    payload: Dict[str, Any]
    #: experiment key -> wall-clock seconds. Stdout only, never serialized.
    wall_clock: Dict[str, float] = field(default_factory=dict)
    #: experiment key -> violated claims (``accept(report)``), one entry
    #: per experiment that has claims. Stdout only, never serialized.
    violations: Dict[str, List[str]] = field(default_factory=dict)

    def claim_lines(self) -> List[str]:
        """The claims summary, then one line per violated claim."""
        broken = [f"  {key}: VIOLATED {claim}"
                  for key, claims in self.violations.items()
                  for claim in claims]
        return [f"claims: {len(self.violations)} experiments checked, "
                f"{len(broken)} claims violated"] + broken

    def canonical_bytes(self) -> bytes:
        text = json.dumps(self.payload, sort_keys=True, indent=2)
        return (text + "\n").encode()


def measured(key: str, seed: Optional[int]) -> Tuple[
        float, Dict[str, Any], Optional[List[str]]]:
    """The ``run_each`` task: run one benchmarked row; its wall seconds,
    metric payloads by name and violated claims (None: it has none)."""
    (experiment,) = select([key], benchmarked=True)
    started = time.perf_counter()
    report = experiment.execute(seed)
    wall = time.perf_counter() - started
    metrics = {name: metric.payload()
               for name, metric in sorted(experiment.metrics(report).items())}
    claims = None if experiment.accept is None else experiment.accept(report)
    return wall, metrics, claims


def run_suite(seed: Optional[int] = None, keys: Sequence[str] = (),
              jobs: int = 1) -> BenchRun:
    """Run the benchmarked experiments (all, or *keys*) and build the
    canonical payload. An unknown key raises ``SelectionError``. *jobs*
    worker processes share the rows; the payload does not depend on it."""
    experiments: Dict[str, Any] = {}
    wall: Dict[str, float] = {}
    violations: Dict[str, List[str]] = {}
    selected = select(keys, benchmarked=True)
    for experiment, (seconds, metrics, claims) in zip(
            selected, run_each(measured, selected, seed, jobs)):
        wall[experiment.key] = seconds
        if claims is not None:
            violations[experiment.key] = claims
        experiments[experiment.key] = {
            "title": experiment.bench_title,
            "metrics": metrics,
        }
    payload = {
        "format": ARTIFACT_FORMAT,
        "seed": seed,
        "experiments": experiments,
    }
    return BenchRun(seed=seed, payload=payload, wall_clock=wall,
                    violations=violations)


# ---------------------------------------------------------------------------
# artifact numbering + regression comparison
# ---------------------------------------------------------------------------

def discover_artifacts(directory: Path) -> List[Tuple[int, Path]]:
    """All ``BENCH_<n>.json`` files in *directory*, ordered by number."""
    found = []
    for path in directory.iterdir():
        match = ARTIFACT_PATTERN.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


@dataclass(frozen=True)
class Delta:
    """One metric's movement between two artifacts."""

    experiment: str
    metric: str
    old: float
    new: float
    better: str
    unit: str

    @property
    def relative(self) -> float:
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return (self.new - self.old) / abs(self.old)

    @property
    def regressed(self) -> bool:
        if self.better == LOWER:
            return self.relative > REGRESSION_THRESHOLD
        if self.better == HIGHER:
            return self.relative < -REGRESSION_THRESHOLD
        return False

    @property
    def improved(self) -> bool:
        if self.better == LOWER:
            return self.relative < -REGRESSION_THRESHOLD
        if self.better == HIGHER:
            return self.relative > REGRESSION_THRESHOLD
        return False

    def line(self) -> str:
        sign = "+" if self.relative >= 0 else ""
        verdict = ("REGRESSION" if self.regressed
                   else "improvement" if self.improved else "ok")
        return (f"{self.experiment}.{self.metric}: "
                f"{self.old!r} -> {self.new!r} "
                f"({sign}{self.relative * 100:.1f}%, {verdict})")


def compare_payloads(old: Dict[str, Any],
                     new: Dict[str, Any]) -> List[Delta]:
    """Directional metric deltas between two artifact payloads."""
    deltas: List[Delta] = []
    old_experiments = old.get("experiments", {})
    for key, experiment in sorted(new.get("experiments", {}).items()):
        previous = old_experiments.get(key)
        if previous is None:
            continue
        old_metrics = previous.get("metrics", {})
        for name, metric in sorted(experiment.get("metrics", {}).items()):
            before = old_metrics.get(name)
            if before is None or metric["better"] == INFO:
                continue
            deltas.append(Delta(
                experiment=key, metric=name,
                old=before["value"], new=metric["value"],
                better=metric["better"], unit=metric.get("unit", ""),
            ))
    return deltas


def moved_metrics(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """``experiment.metric: before -> after`` for every metric whose
    value or unit differs between two artifact payloads, and every
    metric only one of them has, sorted by key."""
    def flat(payload: Dict[str, Any]) -> Dict[str, str]:
        return {
            f"{key}.{name}": f"{metric['value']!r} {metric['unit']}".rstrip()
            for key, experiment in payload.get("experiments", {}).items()
            for name, metric in experiment.get("metrics", {}).items()
        }

    before, after = flat(old), flat(new)
    return [
        f"{key}: {before.get(key, '(absent)')} -> {after.get(key, '(absent)')}"
        for key in sorted(before.keys() | after.keys())
        if before.get(key) != after.get(key)
    ]


@dataclass
class BenchOutcome:
    """What one ``repro.bench`` invocation did with the artifact history."""

    run: BenchRun
    written: Optional[Path]
    compared_against: Optional[Path]
    deltas: List[Delta]
    unchanged: bool
    #: :func:`moved_metrics` against the previous artifact.
    moved: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]


def publish(run: BenchRun, directory: Path) -> BenchOutcome:
    """Write the run's artifact (if changed) and diff it against history."""
    artifacts = discover_artifacts(directory)
    number, newest = artifacts[-1] if artifacts else (0, None)
    payload_bytes = run.canonical_bytes()
    if newest is not None and newest.read_bytes() == payload_bytes:
        return BenchOutcome(
            run=run, written=None,
            compared_against=newest, deltas=[], unchanged=True,
        )
    previous = {} if newest is None else json.loads(newest.read_text())
    target = directory / f"BENCH_{number + 1}.json"
    target.write_bytes(payload_bytes)
    return BenchOutcome(
        run=run, written=target, compared_against=newest,
        deltas=compare_payloads(previous, run.payload), unchanged=False,
        moved=moved_metrics(previous, run.payload) if previous else [],
    )
