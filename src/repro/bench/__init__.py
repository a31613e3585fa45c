"""Continuous-benchmark harness: run the eval suite, emit BENCH artifacts.

Every run executes the registered experiments under their default
configurations, extracts the headline metrics (each tagged with a
direction: lower-is-better latencies, higher-is-better throughputs, or
plain informational values), and renders a canonical JSON payload.

The payload is **deterministic by construction**, with one deliberate
exception: it contains simulated-time measurements, counts, and SHA-256
digests of the canonical telemetry artifacts (registry snapshots, SLO
alert logs, Prometheus text, Chrome trace JSON). Wall-clock durations
are reported on stdout for the human reading the run, but never enter
the artifact — the same seed must produce byte-identical
``BENCH_<n>.json`` files on every machine.

The exception is the ``sim`` experiment (:mod:`repro.bench.micro`): the
simulator's *own* throughput (events/sec, RPC round-trips/sec, histogram
observes/sec) is inherently a wall-clock number. Those metrics are
tagged ``volatile`` in the payload, and :func:`publish` tolerates them:
a run whose payload differs from the newest artifact *only* in volatile
values, all within :data:`REGRESSION_THRESHOLD`, is treated as
unchanged and writes nothing — machine jitter does not churn the
append-only history, while a drop past the gate still lands as a new
artifact and fails ``--check``.

Artifact protocol, mirroring the repo's append-only evaluation history:

* artifacts live at the repo root (or ``--output-dir``) as
  ``BENCH_1.json``, ``BENCH_2.json``, ...;
* if the new payload is byte-identical to the newest artifact, nothing is
  written — the benchmark is unchanged;
* otherwise the next number is written and compared against the previous
  artifact: any tracked latency up by more than
  :data:`REGRESSION_THRESHOLD` (or throughput down by more than it) is
  flagged as a regression, which ``python -m repro.bench --check`` turns
  into a nonzero exit for CI.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.micro import run_micro
from repro.eval.analytics import run_analytics
from repro.eval.autoscale import run_autoscale
from repro.eval.chaos import run_chaos
from repro.eval.compiler import run_compiler
from repro.eval.corfu import run_corfu
from repro.eval.efficiency import run_efficiency
from repro.eval.fail2ban import run_fail2ban
from repro.eval.georep import run_georep
from repro.eval.kvssd import run_kvssd
from repro.eval.loadbalancer import run_loadbalancer
from repro.eval.overload import run_overload
from repro.eval.p2pdma import run_p2pdma
from repro.eval.pointer_chase import run_pointer_chase
from repro.eval.predictability import run_predictability
from repro.eval.reconfig import run_reconfig
from repro.eval.recovery import run_recovery
from repro.eval.scaleout import run_scaleout
from repro.eval.telemetry import run_telemetry
from repro.eval.translation import run_translation
from repro.eval.verify import run_verify

#: Relative change on a directional metric that counts as a regression.
REGRESSION_THRESHOLD = 0.20

#: Version stamp of the payload schema, bumped on incompatible changes.
ARTIFACT_FORMAT = 1

ARTIFACT_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

LOWER = "lower"
HIGHER = "higher"
INFO = "info"


@dataclass(frozen=True)
class Metric:
    """One tracked number: its value, unit, and which direction is good.

    ``volatile`` marks a wall-clock measurement (the ``sim``
    micro-benchmarks): still gated directionally, but :func:`publish`
    does not write a new artifact for volatile-only drift inside the
    regression threshold. The key is only serialized when set, so every
    pre-existing artifact's bytes are unchanged by its existence.
    """

    value: float
    better: str = INFO
    unit: str = ""
    volatile: bool = False

    def payload(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "value": self.value, "better": self.better, "unit": self.unit,
        }
        if self.volatile:
            data["volatile"] = True
        return data


@dataclass(frozen=True)
class BenchSpec:
    """One benchmarked experiment: how to run it and what to extract."""

    key: str
    title: str
    run: Callable[..., Any]
    extract: Callable[[Any], Dict[str, Metric]]
    #: Whether ``run`` accepts a ``seed=`` keyword (threads ``--seed``).
    seeded: bool = False


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# metric extractors — one per experiment, defaults-config headline numbers
# ---------------------------------------------------------------------------

def _efficiency_metrics(report) -> Dict[str, Metric]:
    return {
        "energy_ratio": Metric(report.energy_ratio, HIGHER, "x"),
        "volume_ratio": Metric(report.volume_ratio, HIGHER, "x"),
        "hyperion_tdp_w": Metric(report.hyperion_tdp_w, LOWER, "W"),
    }


def _pointer_chase_metrics(points) -> Dict[str, Metric]:
    deepest = max(points, key=lambda p: (p.propagation, p.keys))
    return {
        "deepest_offload_latency_s": Metric(
            deepest.offload_latency, LOWER, "s"),
        "deepest_speedup": Metric(deepest.speedup, HIGHER, "x"),
        "mean_speedup": Metric(
            sum(p.speedup for p in points) / len(points), HIGHER, "x"),
    }


def _fail2ban_metrics(results) -> Dict[str, Metric]:
    dpu, base = results
    return {
        "dpu_throughput_pps": Metric(dpu.throughput_pps, HIGHER, "pps"),
        "dpu_per_packet_s": Metric(dpu.per_packet, LOWER, "s"),
        "speedup": Metric(base.total_time / dpu.total_time, HIGHER, "x"),
        "banned": Metric(dpu.banned, INFO, "packets"),
    }


def _loadbalancer_metrics(results) -> Dict[str, Metric]:
    overflow = next(r for r in results if r.policy == "overflow")
    drop = next(r for r in results if r.policy == "drop")
    return {
        "overflow_mean_latency_s": Metric(overflow.mean_latency, LOWER, "s"),
        "overflow_broken_connections": Metric(
            overflow.broken_connections, LOWER, "conns"),
        "drop_broken_connections": Metric(
            drop.broken_connections, INFO, "conns"),
    }


def _translation_metrics(points) -> Dict[str, Metric]:
    largest = max(points, key=lambda p: p.working_set_bytes)
    return {
        "largest_segment_translation_s": Metric(
            largest.segment_translation_time, LOWER, "s"),
        "largest_segment_advantage": Metric(
            largest.segment_advantage, HIGHER, "x"),
        "largest_tlb_hit_rate": Metric(largest.tlb_hit_rate, INFO, "frac"),
    }


def _predictability_metrics(results) -> Dict[str, Metric]:
    by_name = {r.system: r for r in results}
    hw = by_name["hyperion-pipeline"]
    cpu = by_name["cpu-interpreter"]
    return {
        "hw_p99_s": Metric(hw.p99, LOWER, "s"),
        "hw_jitter_ratio": Metric(hw.jitter_ratio, LOWER, "x"),
        "hw_interval_p99_max_s": Metric(hw.interval_p99_max, LOWER, "s"),
        "hw_energy_per_op_j": Metric(hw.energy_per_op_j, LOWER, "J"),
        "cpu_p99_s": Metric(cpu.p99, INFO, "s"),
        "hw_sampled_points": Metric(hw.sampled_points, INFO, "samples"),
    }


def _reconfig_metrics(report) -> Dict[str, Metric]:
    return {
        "mean_reconfig_s": Metric(report.mean_reconfig, LOWER, "s"),
        "max_reconfig_s": Metric(report.max_reconfig, LOWER, "s"),
        "utilization": Metric(report.utilization, HIGHER, "frac"),
    }


def _corfu_metrics(points) -> Dict[str, Metric]:
    busiest = max(points, key=lambda p: p.clients)
    return {
        "peak_throughput_aps": Metric(busiest.throughput, HIGHER, "appends/s"),
        "failover_reads_ok": Metric(
            float(all(p.failover_reads_ok for p in points)), INFO, "bool"),
    }


def _analytics_metrics(points) -> Dict[str, Metric]:
    largest = max(points, key=lambda p: p.rows)
    return {
        "largest_dpu_time_s": Metric(largest.dpu_time, LOWER, "s"),
        "largest_speedup": Metric(largest.speedup, HIGHER, "x"),
        "largest_bytes_moved": Metric(largest.dpu_bytes, LOWER, "bytes"),
    }


def _compiler_metrics(rows) -> Dict[str, Metric]:
    verified = sum(1 for r in rows if r.verified)
    return {
        "programs_verified": Metric(verified, HIGHER, "programs"),
        "programs_total": Metric(len(rows), INFO, "programs"),
    }


def _recovery_metrics(points) -> Dict[str, Metric]:
    largest = max(points, key=lambda p: p.durable_segments)
    return {
        "largest_recovery_time_s": Metric(largest.recovery_time, LOWER, "s"),
        "largest_persist_bytes": Metric(largest.persist_bytes, INFO, "bytes"),
        "data_intact": Metric(
            float(all(p.data_intact for p in points)), INFO, "bool"),
    }


def _kvssd_metrics(points) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for p in points:
        metrics[f"{p.transport}_ops_per_second"] = Metric(
            p.ops_per_second, HIGHER, "ops/s")
        metrics[f"{p.transport}_p99_get_s"] = Metric(p.p99_get, LOWER, "s")
        metrics[f"{p.transport}_sampled_points"] = Metric(
            p.sampled_points, INFO, "samples")
    return metrics


def _chaos_metrics(report) -> Dict[str, Metric]:
    return {
        "availability": Metric(report.availability, HIGHER, "frac"),
        "p99_latency_s": Metric(report.p99_latency, LOWER, "s"),
        "p99_inflation": Metric(report.p99_inflation, LOWER, "x"),
        "failovers": Metric(report.failovers, INFO, "count"),
        "sampler_ticks": Metric(report.samples, INFO, "samples"),
        "slo_alerts_fired": Metric(report.slo_alerts_fired, INFO, "alerts"),
        "alert_log_digest": Metric(0.0, INFO, _digest(report.slo_alert_log)),
        "series_digest": Metric(0.0, INFO, _digest(report.series)),
        "telemetry_digest": Metric(0.0, INFO, _digest(report.telemetry)),
    }


def _overload_metrics(report) -> Dict[str, Metric]:
    return {
        "goodput_at_2x_ops": Metric(report.goodput_at_2x, HIGHER, "ops/s"),
        "goodput_retention_at_2x": Metric(
            report.goodput_retention_at_2x, HIGHER, "frac"),
        "controlled_p99_at_2x_s": Metric(
            next(p.p99_latency for p in report.controlled
                 if p.multiple == 2.0), LOWER, "s"),
        "uncontrolled_collapse_ratio": Metric(
            report.uncontrolled_collapse_ratio, INFO, "frac"),
        "brownout_transitions": Metric(
            report.brownout_transitions, INFO, "count"),
        "slo_alerts_fired": Metric(report.slo_alerts_fired, INFO, "alerts"),
        "brownout_log_digest": Metric(0.0, INFO, _digest(report.brownout_log)),
        "report_digest": Metric(0.0, INFO, _digest(report.canonical_bytes())),
        "telemetry_digest": Metric(0.0, INFO, _digest(report.telemetry)),
    }


def _scaleout_metrics(report) -> Dict[str, Metric]:
    top = max(report.points, key=lambda p: (p.optimized, p.dpus))
    return {
        "speedup_8dpu": Metric(report.speedup_8dpu, HIGHER, "x"),
        "batching_gain_8dpu": Metric(
            report.batching_gain_8dpu, HIGHER, "x"),
        "top_goodput_ops": Metric(top.goodput, HIGHER, "ops/s"),
        "top_p99_s": Metric(top.p99_latency, LOWER, "s"),
        "event_failures": Metric(report.event.failures, LOWER, "ops"),
        "event_p99_inflation": Metric(
            report.event.p99_inflation, LOWER, "x"),
        "event_keys_moved": Metric(report.event.keys_moved, INFO, "keys"),
        "event_migration_s": Metric(
            report.event.migration_duration, INFO, "s"),
        "report_digest": Metric(0.0, INFO, _digest(report.canonical_bytes())),
        "telemetry_digest": Metric(0.0, INFO, _digest(report.telemetry)),
    }


def _georep_metrics(report) -> Dict[str, Metric]:
    drill = report.drill
    by_mode = {point.mode: point for point in report.modes}
    return {
        "rpo_s": Metric(drill.rpo_seconds, LOWER, "s"),
        "rto_detect_s": Metric(drill.rto_detect, LOWER, "s"),
        "rto_steady_s": Metric(drill.rto_steady, LOWER, "s"),
        "lost_acked_writes": Metric(drill.lost_acked_writes, LOWER, "writes"),
        "diverged_keys": Metric(drill.diverged_keys, LOWER, "keys"),
        "failover_goodput_retention": Metric(
            drill.retention_during, HIGHER, "frac"),
        "failover_goodput_floor_ops": Metric(
            drill.goodput_floor, HIGHER, "ops/s"),
        "async_put_p99_s": Metric(by_mode["async"].put_p99, LOWER, "s"),
        "sync_put_p99_s": Metric(by_mode["sync"].put_p99, LOWER, "s"),
        "async_peak_lag_s": Metric(by_mode["async"].peak_lag, INFO, "s"),
        "failovers": Metric(drill.failovers, INFO, "count"),
        "replayed_writes": Metric(drill.replayed_writes, INFO, "writes"),
        "stale_reads_served": Metric(
            drill.stale_reads_served, INFO, "reads"),
        "report_digest": Metric(0.0, INFO, _digest(report.canonical_bytes())),
        "telemetry_digest": Metric(0.0, INFO, _digest(report.telemetry)),
    }


def _autoscale_metrics(report) -> Dict[str, Metric]:
    auto = report.variant("autoscaled")
    peak = report.variant("static-peak")
    low = report.variant("static-min")
    return {
        "capacity_ratio": Metric(report.capacity_ratio, LOWER, "x"),
        "p99_vs_peak": Metric(report.p99_ratio, LOWER, "x"),
        "auto_goodput": Metric(auto.goodput, HIGHER, "req/s"),
        "auto_worst_window_p99_s": Metric(
            auto.worst_window_p99, LOWER, "s"),
        "auto_breach_fraction": Metric(auto.breach_fraction, LOWER, "frac"),
        "peak_breach_fraction": Metric(peak.breach_fraction, INFO, "frac"),
        "min_breach_fraction": Metric(low.breach_fraction, INFO, "frac"),
        "auto_dpu_seconds": Metric(auto.dpu_seconds, LOWER, "s"),
        "scale_outs": Metric(auto.scale_outs, INFO, "count"),
        "drains": Metric(auto.drains, INFO, "count"),
        "accepted": Metric(1.0 if report.accepted else 0.0, HIGHER, "bool"),
        "report_digest": Metric(0.0, INFO, _digest(report.canonical_bytes())),
        "telemetry_digest": Metric(0.0, INFO, _digest(report.telemetry)),
    }


def _verify_metrics(report) -> Dict[str, Metric]:
    by_mode = {outcome.mode: outcome for outcome in report.planted.outcomes}
    caught = (not by_mode["async"].linearizable
              and by_mode["quorum"].linearizable
              and by_mode["sync"].linearizable)
    return {
        "schedules_clean": Metric(report.clean_schedules, HIGHER, "schedules"),
        "schedules_total": Metric(len(report.schedules), INFO, "schedules"),
        "history_ops": Metric(report.total_ops, INFO, "ops"),
        "checker_states": Metric(report.checker_states, LOWER, "states"),
        "planted_bug_caught": Metric(float(caught), HIGHER, "bool"),
        "minimal_plan_specs": Metric(
            report.planted.minimal_specs, LOWER, "specs"),
        "shrink_runs": Metric(report.planted.shrink_runs, INFO, "runs"),
        "replay_deterministic": Metric(
            float(report.planted.replay_matches), HIGHER, "bool"),
        "report_digest": Metric(0.0, INFO, _digest(report.canonical_bytes())),
    }


def _p2pdma_metrics(points) -> Dict[str, Metric]:
    hyperion = [p for p in points if p.path == "hyperion"]
    largest = max(hyperion, key=lambda p: p.transfer_size)
    return {
        "hyperion_goodput_bps": Metric(largest.goodput, HIGHER, "B/s"),
        "hyperion_per_transfer_s": Metric(largest.per_transfer, LOWER, "s"),
    }


def _telemetry_metrics(report) -> Dict[str, Metric]:
    return {
        "span_count": Metric(report.span_count, INFO, "spans"),
        "substrates": Metric(len(report.substrates), HIGHER, "substrates"),
        "snapshot_digest": Metric(0.0, INFO, _digest(report.snapshot)),
        "prometheus_digest": Metric(0.0, INFO, _digest(report.prometheus)),
        "chrome_trace_digest": Metric(
            0.0, INFO, _digest(report.chrome_trace)),
    }


def _sim_metrics(report) -> Dict[str, Metric]:
    return {
        "engine_events_per_sec": Metric(
            report.events_per_sec, HIGHER, "events/s", volatile=True),
        "rpc_roundtrips_per_sec": Metric(
            report.rpc_roundtrips_per_sec, HIGHER, "rt/s", volatile=True),
        "rpc_roundtrip_entries": Metric(
            report.rpc_roundtrip_entries, LOWER, "entries/rt"),
        "histogram_observes_per_sec": Metric(
            report.observes_per_sec, HIGHER, "obs/s", volatile=True),
        "engine_events_run": Metric(report.events_run, INFO, "events"),
        "rpc_roundtrips": Metric(report.rpc_roundtrips, INFO, "calls"),
        "histogram_observes": Metric(report.observes, INFO, "samples"),
    }


#: The benchmark suite: every simulated experiment at default config.
SPECS: Tuple[BenchSpec, ...] = (
    BenchSpec("e1", "volume + energy efficiency",
              run_efficiency, _efficiency_metrics),
    BenchSpec("e2", "pointer chasing",
              run_pointer_chase, _pointer_chase_metrics, seeded=True),
    BenchSpec("e3", "fail2ban",
              run_fail2ban, _fail2ban_metrics, seeded=True),
    BenchSpec("e4", "load balancer overflow",
              run_loadbalancer, _loadbalancer_metrics, seeded=True),
    BenchSpec("e5", "segment vs page translation",
              run_translation, _translation_metrics, seeded=True),
    BenchSpec("e6", "predictability + energy",
              run_predictability, _predictability_metrics),
    BenchSpec("e7", "partial reconfiguration",
              run_reconfig, _reconfig_metrics),
    BenchSpec("e8", "Corfu shared log",
              run_corfu, _corfu_metrics),
    BenchSpec("e9", "Parquet/Arrow end to end",
              run_analytics, _analytics_metrics),
    BenchSpec("e10", "eBPF->HDL compiler corpus",
              run_compiler, _compiler_metrics),
    BenchSpec("e11", "persistence + recovery",
              run_recovery, _recovery_metrics),
    BenchSpec("e12", "KV-SSD transports",
              run_kvssd, _kvssd_metrics),
    BenchSpec("e13", "chaos storm + replicated failover",
              run_chaos, _chaos_metrics, seeded=True),
    BenchSpec("e15", "overload: collapse vs graceful brownout",
              run_overload, _overload_metrics, seeded=True),
    BenchSpec("e16", "scale-out data plane: sharding + batching + cache",
              run_scaleout, _scaleout_metrics, seeded=True),
    BenchSpec("e17", "geo-replication: WAN log shipping + region-loss drill",
              run_georep, _georep_metrics, seeded=True),
    BenchSpec("e19", "consistency verification: chaos search + shrinking",
              run_verify, _verify_metrics, seeded=True),
    BenchSpec("e20", "traffic plane: SLO-driven autoscaling vs static fleets",
              run_autoscale, _autoscale_metrics, seeded=True),
    BenchSpec("p2p", "NIC->SSD bounce vs P2P DMA vs Hyperion",
              run_p2pdma, _p2pdma_metrics),
    BenchSpec("telemetry", "unified telemetry plane",
              run_telemetry, _telemetry_metrics),
    BenchSpec("sim", "simulator-core micro-benchmarks (wall-clock)",
              run_micro, _sim_metrics, seeded=True),
)


@dataclass
class BenchRun:
    """One full suite execution: canonical payload + wall-clock sidecar."""

    seed: Optional[int]
    payload: Dict[str, Any]
    #: experiment key -> wall-clock seconds. Stdout only, never serialized.
    wall_clock: Dict[str, float] = field(default_factory=dict)

    def canonical_bytes(self) -> bytes:
        text = json.dumps(self.payload, sort_keys=True, indent=2)
        return (text + "\n").encode()


def run_suite(seed: Optional[int] = None,
              keys: Optional[List[str]] = None) -> BenchRun:
    """Run the registered experiments and build the canonical payload."""
    selected = [s for s in SPECS if keys is None or s.key in keys]
    experiments: Dict[str, Any] = {}
    wall: Dict[str, float] = {}
    for spec in selected:
        started = time.perf_counter()
        if spec.seeded and seed is not None:
            result = spec.run(seed=seed)
        else:
            result = spec.run()
        wall[spec.key] = time.perf_counter() - started
        metrics = spec.extract(result)
        experiments[spec.key] = {
            "title": spec.title,
            "metrics": {
                name: metric.payload()
                for name, metric in sorted(metrics.items())
            },
        }
    payload = {
        "format": ARTIFACT_FORMAT,
        "seed": seed,
        "experiments": experiments,
    }
    return BenchRun(seed=seed, payload=payload, wall_clock=wall)


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


@dataclass
class BenchOutcome:
    """What one ``repro.bench`` invocation did with the artifact history."""

    run: BenchRun
    directory: Path
    written: Optional[Path]
    compared_against: Optional[Path]
    deltas: List[Delta]
    unchanged: bool
    #: Unchanged only up to volatile (wall-clock) jitter within the gate.
    within_noise: bool = False

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]


def _volatile_only_drift(old: Dict[str, Any], new: Dict[str, Any]) -> bool:
    """True when *new* differs from *old* only in volatile metric values,
    every one of them inside :data:`REGRESSION_THRESHOLD`.

    Any structural difference — a key added or removed, a deterministic
    value moved, a unit or direction changed — disqualifies, as does a
    volatile move past the gate: those must land in the history.
    """
    if {k: v for k, v in old.items() if k != "experiments"} != \
            {k: v for k, v in new.items() if k != "experiments"}:
        return False
    old_experiments = old.get("experiments", {})
    new_experiments = new.get("experiments", {})
    if old_experiments.keys() != new_experiments.keys():
        return False
    drifted = False
    for key, experiment in new_experiments.items():
        previous = old_experiments[key]
        if {k: v for k, v in previous.items() if k != "metrics"} != \
                {k: v for k, v in experiment.items() if k != "metrics"}:
            return False
        old_metrics = previous.get("metrics", {})
        new_metrics = experiment.get("metrics", {})
        if old_metrics.keys() != new_metrics.keys():
            return False
        for name, metric in new_metrics.items():
            before = old_metrics[name]
            if before == metric:
                continue
            if not (before.get("volatile") and metric.get("volatile")):
                return False
            if {k: v for k, v in before.items() if k != "value"} != \
                    {k: v for k, v in metric.items() if k != "value"}:
                return False
            if before["value"] == 0:
                return False
            relative = (metric["value"] - before["value"]) / abs(before["value"])
            if abs(relative) > REGRESSION_THRESHOLD:
                return False
            drifted = True
    return drifted


def publish(run: BenchRun, directory: Path) -> BenchOutcome:
    """Write the run's artifact (if changed) and diff it against history."""
    artifacts = discover_artifacts(directory)
    payload_bytes = run.canonical_bytes()
    if artifacts:
        newest_number, newest_path = artifacts[-1]
        if newest_path.read_bytes() == payload_bytes:
            return BenchOutcome(
                run=run, directory=directory, written=None,
                compared_against=newest_path, deltas=[], unchanged=True,
            )
        old_payload = json.loads(newest_path.read_text())
        if _volatile_only_drift(old_payload, run.payload):
            return BenchOutcome(
                run=run, directory=directory, written=None,
                compared_against=newest_path, deltas=[], unchanged=True,
                within_noise=True,
            )
        target = directory / f"BENCH_{newest_number + 1}.json"
        target.write_bytes(payload_bytes)
        deltas = compare_payloads(old_payload, run.payload)
        return BenchOutcome(
            run=run, directory=directory, written=target,
            compared_against=newest_path, deltas=deltas, unchanged=False,
        )
    target = directory / "BENCH_1.json"
    target.write_bytes(payload_bytes)
    return BenchOutcome(
        run=run, directory=directory, written=target,
        compared_against=None, deltas=[], unchanged=False,
    )
