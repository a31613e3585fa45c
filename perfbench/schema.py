"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names (a test
compares them); the layer and the end-to-end metric each per-layer
metric should move are recorded here and in the README, because the
manifest's schema has no room for them.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    clock: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: The end-to-end metric this one should move.
    moves: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "host: process start to first measured op"),
    EndToEnd("host_ops_per_s", "ops/s", "higher", 0.25,
             "host: ops completed / wall seconds of the measured window"),
    EndToEnd("host_peak_rss_mb", "MiB", "lower", 0.10,
             "host: ru_maxrss of the run's process"),
    EndToEnd("sim_goodput_ops_s", "ops/s", "higher", 0.25,
             "simulated: ops served in time / simulated window"),
    EndToEnd("sim_mean_s", "s", "lower", 0.25,
             "simulated: mean request latency from the due instant"),
    EndToEnd("sim_p95_s", "s", "lower", 0.25,
             "simulated: p95 request latency from the due instant"),
)

_HOST = "host_ops_per_s"
_P95 = "sim_p95_s"
_GOOD = "sim_goodput_ops_s"
#: Printed by the full run beside the end-to-end metrics; the driver
#: reads it from ``failed`` / ``attempted``.
_FAIL = "failed_op_share"
_NONE = "none"


def _host_self(layer: str) -> PerLayer:
    return PerLayer(f"{layer}.host_self_s", "s", "lower", layer, _HOST)


PER_LAYER = (
    _host_self("sim"),
    PerLayer("sim.host_share", "fraction", "lower", "sim", _HOST),
    PerLayer("sim.entries_per_op", "1/op", "lower", "sim", _HOST),
    PerLayer("sim.timeouts_per_op", "1/op", "lower", "sim", _HOST),
    PerLayer("sim.processes_per_op", "1/op", "lower", "sim", _HOST),
    PerLayer("sim.host_us_per_entry", "us", "lower", "sim", _HOST),
    _host_self("hw.net"),
    PerLayer("hw.net.frames_per_op", "1/op", "lower", "hw.net", _HOST),
    PerLayer("hw.net.bytes_per_op", "B/op", "lower", "hw.net", "sim_mean_s"),
    PerLayer("hw.net.frames_dropped", "count", "lower", "hw.net", _FAIL),
    PerLayer("hw.net.sim_self_us_per_op", "us/op", "lower", "hw.net",
             "sim_mean_s"),
    _host_self("transport"),
    PerLayer("transport.calls_per_op", "1/op", "lower", "transport", _HOST),
    PerLayer("transport.batched_ops_per_call", "1/call", "higher",
             "transport", _HOST),
    PerLayer("transport.retransmits", "count", "lower", "transport", _P95),
    PerLayer("transport.deadline_exceeded", "count", "lower", "transport",
             _FAIL),
    PerLayer("transport.requests_shed", "count", "lower", "transport", _FAIL),
    PerLayer("transport.queue_sojourn_p99_s", "s", "lower", "transport",
             _P95),
    PerLayer("transport.sim_self_us_per_op", "us/op", "lower", "transport",
             "sim_mean_s"),
    _host_self("sharding"),
    PerLayer("sharding.cache_hit_ratio", "fraction", "higher", "sharding",
             _GOOD),
    PerLayer("sharding.round_trips_per_op", "1/op", "lower", "sharding",
             _HOST),
    PerLayer("sharding.forwarded_ops", "count", "lower", "sharding", _P95),
    PerLayer("sharding.keys_handed_off", "count", "lower", "sharding", _P95),
    _host_self("storage"),
    _host_self("datastruct"),
    PerLayer("storage.flushes", "count", "lower", "storage", _P95),
    PerLayer("storage.compactions", "count", "lower", "storage", _P95),
    PerLayer("storage.bytes_compacted", "B", "lower", "storage", _P95),
    PerLayer("storage.sim_self_us_per_op", "us/op", "lower", "storage",
             _GOOD),
    _host_self("hw.nvme"),
    PerLayer("hw.nvme.commands", "count", "lower", "hw.nvme", _GOOD),
    PerLayer("hw.nvme.flash_programs", "count", "lower", "hw.nvme", _GOOD),
    PerLayer("hw.nvme.flash_reads", "count", "lower", "hw.nvme", _GOOD),
    PerLayer("hw.nvme.commands_aborted", "count", "lower", "hw.nvme", _FAIL),
    PerLayer("hw.nvme.cmd_latency_p99_s", "s", "lower", "hw.nvme", _P95),
    _host_self("hw.pcie"),
    PerLayer("hw.pcie.bytes_transferred", "B", "lower", "hw.pcie", _GOOD),
    _host_self("telemetry"),
    PerLayer("telemetry.calls", "count", "lower", "telemetry", _HOST),
    PerLayer("telemetry.sampler_ticks", "count", "lower", "telemetry", _HOST),
    _host_self("overload"),
    PerLayer("overload.codel_drops", "count", "lower", "overload", _FAIL),
    PerLayer("overload.queue_full_drops", "count", "lower", "overload",
             _FAIL),
    _host_self("workload"),
    PerLayer("workload.offered", "count", "higher", "workload", _GOOD),
    PerLayer("workload.scale_outs", "count", "lower", "workload", _P95),
    PerLayer("workload.drains", "count", "lower", "workload", _P95),
    PerLayer("workload.client_retries", "count", "lower", "workload", _P95),
    PerLayer("workload.worst_window_p99_s", "s", "lower", "workload", _P95),
    PerLayer("workload.generator_lag_s", "s", "lower", "workload", _P95),
    _host_self("georep"),
    PerLayer("georep.entries_shipped", "count", "lower", "georep", _HOST),
    PerLayer("georep.ship_batches", "count", "lower", "georep", _HOST),
    PerLayer("georep.heartbeats", "count", "lower", "georep", _HOST),
    PerLayer("georep.entries_stale", "count", "lower", "georep", _P95),
    _host_self("ebpf"),
    PerLayer("ebpf.host_share", "fraction", "lower", "ebpf", _HOST),
    PerLayer("ebpf.calls", "count", "lower", "ebpf", _HOST),
    _host_self("hdl"),
    _host_self("dpu"),
    _host_self("baseline"),
    _host_self("hw.fpga"),
    _host_self("apps"),
    PerLayer("dpu.sim_speedup_x", "x", "higher", "dpu", _GOOD),
    PerLayer("other.host_self_s", "s", "lower", "other", _NONE),
    PerLayer("python.host_self_s", "s", "lower", "python", _NONE),
    PerLayer("bench.host_self_s", "s", "lower", "bench", _NONE),
    PerLayer("trace.overhead_x", "x", "lower", "bench", _NONE),
)
