"""The numbers of one run: from its outcome, and from its ledger."""

from __future__ import annotations

import hashlib

from workloads import quantile


def summarise(outcome, wrong) -> dict:
    """The simulated-clock metrics and op counts of one run."""
    requests = outcome.requests
    start, end = outcome.window
    served = [r for r in requests if r.ok]
    latencies = sorted(r.finish - r.start for r in served)
    attempted = sum(len(r.keys) for r in requests)
    failed = attempted - sum(len(r.keys) for r in served) + len(wrong)
    deadline = outcome.deadline
    good = sum(
        len(r.keys) for r in served
        if r.finish <= end
        and (deadline is None or r.finish - r.start <= deadline)
    )
    digest = hashlib.sha256()
    for r in requests:
        digest.update(
            f"{r.index} {int(r.ok)} {r.start!r} {r.finish!r}\n".encode())
    return {
        "ops": attempted - min(failed, attempted),
        "attempted": attempted,
        "failed": min(failed, attempted),
        "latency_samples": len(latencies),
        "sim_window_s": end - start,
        "sim_goodput_ops_s": good / (end - start),
        "sim_mean_s": sum(latencies) / len(latencies),
        "sim_p50_s": quantile(latencies, 0.50),
        "sim_p95_s": quantile(latencies, 0.95),
        "sim_p99_s": quantile(latencies, 0.99),
        "result_digest": digest.hexdigest(),
    }


def layer_metrics(ledger, outcome, summary, raw_wall: float,
                  wall: float) -> dict:
    """Every per-layer metric of ``schema.PER_LAYER``, by name.

    Host self times are rescaled to the reference speed by the traced
    window's overall ``wall / raw_wall``; shares are of the traced wall.
    """
    ops = max(1, summary["attempted"])
    calls = ledger.host_calls
    host = {layer: seconds * wall / raw_wall
            for layer, seconds in ledger.host_seconds.items()}
    sim_self = ledger.sim_self_seconds()
    entries = ledger.entries
    total_entries = sum(entries.values())
    rpc_calls = ledger.total(".calls", "rpc.client.")
    hits = ledger.total(".hits", "shard.cache.")
    lookups = hits + ledger.total(".misses", "shard.cache.")
    sojourn = sorted(ledger.samples(".queue.sojourn"))
    nvme_latency = sorted(ledger.samples(".cmd_latency"))
    frames = (ledger.total(".frames_sent", "net.link.")
              + ledger.total(".frames_sent", "wan."))
    wire_bytes = (ledger.total(".bytes_sent", "net.link.")
                  + ledger.total(".bytes_sent", "wan."))

    metrics = {f"{layer}.host_self_s": host[layer] for layer in host}
    metrics.update({
        "sim.host_share": ledger.host_seconds["sim"] / raw_wall,
        "sim.entries_per_op": total_entries / ops,
        "sim.timeouts_per_op": entries["timeout"] / ops,
        "sim.processes_per_op": entries["process"] / ops,
        "sim.host_us_per_entry": (
            1e6 * host["sim"] / total_entries if total_entries else 0.0),
        "hw.net.frames_per_op": frames / ops,
        "hw.net.bytes_per_op": wire_bytes / ops,
        "hw.net.frames_dropped": (
            ledger.total(".frames_dropped", "net.link.")
            + ledger.total(".frames_dropped", "wan.")),
        "hw.net.sim_self_us_per_op": 1e6 * sim_self["hw.net"] / ops,
        "transport.calls_per_op": rpc_calls / ops,
        "transport.batched_ops_per_call": (
            ledger.total(".batched_ops", "rpc.client.") / rpc_calls
            if rpc_calls else 0.0),
        "transport.retransmits": ledger.total(".retransmits", "rpc.client."),
        "transport.deadline_exceeded": ledger.total(
            ".deadline_exceeded", "rpc.client."),
        "transport.requests_shed": ledger.total(
            ".requests_shed", "rpc.server."),
        "transport.queue_sojourn_p99_s": (
            quantile(sojourn, 0.99) if sojourn else 0.0),
        "transport.sim_self_us_per_op": 1e6 * sim_self["transport"] / ops,
        "sharding.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "sharding.round_trips_per_op": ledger.total(
            ".round_trips", "shard.client.") / ops,
        "sharding.forwarded_ops": ledger.total(
            ".forwarded_ops", "shard.forwarder."),
        "sharding.keys_handed_off": ledger.total(
            ".keys_handed_off", "shard.forwarder."),
        "storage.flushes": ledger.total(".lsm.flushes", "kvssd."),
        "storage.compactions": ledger.total(".lsm.compactions", "kvssd."),
        "storage.bytes_compacted": ledger.total(
            ".lsm.bytes_compacted", "kvssd."),
        "storage.sim_self_us_per_op": 1e6 * sim_self["storage"] / ops,
        "hw.nvme.commands": ledger.total(".commands_executed"),
        "hw.nvme.flash_programs": ledger.total(".flash.programs"),
        "hw.nvme.flash_reads": ledger.total(".flash.reads"),
        "hw.nvme.commands_aborted": ledger.total(".commands_aborted"),
        "hw.nvme.cmd_latency_p99_s": (
            quantile(nvme_latency, 0.99) if nvme_latency else 0.0),
        "hw.pcie.bytes_transferred": ledger.total(
            ".bytes_transferred", "pcie-link"),
        "telemetry.calls": calls["telemetry"],
        "telemetry.sampler_ticks": outcome.facts.get("sampler_ticks", 0),
        "overload.codel_drops": ledger.total(
            ".queue.dropped_deadline", "rpc.server."),
        "overload.queue_full_drops": ledger.total(
            ".queue.dropped_full", "rpc.server."),
        "workload.offered": ledger.total(".offered_ops", "workload."),
        "workload.scale_outs": ledger.total(
            ".scale_outs", "workload.autoscaler"),
        "workload.drains": ledger.total(".drains", "workload.autoscaler"),
        "workload.client_retries": outcome.facts.get("client_retries", 0),
        "workload.worst_window_p99_s": outcome.facts.get(
            "worst_window_p99_s", 0.0),
        "workload.generator_lag_s": outcome.facts.get(
            "generator_lag_s", 0.0),
        "georep.entries_shipped": ledger.total(".entries", "georep."),
        "georep.ship_batches": ledger.total(".batches", "georep."),
        "georep.heartbeats": ledger.total(".heartbeats", "georep."),
        "georep.entries_stale": ledger.total(".entries_stale", "georep."),
        "ebpf.host_share": ledger.host_seconds["ebpf"] / raw_wall,
        "ebpf.calls": calls["ebpf"],
        "dpu.sim_speedup_x": outcome.facts.get("sim_speedup_x", 0.0),
    })
    return metrics
