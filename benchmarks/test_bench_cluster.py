"""Extension bench: multi-DPU scaling with client-driven routing (§2.4 C1).

Not a numbered artifact in the paper — it answers discussion question 3
("how should one build distributed CPU-free applications?") with the MICA
pattern the paper cites: clients hash keys to owner DPUs, shared-nothing.
Expected shape: aggregate throughput grows with DPU count because
partitions serve independently; the key spread stays balanced.
"""

from conftest import emit

from repro.eval.report import Table
from repro.hw.net import Network
from repro.sharding import ShardedKvClient, ShardedKvCluster
from repro.sim import Simulator

OPS_PER_CLIENT = 60


def run_cluster_scaling(dpu_counts=(1, 2, 4)):
    rows = []
    for count in dpu_counts:
        sim = Simulator()
        cluster = ShardedKvCluster(
            sim, Network(sim), dpu_count=count, ssd_blocks=16384, name="kv"
        )
        clients = [
            ShardedKvClient(sim, cluster, f"client-{i}", cache=None)
            for i in range(count)
        ]

        def worker(client, base):
            for i in range(OPS_PER_CLIENT):
                yield from client.put(f"{base}:key:{i}".encode(), b"v" * 32)

        start = sim.now
        for index, client in enumerate(clients):
            sim.process(worker(client, f"c{index}"))
        sim.run()
        elapsed = sim.now - start
        total_ops = count * OPS_PER_CLIENT
        rows.append(
            {
                "dpus": count,
                "ops": total_ops,
                "elapsed": elapsed,
                "throughput": total_ops / elapsed,
                "balance": cluster.balance(),
            }
        )
    return rows


def test_bench_cluster_scaling(benchmark):
    rows = benchmark.pedantic(run_cluster_scaling, rounds=1, iterations=1)
    table = Table(
        "EXT: multi-DPU KV cluster, client-driven routing (MICA pattern)",
        ["DPUs", "ops", "elapsed", "ops/s", "balance (max/mean)"],
    )
    for row in rows:
        table.add_row(
            row["dpus"], row["ops"], f"{row['elapsed'] * 1e3:.1f} ms",
            f"{row['throughput']:.0f}", f"{row['balance']:.2f}",
        )
    emit(table.render())
    throughputs = [row["throughput"] for row in rows]
    # Shared-nothing partitions scale aggregate throughput with DPU count.
    assert throughputs == sorted(throughputs)
    assert throughputs[-1] > 2.5 * throughputs[0]
    # Hashing keeps partitions balanced.
    assert all(row["balance"] < 1.8 for row in rows)
