"""The paper's §2.4 workloads, runnable on the DPU and on the baseline.

* :mod:`repro.apps.fail2ban` — high-volume network middleware with
  persistent, traffic-proportional state;
* :mod:`repro.apps.loadbalancer` — a Tiara-style L4 load balancer whose
  connection table overflows from DRAM to SSD;
* :mod:`repro.apps.pointer_chase` — latency-sensitive pointer chasing over
  a disaggregated B+ tree, client-side vs DPU-offloaded;
* :mod:`repro.apps.analytics` — the §2.3 end-to-end columnar scan:
  annotation walker -> Parquet chunks -> Arrow -> filter/aggregate.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fail2ban": ("Fail2BanDpu", "Fail2BanBaseline", "PacketRecord",
                 "build_fail2ban_program", "generate_packet_trace"),
    "loadbalancer": ("LoadBalancer", "LbPacket", "generate_connections"),
    "pointer_chase": ("RemoteTreeService", "client_side_lookup",
                      "offloaded_lookup"),
    "analytics": ("AnalyticsQuery", "dpu_scan", "cpu_scan"),
    "graph": ("CsrGraph", "GraphService", "client_side_bfs", "offloaded_bfs",
              "random_graph"),
})
