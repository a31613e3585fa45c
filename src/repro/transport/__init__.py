"""Network transports: UDP, TCP, RDMA, HOMA, and a Willow-style RPC layer.

Paper §2: "The end-to-end hardware path can be specialized with ...
an application-defined network transport (TCP, UDP, RDMA, HOMA)". Each
transport charges its own realistic costs — handshakes, segmentation, ACKs,
grants, one-sided completions — so the KV-SSD experiment (E12) can sweep
them and show where each wins.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "udp": ("UdpSocket",),
    "tcp": ("TcpStack", "TcpConnection"),
    "rdma": ("RdmaNic", "MemoryRegion"),
    "homa": ("HomaSocket",),
    "rpc": ("MAX_BATCH_OPS", "BatchOp", "RetryBudget", "RetryPolicy",
            "RpcClient", "RpcServer", "RpcError"),
})
