"""Geo-replication: WAN-joined regions, log shipping, region failover.

The region-scale robustness layer (E17). Multiple
:class:`~repro.sharding.ShardedKvCluster` regions join a
:class:`WanFabric` of directional, partitionable WAN links; each
:class:`Region` ships its write log to every peer with tunable
:class:`Consistency`; a :class:`GeoKvClient` fails over between regions
behind circuit breakers, replays unacknowledged writes, and serves
staleness-bounded follower reads when the brownout ladder asks for them.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": ("GeoKvClient",),
    "log": ("Consistency", "LogEntry", "ReplicationLog"),
    "region": ("GeoCluster", "LogShipper", "Region", "WanSpec"),
    "wan": ("DEFAULT_WAN_BANDWIDTH", "DEFAULT_WAN_PROPAGATION", "WanFabric",
            "WanLink", "wan_component"),
})
