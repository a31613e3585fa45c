"""Storage services exported by network-attached Hyperion DPUs (§2.4).

* :mod:`repro.storage.kvssd` — a key-value SSD: the device exports get/put
  instead of blocks, with an LSM tree running next to the flash;
* :mod:`repro.storage.corfu` — a Corfu-style shared log: sequencer +
  write-once chain-replicated log units, the fault-tolerant ordered-log
  abstraction the paper proposes exporting from network-attached SSDs.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "kvssd": ("KvSsd", "KvSsdService", "KvSsdClient"),
    "corfu": ("CorfuSequencer", "CorfuLogUnit", "CorfuClient"),
})
