"""Exception hierarchy shared across the Hyperion reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class CapacityError(ReproError):
    """A resource (memory, flash, FPGA area, queue) is exhausted."""


class ConfigurationError(ReproError):
    """A component was composed or configured inconsistently."""


class ProtocolError(ReproError):
    """A wire- or command-level protocol invariant was violated."""


class VerificationError(ReproError):
    """An eBPF program was rejected by the verifier."""


class FaultInjectedError(ReproError):
    """A fault scheduled by :mod:`repro.faults` fired inside a component.

    Raised at the point of injection (a flash die, a PCIe link, a fabric
    slot) so the surrounding layer can surface it through its native error
    channel — an NVMe status code, a dropped frame, a failed RPC.
    """


class DegradedError(ReproError):
    """An operation completed only partially, or a component is running in
    a degraded mode (e.g. all replicas of a key are unreachable, or a
    read failed on every retry)."""
