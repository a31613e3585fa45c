"""Shared primitives: units, errors, and 128-bit object identifiers.

These helpers are deliberately dependency-free; every other subpackage in
:mod:`repro` builds on them.
"""

from repro.common.errors import (
    ReproError,
    CapacityError,
    ConfigurationError,
    ProtocolError,
    VerificationError,
)
from repro.common.ids import ObjectId
from repro.common.units import (
    KIB,
    MIB,
    GIB,
    TIB,
    USEC,
    MSEC,
    SEC,
    NSEC,
    GBPS,
    format_bytes,
    format_time,
    parse_quantity,
)

__all__ = [
    "ReproError",
    "CapacityError",
    "ConfigurationError",
    "ProtocolError",
    "VerificationError",
    "ObjectId",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "GBPS",
    "format_bytes",
    "format_time",
    "parse_quantity",
]
