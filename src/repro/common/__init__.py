"""Shared primitives: units, errors, and 128-bit object identifiers.

These helpers are deliberately dependency-free; every other subpackage in
:mod:`repro` builds on them.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "errors": ("ReproError", "CapacityError", "ConfigurationError",
               "ProtocolError", "VerificationError"),
    "ids": ("ObjectId",),
    "units": ("KIB", "MIB", "GIB", "TIB", "USEC", "MSEC", "SEC", "NSEC",
              "GBPS", "format_bytes", "format_time", "parse_quantity"),
})
