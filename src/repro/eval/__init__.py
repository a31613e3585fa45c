"""The evaluation harness: regenerates every table, figure, and claim.

One module per experiment in DESIGN.md's index; each exposes a ``run_*``
function returning structured results, a ``format_*`` function printing
the same rows the paper reports and, when benchmarked, a ``metrics``
function naming the headline numbers and an ``accept`` function naming
the claims (the expected *shapes*: who wins, by what factor) that the
default-config report violates. :mod:`repro.eval.registry` declares each
experiment once for both CLIs; ``python -m repro.bench --check`` fails on
a violated claim.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "report": ("Table",),
})
