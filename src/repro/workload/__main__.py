"""Preview a workload spec's deterministic arrival stream.

Usage::

    python -m repro.workload [--seed N] [--limit N] [--spec FILE]

Without ``--spec`` a small built-in demo scenario is used.  The output
is the spec echo followed by the first ``--limit`` arrivals exactly as
:class:`~repro.workload.generator.OpenLoopTraffic` would replay them —
same seed, byte-identical lines, independent of ``PYTHONHASHSEED``
(``tests/test_workload.py`` diffs this output across hash seeds).  A
malformed spec prints one line naming the bad line and exits with
status 2.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import ConfigurationError
from repro.workload.generator import arrival_preview
from repro.workload.spec import WorkloadSpec

DEMO_SPEC = """\
# Demo scenario: a get-heavy web tenant over a compressed day, plus a
# steady scan/analytics batch tenant. See docs/WORKLOADS.md.
keys 128
zipf 1.0
tenant web   mix get=0.78,put=0.22 curve diurnal trough=4000 peak=28000 period=240ms
tenant batch mix scan=0.7,analytics=0.3 curve steady rate=800
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description="preview a workload spec's deterministic arrivals",
    )
    parser.add_argument("--seed", type=int, default=20,
                        help="stream seed (default 20)")
    parser.add_argument("--limit", type=int, default=24,
                        help="arrivals to print (default 24)")
    parser.add_argument("--spec", default=None,
                        help="spec file (default: built-in demo)")
    args = parser.parse_args(argv)
    if args.spec is None:
        text = DEMO_SPEC
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        spec = WorkloadSpec.parse(text)
        arrivals = list(arrival_preview(spec, args.seed, limit=args.limit))
    except ConfigurationError as error:
        print(f"{parser.prog}: {error}", file=sys.stderr)
        return 2
    print(spec.describe())
    print(f"# first {args.limit} arrivals, seed {args.seed}")
    for line in arrivals:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
