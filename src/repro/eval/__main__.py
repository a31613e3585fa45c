"""Run the complete evaluation and print every reproduced artifact.

Usage::

    python -m repro.eval                 # everything
    python -m repro.eval e3 e6           # selected experiments
    python -m repro.eval --seed 42 e13   # reproducible alternate seed
    python -m repro.eval -j 2            # rows in 2 processes, same bytes
    python -m repro.eval --list
"""

from __future__ import annotations

import sys

from repro.eval.registry import (
    SelectionError, pop_option, positive_int, rendered, run_each, select,
)


def main(argv) -> int:
    args = [arg.lower() for arg in argv[1:]]
    if "--list" in args:
        for experiment in select():
            print(f"{experiment.key:>4}  {experiment.title}")
        return 0
    try:
        seed = pop_option(args, "--seed", int, "an integer")
        jobs = pop_option(args, "-j", positive_int, "a positive integer") or 1
        selected = select(args)
    except SelectionError as error:
        print(error, file=sys.stderr)
        return 2
    reports = run_each(rendered, selected, seed, jobs)
    for experiment, report in zip(selected, reports):
        print(f"\n### {experiment.title}\n")
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
