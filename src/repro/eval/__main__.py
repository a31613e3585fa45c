"""Run the complete evaluation and print every reproduced artifact.

Usage::

    python -m repro.eval                 # everything
    python -m repro.eval e3 e6           # selected experiments
    python -m repro.eval --seed 42 e13   # reproducible alternate seed
    python -m repro.eval --list
"""

from __future__ import annotations

import sys

from repro.eval.registry import SelectionError, pop_option, select


def main(argv) -> int:
    args = [arg.lower() for arg in argv[1:]]
    if "--list" in args:
        for experiment in select():
            print(f"{experiment.key:>4}  {experiment.title}")
        return 0
    try:
        seed = pop_option(args, "--seed", int, "an integer")
        selected = select(args)
    except SelectionError as error:
        print(error, file=sys.stderr)
        return 2
    for experiment in selected:
        print(f"\n### {experiment.title}\n")
        print(experiment.render(experiment.execute(seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
