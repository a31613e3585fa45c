"""Continuous-benchmark CLI: ``python -m repro.bench``.

Usage::

    python -m repro.bench                   # run all, publish BENCH_<n>.json
    python -m repro.bench --check           # exit 1 on a regression or a
                                            # violated claim (CI)
    python -m repro.bench --seed 42         # alternate seed (not published)
    python -m repro.bench --output-dir out  # artifact directory (default: .)
    python -m repro.bench --list            # registered experiments
    python -m repro.bench e12 e13           # subset (not published)
    python -m repro.bench --check -j 2      # rows in 2 processes, same bytes
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.bench import BenchOutcome, publish, run_suite
from repro.eval.registry import (
    SelectionError, pop_option, positive_int, select,
)


def _report(outcome: BenchOutcome) -> str:
    run = outcome.run
    lines = ["repro continuous benchmark", "=" * 26]
    total_wall = sum(run.wall_clock.values())
    for key, experiment in sorted(run.payload["experiments"].items()):
        wall = run.wall_clock.get(key, 0.0)
        tracked = sum(
            1 for m in experiment["metrics"].values() if m["better"] != "info"
        )
        lines.append(
            f"  {key:>9}  {experiment['title']:<42} "
            f"{tracked:2d} tracked metrics  {wall * 1e3:7.1f} ms wall"
        )
    lines.append(f"  {'total':>9}  {'':<42} "
                 f"{'':>18}  {total_wall * 1e3:7.1f} ms wall")
    lines.append("")
    if outcome.unchanged:
        lines.append(
            f"artifact unchanged: payload is byte-identical to "
            f"{outcome.compared_against.name}; nothing written"
        )
        return "\n".join(lines)
    lines.append(f"wrote {outcome.written}")
    if outcome.compared_against is None:
        lines.append("no previous artifact; baseline established")
        return "\n".join(lines)
    lines.append(f"compared against {outcome.compared_against.name}:")
    moved = [d for d in outcome.deltas if d.regressed or d.improved]
    steady = len(outcome.deltas) - len(moved)
    for delta in moved:
        lines.append(f"  {delta.line()}")
    lines.append(f"  ({steady} tracked metrics within "
                 "+/-20%, not shown)")
    if outcome.regressions:
        lines.append(f"REGRESSIONS: {len(outcome.regressions)}")
    else:
        lines.append("no regressions")
    return "\n".join(lines)


def main(argv) -> int:
    args = list(argv[1:])
    if "--list" in args:
        for experiment in select(benchmarked=True):
            seeded = "seeded" if experiment.seeded else "fixed"
            print(f"{experiment.key:>9}  [{seeded:>6}]  "
                  f"{experiment.bench_title}")
        return 0
    check = "--check" in args
    if check:
        args.remove("--check")
    try:
        seed = pop_option(args, "--seed", int, "an integer")
        directory = Path(
            pop_option(args, "--output-dir", str, "a path") or ".")
        jobs = pop_option(args, "-j", positive_int, "a positive integer") or 1
        run = run_suite(seed=seed, keys=args, jobs=jobs)
    except SelectionError as error:
        print(error, file=sys.stderr)
        return 2
    claims_broken = any(run.violations.values())
    if args or seed is not None:
        # Subset and alternate-seed runs are for iterating locally; the
        # history holds whole default-seed suites only.
        kind = "subset" if args else f"seed {seed}"
        print(f"{kind} run ({', '.join(run.payload['experiments'])}); "
              "artifact not published")
        for key, experiment in sorted(run.payload["experiments"].items()):
            print(f"\n{key}: {experiment['title']}")
            for name, metric in experiment["metrics"].items():
                print(f"  {name:<34} {metric['value']!r:>24} "
                      f"{metric['unit']} [{metric['better']}]")
        print("\n" + "\n".join(run.claim_lines()))
        return 1 if check and claims_broken else 0
    directory.mkdir(parents=True, exist_ok=True)
    outcome = publish(run, directory)
    print(_report(outcome))
    print("\n".join(run.claim_lines()))
    if check and (outcome.regressions or claims_broken):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
