"""Compare two results files of ``run.py``: parent A against change B.

    python3 perfbench/compare.py A.json B.json

Each ``run.py --out FILE [--append]`` adds one sample per workload to
FILE. One row per (workload, end-to-end metric) with each side's median
and quartiles over its samples, and a verdict:

``improved``    every sample of B reads better than every sample of A;
                or the spread is within the bound, B wins at least nine
                tenths of the sample pairs (ties count for neither) and
                the medians differ by more than the spread between A's
                own samples (distance between quartiles);
``regressed``   B's median is worse than A's by more than the bound, with
                the spread within the bound or every sample of B worse
                than every sample of A;
``unresolved``  otherwise, when the spread of either side is wider than
                the bound: "no worse than the bound" cannot be shown;
``unchanged``   none of the above.

Then, per workload, whether the digests are identical and the per-layer
metrics that moved, largest host-time change first: the ledger that has
to account for an end-to-end move.

The protocol for a claim (choosing-metrics guide, section 8): at least
ten pairs of samples, alternating which side runs first, with identical
benchmark code, settings and seed on both sides::

    for i in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 perfbench/run.py --append --out $PWD/../A.json)
      (cd change && python3 perfbench/run.py --append --out $PWD/../B.json)
    done    # swap the two lines on every other pass
    python3 perfbench/compare.py A.json B.json
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import schema  # noqa: E402


def quartiles(values):
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _median, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(metric, a, b) -> str:
    """The verdict for one metric given each side's per-run values."""
    sign = 1.0 if metric.better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    gain = sign * (b_med - a_med)  # > 0: B reads better
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    all_worse = max(sign * v for v in b) < min(sign * v for v in a)
    too_wide = max(a_q3 - a_q1, b_q3 - b_q1) > metric.bound * abs(a_med)
    if all_better:
        return "improved"
    if -gain > metric.bound * abs(a_med) and (all_worse or not too_wide):
        return "regressed"
    if too_wide:
        return "unresolved"
    pairs = [(sign * x, sign * y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if y > x)
    if pairs and wins >= 0.9 * len(pairs) and gain > a_q3 - a_q1:
        return "improved"
    return "unchanged"


def layer_moves(a_layers: dict, b_layers: dict):
    """Per-layer metrics that differ, largest host-time change first."""
    known = {m.name: m for m in schema.PER_LAYER}
    moves = []
    for name, before in a_layers.items():
        after = b_layers.get(name)
        if after is None or after == before:
            continue
        relative = (after - before) / abs(before) if before else float("inf")
        host = abs(after - before) if name.endswith("host_self_s") else 0.0
        moves.append((host, abs(relative), known[name], before, after,
                      relative))
    moves.sort(reverse=True)
    return moves


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        a = json.load(handle)
    with open(argv[2]) as handle:
        b = json.load(handle)
    if a["seed"] != b["seed"]:
        print(f"seeds differ: {a['seed']} and {b['seed']}", file=sys.stderr)
        return 2
    regressed = False
    pairs = min(len(entry["samples"]) for side in (a, b)
                for entry in side["workloads"].values())
    if pairs < 10:
        print(f"note: {pairs} sample pair(s); a claim needs at least 10\n")
    print(f"{'workload':18} {'metric':18} {'A q1':>11} {'A median':>11} "
          f"{'A q3':>11} {'B q1':>11} {'B median':>11} {'B q3':>11}  verdict")
    for name, a_entry in a["workloads"].items():
        b_entry = b["workloads"].get(name)
        if b_entry is None:
            continue
        for metric in schema.END_TO_END:
            a_values = [sample[metric.name] for sample in a_entry["samples"]]
            b_values = [sample[metric.name] for sample in b_entry["samples"]]
            outcome = verdict(metric, a_values, b_values)
            regressed |= outcome == "regressed"
            cells = "".join(f" {v:11.5g}" for v in
                            quartiles(a_values) + quartiles(b_values))
            print(f"{name:18} {metric.name:18}{cells}  {outcome}")
        same = ({sample["result_digest"] for sample in a_entry["samples"]}
                == {sample["result_digest"] for sample in b_entry["samples"]})
        print(f"{name:18} result_digest      "
              f"{'identical' if same else 'DIFFERENT'}")
    for name, a_entry in a["workloads"].items():
        b_entry = b["workloads"].get(name)
        if b_entry is None:
            continue
        moves = layer_moves(a_entry["layers"], b_entry["layers"])
        print(f"\n{name}: per-layer metrics that moved "
              f"({len(moves)} of {len(a_entry['layers'])})")
        for _host, _rel, metric, before, after, relative in moves[:16]:
            print(f"  {metric.name:34} {before:12.6g} -> {after:12.6g} "
                  f"{metric.unit:8} {relative:+7.1%}  "
                  f"(should move {metric.moves})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
