"""One run of one workload in a fresh process; prints one JSON line.

``run.py`` starts this file once per run so that every run pays its own
interpreter start, ``import repro``, topology build and preload
(``setup_s``) and has its own peak RSS. It is not meant to be called by
hand: use ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

OUT_DIR = os.path.join(HERE, "out")


def monotonic() -> float:
    """The system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args()
    spawned_at = args.spawned_at if args.spawned_at is not None else monotonic()
    load_1min = os.getloadavg()[0]

    # The first probe comes before the imports that set-up time is
    # mostly made of, so the two probes bracket it.
    import speed

    probe = speed.SpeedProbe()
    speed_at_start = probe()

    import check
    import metrics
    import workloads
    from repro.sim import Simulator

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    ledger = None
    new_sim = Simulator
    if args.traced:
        import ledger as ledger_module

        ledger = ledger_module.Ledger(args.seed)
        new_sim = ledger.new_sim
    workload.build(new_sim)
    gc.collect()
    setup_raw_s = monotonic() - spawned_at
    speeds = [probe()]
    setup_s = speed.corrected(setup_raw_s, speed_at_start, speeds[0])

    # One slice of identical work at a time, a speed probe after each;
    # the traced run profiles the slices and not the probes.
    slices = []
    pieces = workload.measure()
    step = next
    if ledger is not None:
        ledger.begin()
        step = ledger.step
    while True:
        started = time.perf_counter()
        try:
            step(pieces)
        except StopIteration:
            break
        slices.append(time.perf_counter() - started)
        speeds.append(probe())
    if ledger is not None:
        ledger.end()
    raw_wall = sum(slices)
    wall = sum(speed.corrected(seconds, before, after) for seconds, before,
               after in zip(slices, speeds, speeds[1:]))

    outcome = workload.finish()
    wrong = check.CHECKS[workload.name](outcome)
    result = metrics.summarise(outcome, wrong)
    result.update({
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "host_wall_s": wall,
        "host_raw_wall_s": raw_wall,
        "host_ops_per_s": result["ops"] / wall,
        "host_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrong": wrong[:10],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "load_1min": load_1min,
    })
    if ledger is not None:
        result["layers"] = metrics.layer_metrics(
            ledger, outcome, result, raw_wall, wall)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                  "w") as handle:
            json.dump({
                "workload": workload.name, "seed": args.seed,
                "scale": args.scale, "traced_wall_s": raw_wall,
                "layers": result["layers"],
                "host_calls": ledger.host_calls,
                "engine_entries": ledger.entries,
                "counters": ledger.deltas,
                "sample_rate": ledger_module.SAMPLE_RATE,
                "spans": ledger.spans(),
            }, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
