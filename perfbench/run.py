"""The repository's performance benchmark: five workloads, two clocks.

    python3 perfbench/run.py                       # all workloads, one sample
    python3 perfbench/run.py --workload kv-batched-read --repeats 5
    python3 perfbench/run.py --selfcheck           # is the benchmark steady?
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Every run of a workload is a fresh ``worker.py`` process, one at a time.
The last form is the one ``BENCHMARK.json`` names: it measures for about
``S`` seconds and prints one JSON object as its last line. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import schema  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("kv-batched-read", "kv-unbatched-rw", "traffic-day",
             "georep-quorum", "offload-fail2ban")
#: Metrics on the simulated clock: equal, digit for digit, across every
#: run of one workload with one seed.
SIMULATED = ("sim_goodput_ops_s", "sim_mean_s", "sim_p95_s", "result_digest")
#: What else a sample records about its runs (equal in all of them).
INFO = ("ops", "attempted", "failed", "latency_samples", "sim_window_s",
        "sim_p50_s", "sim_p99_s", "python", "nproc")
#: A timed run never stops before this many runs.
MIN_RUNS = 3
DEFAULT_SEED = 11


class WorkerFailed(RuntimeError):
    """A worker process exited non-zero or printed no result."""


def spawn(workload: str, seed: int, *, traced: bool = False,
          scale: float = 1.0) -> dict:
    """One run in a fresh process; returns the worker's result."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--scale", repr(scale), "--traced", str(int(traced)),
         "--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(
            f"{workload} seed {seed}: worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, *, repeats=None, seconds=None,
            scale: float = 1.0) -> list:
    """Untraced runs: exactly *repeats*, or for about *seconds*."""
    runs = []
    started = time.perf_counter()
    while True:
        runs.append(spawn(workload, seed, scale=scale))
        if repeats is not None:
            if len(runs) >= repeats:
                return runs
        elif (len(runs) >= MIN_RUNS
              and time.perf_counter() - started >= seconds):
            return runs


def combine(runs: list) -> dict:
    """One sample from the runs of one seed: the median of every host
    metric, and the simulated metrics, which are equal in all of them."""
    first = runs[0]
    sample = {name: first[name] for name in SIMULATED + INFO}
    sample.update({
        name: statistics.median(run[name] for run in runs)
        for name in ("setup_s", "setup_raw_s", "host_ops_per_s",
                     "host_peak_rss_mb", "host_wall_s", "host_raw_wall_s")
    })
    sample["runs"] = len(runs)
    sample["load_1min"] = max(run["load_1min"] for run in runs)
    return sample


def failures_of(workload: str, runs: list) -> list:
    """Failed output checks of *runs*, and any simulated disagreement."""
    found = [f"{workload}: {line}" for run in runs for line in run["wrong"]]
    for name in SIMULATED:
        values = sorted({repr(run[name]) for run in runs})
        if len(values) > 1:
            found.append(f"{workload}: {name} differs between runs of "
                         f"one seed: {values}")
    return found


def layers_of(traced: dict, plain_wall: float) -> dict:
    """The per-layer metrics of a traced run, with the tracing overhead."""
    layers = dict(traced["layers"])
    layers["trace.overhead_x"] = traced["host_wall_s"] / plain_wall
    return {metric.name: layers[metric.name] for metric in schema.PER_LAYER}


def warn_if_loaded() -> None:
    load, cores = os.getloadavg()[0], os.cpu_count() or 1
    if load > cores:
        print(f"warning: 1-min load average {load:.2f} exceeds {cores} "
              f"cores; host times will be noisy", file=sys.stderr)


# -- the form BENCHMARK.json names ---------------------------------------------

def timed_run(args) -> int:
    """``--workload W --seed N --seconds S --trace 0|1``: one JSON line."""
    if args.trace:
        traced = spawn(args.workload, args.seed, traced=True,
                       scale=args.scale)
        runs = [traced, spawn(args.workload, args.seed, scale=args.scale)]
        values = layers_of(traced, runs[1]["host_wall_s"])
        units = {m.name: m.unit for m in schema.PER_LAYER}
        counted = [traced]
    else:
        runs = counted = measure(args.workload, args.seed,
                                 seconds=args.seconds, scale=args.scale)
        sample = combine(runs)
        values = {m.name: sample[m.name] for m in schema.END_TO_END}
        units = {m.name: m.unit for m in schema.END_TO_END}
    failures = failures_of(args.workload, runs)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload}: {len(runs)} runs, seed {args.seed}")
    for name, value in values.items():
        print(f"  {name:34} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(run["attempted"] for run in counted),
        "failed": sum(run["failed"] for run in counted),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 1 if failures else 0


# -- the full run -----------------------------------------------------------------

def full_run(args) -> int:
    """Every workload: ``--repeats`` untraced runs and one traced run."""
    warn_if_loaded()
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_path = args.out or os.path.join(OUT_DIR, "results.json")
    results = {"seed": args.seed, "workloads": {}}
    if args.append and os.path.exists(out_path):
        with open(out_path) as handle:
            results = json.load(handle)
        if results["seed"] != args.seed:
            print(f"{out_path} holds seed {results['seed']}", file=sys.stderr)
            return 2
    failures = []
    for name in names:
        entry = results["workloads"].setdefault(name, {"samples": []})
        runs = measure(name, args.seed, repeats=args.repeats,
                       scale=args.scale)
        traced = spawn(name, args.seed, traced=True, scale=args.scale)
        sample = combine(runs)
        entry["samples"].append(sample)
        entry["layers"] = layers_of(traced, sample["host_wall_s"])
        failures += failures_of(name, runs + [traced])
        if len({s["result_digest"] for s in entry["samples"]}) > 1:
            failures.append(f"{name}: result_digest differs from the "
                            f"samples already in {out_path}")
        report(name, entry)
    results["failures"] = failures
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    print(f"\nwrote {os.path.relpath(out_path)}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


def report(name: str, entry: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    last = entry["samples"][-1]
    print(f"\n== {name}  ({last['runs']} runs; {last['ops']} ops, "
          f"{last['latency_samples']} latency samples, "
          f"host {last['host_raw_wall_s']:.2f} s wall = "
          f"{last['host_wall_s']:.2f} s at reference speed, "
          f"simulated {last['sim_window_s']:.4g} s per run; "
          f"python {last['python']}, {last['nproc']} cores, "
          f"load {last['load_1min']:.2f})")
    print(f"   result_digest {last['result_digest']}")
    print(f"   sim_p50_s {last['sim_p50_s']:.6g} s, "
          f"sim_p99_s {last['sim_p99_s']:.6g} s (info)")
    for metric in schema.END_TO_END:
        print(f"   {metric.name:34} {last[metric.name]:.6g} {metric.unit}")
    print(f"   {'failed_op_share':34} "
          f"{last['failed'] / last['attempted']:.6g} fraction")
    for metric in schema.PER_LAYER:
        print(f"     {metric.name:32} {entry['layers'][metric.name]:.6g} "
              f"{metric.unit}")


# -- is the benchmark steady? --------------------------------------------------------

def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def selfcheck(args) -> int:
    """Two sets of timed runs over ``--runs`` seeds, as the driver makes them.

    Prints, per workload and end-to-end metric, both medians, the gap
    between them, each set's spread and the bound; fails when a spread
    (``setup_s`` excepted) or a gap exceeds its bound.
    """
    warn_if_loaded()
    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = range(args.seed, args.seed + args.runs)
    report_ = {}
    failures = []
    for name in names:
        sets = []
        for _ in range(2):
            rows = []
            for seed in seeds:
                runs = measure(name, seed, seconds=args.seconds,
                               scale=args.scale)
                failures += failures_of(name, runs)
                rows.append(combine(runs))
            sets.append(rows)
        print(f"\n== {name}")
        print(f"   {'metric':20} {'median 1':>12} {'median 2':>12} "
              f"{'gap':>8} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
        report_[name] = {}
        for metric in schema.END_TO_END:
            first = [row[metric.name] for row in sets[0]]
            second = [row[metric.name] for row in sets[1]]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if metric.better == "lower" \
                else (m1 - m2) / m1
            spreads = (spread(first), spread(second))
            verdict = ""
            if worse > metric.bound:
                verdict = "  GAP"
                failures.append(f"{name}: {metric.name} second median "
                                f"{worse:+.3f} worse, bound {metric.bound}")
            if metric.name != "setup_s" and max(spreads) > metric.bound:
                verdict += "  SPREAD"
                failures.append(f"{name}: {metric.name} spread "
                                f"{max(spreads):.3f}, bound {metric.bound}")
            print(f"   {metric.name:20} {m1:12.6g} {m2:12.6g} {worse:+8.3f} "
                  f"{spreads[0]:9.3f} {spreads[1]:9.3f} "
                  f"{metric.bound:6.2f}{verdict}")
            report_[name][metric.name] = {
                "medians": [m1, m2], "gap": worse, "spreads": spreads,
                "bound": metric.bound, "values": [first, second],
            }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "selfcheck.json")
    with open(path, "w") as handle:
        json.dump(report_, handle, indent=1, sort_keys=True)
    print(f"\nwrote {os.path.relpath(path)}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per sample (full run)")
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long (timed run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="timed run: 1 reports the per-layer metrics")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per set (selfcheck)")
    parser.add_argument("--out", help="results file of the full run")
    parser.add_argument("--append", action="store_true",
                        help="full run: add the sample to those in --out")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every measured window (tests only)")
    args = parser.parse_args()
    try:
        if args.selfcheck:
            if args.seconds is None:
                args.seconds = 15.0
            return selfcheck(args)
        if args.seconds is not None:
            if args.workload is None:
                parser.error("--seconds needs --workload")
            return timed_run(args)
        return full_run(args)
    except WorkerFailed as error:
        print(f"FAILED {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
