#!/usr/bin/env python3
"""The host-cost ledger: write ``COSTS.json`` from exact counts.

Usage::

    python tools/costs.py

(``make costs``.) For every perfbench workload at seed 11, runs
``tools/entry_census.py --json`` and ``tools/opcount.py --json`` at the
workload's scale in :data:`SCALES`, two runs at a time, and writes one
file at the repository root: engine entries, bytecodes and Python calls
per attempted op, in total and per ``src/repro/<package>`` (plus
``perfbench``, the driver's own frames), and ``garbage_per_op``: the
objects the cyclic GC finds per attempted op over the entry census's
window under ``gc.DEBUG_SAVEALL``, i.e. what refcounting alone left
behind (a reference cycle: a finished process that still names itself,
an exception whose traceback holds the frame that keeps it).

Each scale is the smallest tried at which the per-op counts lie within
1 % of the scale-1 window's; ``traffic-day`` and ``georep-quorum`` need
the whole window (at half of it they read 10 % and 6 % more bytecodes
per op). The counts are exact under ``PYTHONHASHSEED=0`` (both tools run
with it) on one CPython minor version, which the file records. Frames
outside the repository (the standard library) are left out of every
row, so a CPython patch release does not move the file; ``make
opcodes`` still prints them.

A change that moves host cost commits the new file, so its diff is the
claim; CI recomputes the file and fails on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 11
#: Tool runs at a time: one per core of a 2-core CI runner.
JOBS = 2
#: Per workload, the smallest scale tried whose per-op counts (entries,
#: bytecodes and calls) are within 1 % of scale 1's.
SCALES = {
    "kv-batched-read": 0.7,
    "kv-unbatched-rw": 0.15,
    "traffic-day": 1.0,
    "georep-quorum": 1.0,
    "offload-fail2ban": 0.3,
}
COUNTS = ("entries_per_op", "bytecodes_per_op", "calls_per_op")
_SRC = os.path.join(ROOT, "src", "repro") + os.sep
_PERFBENCH = os.path.join(ROOT, "perfbench") + os.sep


def package_of(filename: str, module: Optional[str]) -> Optional[str]:
    """The row a code object is counted in: its ``src/repro`` package
    (``repro`` for the package's own modules), ``perfbench``, or None
    for code outside the repository. Generated code (a ``<string>``
    file, such as a dataclass ``__init__``) counts where *module*, the
    module it was made for, lives."""
    if filename.startswith(_SRC):
        head, sep, __ = filename[len(_SRC):].partition(os.sep)
        return head if sep else "repro"
    if filename.startswith(_PERFBENCH):
        return "perfbench"
    if filename.startswith("<") and module:
        parts = module.split(".")
        if parts[0] == "repro":
            return parts[1] if len(parts) > 2 else "repro"
    return None


def per_op(count: int, ops: int) -> float:
    """A count per attempted op, as the ledger stores it."""
    return round(count / max(1, ops), 3)


def _tool(name: str, workload: str, scale: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", name), workload,
         "--seed", str(SEED), "--scale", repr(scale), "--json"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    return json.loads(done.stdout)


def merge(census: dict, opcodes: dict) -> dict:
    """One workload's ledger row from the two tools' ``--json`` output."""
    if census["ops"] != opcodes["ops"]:
        raise SystemExit(f"{census['workload']}: the tools counted "
                         f"{census['ops']} and {opcodes['ops']} ops")
    source = {"entries_per_op": census, "bytecodes_per_op": opcodes,
              "calls_per_op": opcodes}
    names = sorted(set(census["packages"]) | set(opcodes["packages"]))
    packages = {
        name: {count: source[count]["packages"].get(name, {}).get(count, 0.0)
               for count in COUNTS}
        for name in names
    }
    return {"scale": census["scale"], "ops": census["ops"],
            "entries_per_op": census["entries_per_op"],
            "bytecodes_per_op": opcodes["bytecodes_per_op"],
            "calls_per_op": opcodes["calls_per_op"],
            "garbage_per_op": census["garbage_per_op"],
            "packages": packages}


def ledger() -> dict:
    """Every workload's row; the longest runs start first."""
    runs = [(tool, workload) for workload in SCALES
            for tool in ("opcount.py", "entry_census.py")]
    runs.sort(key=lambda run: (run[0] != "opcount.py", -SCALES[run[1]]))
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = {run: pool.submit(_tool, *run, SCALES[run[1]])
                   for run in runs}
        results = {run: future.result() for run, future in futures.items()}
    return {
        "python": "{}.{}".format(*sys.version_info[:2]),
        "seed": SEED,
        "workloads": {
            workload: merge(results["entry_census.py", workload],
                            results["opcount.py", workload])
            for workload in SCALES
        },
    }


def main() -> int:
    text = json.dumps(ledger(), indent=2, sort_keys=True)
    with open(os.path.join(ROOT, "COSTS.json"), "w") as out:
        out.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
