#!/usr/bin/env python3
"""Engine-entry census of one perfbench workload: what each entry runs.

Usage::

    python tools/entry_census.py kv-batched-read [--seed 11] [--scale 1.0] [--json]

(``make entries W=kv-batched-read``.) The workload is built and measured
as ``perfbench/worker.py`` does it, on a :class:`CensusSimulator`: a
``Simulator`` whose ``run(until)`` drains through ``step()`` and names
the owner of every entry just before it runs. The owner of a scheduled
callback is its function. The owner of an event is what the event
resumes: its callbacks, with a process shown as the innermost generator
it resumes. An event with no callbacks is a no-op entry. An expiry the
engine dropped unrun (``Simulator.expire_later``: its wait was answered)
has a row of its own, so the rows still add up to the header's entries
per op.

Only entries scheduled inside the measured window are counted (the
``Simulator._eid`` delta over ``measure()``, build and final sweep
excluded). Any of them still queued when the window ends are classified
too. The table prints each owner's entries per attempted op, the unit of
the ``entries/op`` figures in DESIGN.md and ROADMAP.md. ``--json``
prints the entries per op in total and per ``src/repro/<package>`` of
what each entry runs (a no-op or dropped entry is the engine's, ``sim``):
the entries column of ``COSTS.json`` (``tools/costs.py``).

Read-only: nothing is written, not perfbench's output directory and not a
``BENCH_<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import partial
from math import inf
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from costs import package_of, per_op  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.sim.engine import Process  # noqa: E402


def _innermost(generator):
    """The generator a resumption lands in: down every ``yield from``."""
    while hasattr(generator.gi_yieldfrom, "gi_frame"):
        generator = generator.gi_yieldfrom
    return generator


def _name(function) -> str:
    """A callable as a census row names it."""
    while isinstance(function, partial):
        function = function.func
    owner = getattr(function, "__self__", None)
    if isinstance(owner, Process):
        if function.__func__ is Process._bootstrap:
            return f"start {owner._generator.__qualname__}"
        return f"resume {_innermost(owner._generator).__qualname__}"
    return getattr(function, "__qualname__", type(function).__name__)


def _package(function) -> str:
    """The package whose code a callable runs (``other`` outside it)."""
    while isinstance(function, partial):
        function = function.func
    owner = getattr(function, "__self__", None)
    if isinstance(owner, Process):
        generator = owner._generator
        if function.__func__ is not Process._bootstrap:
            generator = _innermost(generator)
        code, module = generator.gi_code, None
    else:
        code = getattr(getattr(function, "__func__", function), "__code__", None)
        module = getattr(function, "__module__", None)
    if code is None:  # a C callable: where its object's class lives
        return package_of("<builtin>", type(owner).__module__) or "other"
    return package_of(code.co_filename, module) or "other"


def owner_of(entry) -> str:
    """The census row of one queue entry ``(when, eid, event, thunk)``."""
    event, thunk = entry[2], entry[3]
    if event is None:
        name = _name(thunk)
        return name if name.startswith("start ") else f"call {name}"
    kind = type(event).__name__
    if not event.callbacks:
        return f"{kind}: no-op (nobody waits)"
    return f"{kind} -> " + ", ".join(_name(cb) for cb in event.callbacks)


def package_of_entry(entry) -> str:
    """The package of what one queue entry runs: its thunk's, or its
    event's first callback's; a no-op event is the engine's."""
    event, thunk = entry[2], entry[3]
    if event is None:
        return _package(thunk)
    return _package(event.callbacks[0]) if event.callbacks else "sim"


class CensusSimulator(Simulator):
    """A ``Simulator`` that names every entry it runs while counting.

    ``run`` peeks the entry ``step()`` will pop next, in the engine's
    own ``(when, eid)`` order, stops where the inlined drain loop stops,
    and otherwise steps — the same schedule, one entry at a time.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Entries counted per owner; ``None`` while not counting.
        self.census: Optional[Counter] = None
        #: The same entries counted per package.
        self.packages: Counter = Counter()
        #: Entries with an eid above this one are counted.
        self.since = 0

    def run(self, until: Optional[float] = None) -> None:
        limit = inf if until is None else until
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[0] > limit:
                self.now = until
                return
            if self.census is not None and entry[1] > self.since:
                self.census[owner_of(entry)] += 1
                self.packages[package_of_entry(entry)] += 1
            self.step()
        if until is None:
            if self._expiries_until > self.now:
                self.now = self._expiries_until
        elif until > self.now:
            self.now = until

    def expire_later(self, delay, event) -> None:
        """Count the window's expiries the engine drops unrun here."""
        if self.census is None:
            super().expire_later(delay, event)
            return
        since = self.since
        queued = sum(1 for entry in self._heap if entry[1] > since)
        super().expire_later(delay, event)
        dropped = queued + 1 - sum(1 for entry in self._heap if entry[1] > since)
        if dropped:
            self.census["call expire (dropped unrun: answered)"] += dropped
            self.packages["sim"] += dropped

    def begin(self) -> None:
        """Count every entry scheduled from now on."""
        self.census = Counter()
        self.packages = Counter()
        self.since = self._eid

    def end(self) -> Counter:
        """Stop counting; classify what the window left queued."""
        census, self.census = self.census, None
        for entry in self._heap:
            if entry[1] > self.since:
                census[owner_of(entry) + " (still queued)"] += 1
                self.packages[package_of_entry(entry)] += 1
        return census


def take(workload_name: str, seed: int, scale: float = 1.0,
         packages: Optional[Counter] = None):
    """Run one workload under the census.

    Returns ``(census, eid_delta, attempted, summary)``: the counts per
    owner summed over the workload's simulators, their ``_eid`` delta
    over the measured window, the attempted ops and perfbench's summary
    of the run (its ``result_digest`` and ``sim_*`` values). The same
    counts per package are added to *packages*, if given.
    """
    import metrics
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, scale)
    sims: List[CensusSimulator] = []

    def new_sim() -> CensusSimulator:
        sim = CensusSimulator()
        sims.append(sim)
        return sim

    workload.build(new_sim)
    before = [sim._eid for sim in sims]
    for sim in sims:
        sim.begin()
    for __ in workload.measure():
        pass
    census: Counter = Counter()
    for sim in sims:
        census.update(sim.end())
        if packages is not None:
            packages.update(sim.packages)
    delta = sum(sim._eid - start for sim, start in zip(sims, before))
    summary = metrics.summarise(workload.finish(), [])
    return census, delta, summary["attempted"], summary


def render(workload_name: str, seed: int, census: Counter, delta: int,
           attempted: int) -> str:
    ops = max(1, attempted)
    lines = [
        f"{workload_name} seed {seed}: {delta} entries over {attempted} "
        f"attempted ops = {delta / ops:.3f} per op",
        f"{'per op':>9}  {'share':>6}  owner",
    ]
    for owner, count in sorted(census.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"{count / ops:9.3f}  {count / max(1, delta):6.1%}  {owner}")
    return "\n".join(lines)


def ledger(workload_name: str, seed: int, scale: float, packages: Counter,
           delta: int, attempted: int) -> dict:
    """Entries per op in total and per package (``--json``)."""
    return {
        "workload": workload_name, "seed": seed, "scale": scale,
        "ops": attempted, "entries_per_op": per_op(delta, attempted),
        "packages": {name: {"entries_per_op": per_op(count, attempted)}
                     for name, count in sorted(packages.items())},
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(
        description="Engine entries per attempted op of one perfbench "
                    "workload, grouped by owner.")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--json", action="store_true",
                        help="print the ledger row: entries per op, in "
                             "total and per package")
    args = parser.parse_args(argv)
    packages: Counter = Counter()
    census, delta, attempted, __ = take(args.workload, args.seed, args.scale,
                                        packages)
    if args.json:
        print(json.dumps(ledger(args.workload, args.seed, args.scale,
                                packages, delta, attempted), sort_keys=True))
    else:
        print(render(args.workload, args.seed, census, delta, attempted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
