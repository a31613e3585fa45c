#!/usr/bin/env python3
"""Interpreter-work census of one perfbench workload: bytecodes and calls.

Usage::

    python tools/opcount.py kv-unbatched-rw [--seed 11] [--scale 1.0]

(``make opcodes W=kv-unbatched-rw [SEED=11] [SCALE=1.0]``.) The workload
is built and measured as ``perfbench/worker.py`` does it, on a plain
``Simulator``. Over the measured window only (build and final sweep
excluded), a ``sys.settrace`` hook counts every bytecode instruction the
interpreter executes and every Python frame it enters — a call or a
generator resume; C functions are not seen. The table prints both per
attempted op, in total and per function.

Unlike a wall-clock run the counts are exact: the same tree, workload,
seed and scale print the same numbers on any host, so a few per cent of
host work saved shows without pairs of timed runs. The counts are taken
under ``PYTHONHASHSEED=0`` (the script re-executes itself with it),
because a few paths branch on ``hash()`` of a string or bytes key. The
traced run is about fifty times slower than an untraced one; ``--scale``
shrinks the measured window.

Read-only: nothing is written, not perfbench's output directory and not a
``BENCH_<n>.json``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from repro.sim import Simulator  # noqa: E402


def take(workload_name: str, seed: int, scale: float = 1.0):
    """Run one workload's measured window under the counting hook.

    Returns ``(opcodes, calls, attempted)``: bytecodes executed and
    frames entered per code object, and the attempted ops of
    perfbench's summary of the run.
    """
    import metrics
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, scale)
    workload.build(Simulator)
    gc.collect()
    opcodes: Counter = Counter()
    calls: Counter = Counter()

    def in_frame(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return in_frame

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return in_frame

    pieces = workload.measure()
    sys.settrace(on_call)
    try:
        for __ in pieces:
            pass
    finally:
        sys.settrace(None)
    summary = metrics.summarise(workload.finish(), [])
    return opcodes, calls, summary["attempted"]


def _where(code) -> str:
    """A code object as a table row names it."""
    name = getattr(code, "co_qualname", code.co_name)
    path = code.co_filename
    if path.startswith(ROOT + os.sep):
        path = os.path.relpath(path, ROOT)
    return f"{name} ({path}:{code.co_firstlineno})"


def render(workload_name: str, seed: int, scale: float, opcodes: Counter,
           calls: Counter, attempted: int) -> str:
    ops = max(1, attempted)
    total_opcodes = sum(opcodes.values())
    total_calls = sum(calls.values())
    lines = [
        f"{workload_name} seed {seed} scale {scale:g}: {attempted} attempted "
        f"ops, {total_opcodes / ops:.1f} bytecodes and "
        f"{total_calls / ops:.2f} Python calls per op",
        f"{'bytecodes/op':>12}  {'share':>6}  {'calls/op':>8}  function",
    ]
    rows = sorted(set(opcodes) | set(calls),
                  key=lambda code: (-opcodes[code], -calls[code],
                                    _where(code)))
    for code in rows:
        lines.append(
            f"{opcodes[code] / ops:12.2f}  "
            f"{opcodes[code] / max(1, total_opcodes):6.1%}  "
            f"{calls[code] / ops:8.3f}  {_where(code)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(
        description="Bytecodes and Python calls per attempted op of one "
                    "perfbench workload's measured window, by function.")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    opcodes, calls, attempted = take(args.workload, args.seed, args.scale)
    print(render(args.workload, args.seed, args.scale, opcodes, calls,
                 attempted))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
