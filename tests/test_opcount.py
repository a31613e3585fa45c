"""tools/opcount.py counts the bytecodes and Python calls of a perfbench
workload's measured window exactly: the same tree, workload, seed and
scale print the same table in every run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def opcount(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "opcount.py"), *args],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
    )
    return done.stdout


def test_two_runs_print_identical_counts():
    first = opcount("kv-unbatched-rw", "--seed", "11", "--scale", "0.02")
    assert opcount("kv-unbatched-rw", "--seed", "11", "--scale",
                   "0.02") == first
    lines = first.splitlines()
    assert lines[0].startswith("kv-unbatched-rw seed 11 scale 0.02: ")
    assert "bytecodes and" in lines[0] and "Python calls per op" in lines[0]
    # The engine's drain loop runs in the window; the build does not.
    rows = lines[2:]
    assert any("Simulator.run (src/repro/sim/engine.py:" in row
               for row in rows)
    assert not any("_preload" in row for row in rows)
