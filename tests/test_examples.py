"""Every example runs end to end.

The examples are roots of ``tools/reachability.py``: code they alone
use counts as live, so an example that stops running must fail here.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, capsys):
    runpy.run_path(str(example), run_name="__main__")
    assert capsys.readouterr().out  # each one narrates what it did
