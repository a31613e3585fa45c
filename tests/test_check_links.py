"""tools/check_links.py holds code references in the docs to the tree:
a backticked ``repro.…`` name must resolve, a backticked repo path must
exist."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_links", ROOT / "tools" / "check_links.py")
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


def _broken(tmp_path, markdown):
    page = tmp_path / "page.md"
    page.write_text(markdown)
    files, _links, broken = check_links.check([str(page)])
    assert files == 1
    return [line.split(": ", 1)[1] for line in broken]


def test_good_names_and_paths_pass(tmp_path):
    assert _broken(tmp_path, (
        "The module `repro.eval.registry`, its attribute "
        "`repro.eval.registry.EXPERIMENTS`, the method "
        "`repro.storage.kvssd.KvSsd.recover_from_wal()`, the file "
        "`tools/check_links.py`, the directory `examples/` and the test "
        "`tests/test_eval.py::TestRegistry::test_metrics_are_directional`.\n"
    )) == []


def test_dangling_names_and_paths_are_named(tmp_path):
    assert _broken(tmp_path, (
        "`repro.memory.persistence` is no module, "
        "`repro.storage.kvssd.recover_from_wal` no attribute, "
        "`tests/test_bench_nowhere.py` no file.\n"
    )) == [
        "no such module or attribute repro.memory.persistence",
        "no such module or attribute repro.storage.kvssd.recover_from_wal",
        "no such path tests/test_bench_nowhere.py",
    ]


def test_commands_placeholders_and_fences_are_prose(tmp_path):
    assert _broken(tmp_path, (
        "Run `python -m repro.nowhere --check`, read `src/<layer>/x.py` "
        "or `tests/test_*.py`.\n\n"
        "```\nrepro.nowhere  tests/nowhere.py\n```\n"
    )) == []
