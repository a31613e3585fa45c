"""Package export maps and what a run imports.

Every package ``__init__`` that exports names declares them as a map
``{submodule: names}`` served by :func:`repro.lazy_exports`: importing
the package loads no submodule, a name loads its defining module on
first use. These tests hold the maps to what the modules define, and
pin what perfbench's imports load, in a fresh interpreter each.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

from tests.test_architecture import SRC, reachability

ROOT = SRC.parent.parent
PERFBENCH = ROOT / "perfbench"

#: Every ``repro`` module that ``import workloads`` (``perfbench/``)
#: loads, sorted. The tuple may only shrink: a module a run does not
#: use costs every run its compile time.
PERFBENCH_IMPORTS = (
    "repro", "repro.apps", "repro.apps.fail2ban", "repro.baseline",
    "repro.baseline.cpu", "repro.baseline.datapath", "repro.baseline.os_model",
    "repro.common", "repro.common.errors", "repro.common.ids",
    "repro.common.units", "repro.datastruct", "repro.datastruct.lsm",
    "repro.dpu", "repro.dpu.hyperion", "repro.ebpf", "repro.ebpf.asm",
    "repro.ebpf.helpers", "repro.ebpf.isa", "repro.ebpf.maps",
    "repro.ebpf.verifier", "repro.ebpf.vm", "repro.faults",
    "repro.faults.injector", "repro.faults.plan", "repro.georep",
    "repro.georep.client", "repro.georep.log", "repro.georep.region",
    "repro.georep.wan", "repro.hdl", "repro.hdl.dataflow", "repro.hdl.engine",
    "repro.hdl.fusion", "repro.hdl.resources", "repro.hdl.schedule",
    "repro.hw", "repro.hw.fpga", "repro.hw.fpga.axi",
    "repro.hw.fpga.bitstream", "repro.hw.fpga.fabric", "repro.hw.fpga.icap",
    "repro.hw.fpga.resources", "repro.hw.net", "repro.hw.net.frames",
    "repro.hw.net.link", "repro.hw.net.port", "repro.hw.net.switch",
    "repro.hw.nvme", "repro.hw.nvme.commands", "repro.hw.nvme.controller",
    "repro.hw.nvme.flash", "repro.hw.nvme.namespace", "repro.hw.pcie",
    "repro.hw.pcie.device", "repro.hw.pcie.link", "repro.hw.pcie.root",
    "repro.memory", "repro.memory.backends", "repro.memory.segments",
    "repro.memory.store", "repro.memory.table", "repro.overload",
    "repro.overload.admission", "repro.overload.breaker",
    "repro.overload.brownout", "repro.overload.queues", "repro.power",
    "repro.power.energy", "repro.sharding", "repro.sharding.cache",
    "repro.sharding.client", "repro.sharding.cluster", "repro.sharding.core",
    "repro.sharding.migration", "repro.sharding.ring", "repro.sim",
    "repro.sim.engine", "repro.sim.resources", "repro.storage",
    "repro.storage.kvssd", "repro.telemetry", "repro.telemetry.flightrec",
    "repro.telemetry.metrics", "repro.telemetry.slo",
    "repro.telemetry.timeseries", "repro.telemetry.tracing", "repro.transport",
    "repro.transport.rpc", "repro.transport.udp", "repro.verify",
    "repro.verify.history", "repro.workload", "repro.workload.autoscaler",
    "repro.workload.generator", "repro.workload.popularity",
    "repro.workload.spec",
)

#: What the simulation kernel alone must not drag in.
NOT_UNDER_SIM = (
    "repro.eval", "repro.verify.linearizability", "repro.transport.tcp",
    "repro.transport.rdma", "repro.transport.homa", "repro.apps.analytics",
    "repro.fs", "repro.formats", "repro.hdl.codegen",
)


def _fresh(code):
    """What *code* prints, run in a fresh interpreter that finds
    ``repro`` and the perfbench modules."""
    path = [str(SRC.parent), str(PERFBENCH)]
    prelude = f"import sys\nsys.path[:0] = {path!r}\n"
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


#: Code that prints the loaded ``repro`` modules, sorted.
PRINT_LOADED = ("print(*sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'repro'))\n")


def test_perfbench_imports_load_only_the_pinned_modules():
    assert len(PERFBENCH_IMPORTS) <= 97
    assert _fresh("import workloads\n" + PRINT_LOADED) == list(PERFBENCH_IMPORTS)


def test_the_kernel_alone_loads_no_upper_layer():
    assert _fresh("import repro.sim\n" + PRINT_LOADED) == ["repro", "repro.sim"]
    loaded = _fresh("from repro.sim import *\n" + PRINT_LOADED)
    assert "repro.sim.engine" in loaded
    assert not [m for m in loaded if m.startswith(NOT_UNDER_SIM)]


def test_no_workload_imports_during_build_measure_or_finish():
    """A module loaded on first use inside the timed window would be
    host time charged to ``host_ops_per_s``: building each perfbench
    workload, running its window and finishing it imports nothing."""
    moved = _fresh(
        "import workloads\n"
        "from repro.sim import Simulator\n"
        "for name, make in workloads.WORKLOADS.items():\n"
        "    before = set(sys.modules)\n"
        "    workload = make(11, 0.02)\n"
        "    workload.build(Simulator)\n"
        "    for _ in workload.measure():\n"
        "        pass\n"
        "    workload.finish()\n"
        "    print(name, *sorted(set(sys.modules) - before), sep=':')\n")
    assert moved == ["kv-batched-read", "kv-unbatched-rw", "traffic-day",
                     "georep-quorum", "offload-fail2ban"]


def _packages():
    """``(package, export map)`` of every ``__init__`` under ``src``
    that has one."""
    found = []
    for path in sorted(SRC.rglob("__init__.py")):
        exports = reachability.export_map(ast.parse(path.read_text()))
        if exports:
            parts = path.parent.relative_to(SRC.parent).parts
            found.append((".".join(parts), exports))
    return found


def _top_level_names(module):
    """Names *module*'s own top level defines (not imports)."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return names


def test_every_package_but_two_declares_an_export_map():
    """No package re-exports eagerly: each ``__init__`` but ``repro.hw``
    (exports nothing) and ``repro.bench`` (a module in its own right)
    declares a map, and imports nothing of ``repro`` but the helper."""
    packages = [name for name, _exports in _packages()]
    every = sorted(".".join(p.parent.relative_to(SRC.parent).parts)
                   for p in SRC.rglob("__init__.py"))
    assert sorted(packages) == sorted(set(every) - {"repro.hw", "repro.bench"})
    for name in packages:
        path = SRC.parent.joinpath(*name.split(".")) / "__init__.py"
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                assert not [a for a in node.names
                            if a.name.split(".")[0] == "repro"], name
            elif (isinstance(node, ast.ImportFrom)
                  and node.module.split(".")[0] == "repro"):
                assert (node.module, [a.name for a in node.names]) == (
                    "repro", ["lazy_exports"]), f"{name} imports {node.module}"


@pytest.mark.parametrize("package,exports", _packages(),
                         ids=[name for name, _ in _packages()])
def test_a_map_serves_what_its_modules_define(package, exports):
    served = importlib.import_module(package)
    names = [name for group in exports.values() for name in group]
    assert len(names) == len(set(names))
    assert sorted(served.__all__) == sorted(names)
    assert dir(served) == sorted(names)
    for module_name, group in exports.items():
        module = importlib.import_module(f"{package}.{module_name}")
        defined = _top_level_names(module)
        for name in group:
            assert name in defined, f"{module.__name__} does not define {name}"
            assert getattr(served, name) is getattr(module, name)
            assert name in vars(served)  # kept: the next read is plain


def test_an_unknown_name_is_an_error_naming_the_package():
    import repro.sharding

    with pytest.raises(AttributeError, match="'repro.sharding'.*'Nothing'"):
        _ = repro.sharding.Nothing
    with pytest.raises(ImportError):
        from repro.sharding import Nothing  # noqa: F401
