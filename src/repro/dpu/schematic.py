"""The Figure 2 schematic as a checkable component graph.

Nodes and edges follow the paper's diagram: QSFP cages feed a MUX/DEMUX
pair, AXIS arbiters fan into the eHDL accelerator slots managed by the
runtime config engine; the NVMe Host IP core drives four PCIe x4 bridge
cores through the crossover board to the SSDs, clocked by the 100 MHz
reference generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.common.errors import ConfigurationError


@dataclass
class SchematicNode:
    """One component of the Figure 2 graph and its outgoing edges."""

    name: str
    kind: str
    outputs: List[str] = field(default_factory=list)


class Schematic:
    """A small directed graph with reachability checks."""

    def __init__(self) -> None:
        self.nodes: Dict[str, SchematicNode] = {}

    def add(self, name: str, kind: str) -> SchematicNode:
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node {name}")
        node = SchematicNode(name, kind)
        self.nodes[name] = node
        return node

    def connect(self, src: str, dst: str) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise ConfigurationError(f"unknown node in edge {src} -> {dst}")
        self.nodes[src].outputs.append(dst)

    def reachable_from(self, start: str) -> Set[str]:
        seen: Set[str] = set()
        stack = [start]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.nodes[name].outputs)
        return seen


#: Figure 2's reconfigurable accelerator slots and NVMe SSDs.
FIGURE2_SLOTS = 5
FIGURE2_SSDS = 4


def build_schematic() -> Schematic:
    """Construct the Figure 2 graph."""
    s = Schematic()
    s.add("qsfp0", "network-port")
    s.add("qsfp1", "network-port")
    s.add("mux", "mux")
    s.add("demux", "demux")
    s.add("axis-arbiter-0", "arbiter")
    s.add("axis-arbiter-1", "arbiter")
    s.add("runtime-config-engine", "config")
    for i in range(FIGURE2_SLOTS):
        s.add(f"ehdl-slot-{i}", "accelerator-slot")
    s.add("nvme-host-ip", "nvme-host")
    s.add("refclk-100mhz", "clock")
    s.add("xover-board", "passive")
    for i in range(FIGURE2_SSDS):
        s.add(f"pcie-bridge-{i}", "pcie-bridge")
        s.add(f"nvme-ssd-{i}", "ssd")

    s.connect("qsfp0", "mux")
    s.connect("qsfp1", "mux")
    s.connect("mux", "axis-arbiter-0")
    s.connect("axis-arbiter-0", "demux")
    s.connect("demux", "qsfp0")
    s.connect("demux", "qsfp1")
    for i in range(FIGURE2_SLOTS):
        slot = f"ehdl-slot-{i}"
        s.connect("axis-arbiter-0", slot)
        s.connect(slot, "axis-arbiter-1")
        s.connect("runtime-config-engine", slot)
    s.connect("axis-arbiter-1", "demux")
    s.connect("axis-arbiter-1", "nvme-host-ip")
    s.connect("nvme-host-ip", "axis-arbiter-1")
    for i in range(FIGURE2_SSDS):
        bridge = f"pcie-bridge-{i}"
        s.connect("nvme-host-ip", bridge)
        s.connect(bridge, "xover-board")
        s.connect("xover-board", f"nvme-ssd-{i}")
        s.connect("refclk-100mhz", f"nvme-ssd-{i}")
    return s


def schematic_table(s: Schematic) -> str:
    """Render the graph as the table the figure-reproduction bench prints."""
    lines = ["component                kind              feeds"]
    lines.append("-" * 72)
    for name in sorted(s.nodes):
        node = s.nodes[name]
        feeds = ", ".join(node.outputs) if node.outputs else "-"
        lines.append(f"{name:<24} {node.kind:<17} {feeds}")
    return "\n".join(lines)
