"""EXT: NIC-to-SSD data movement — bounce vs P2P DMA vs Hyperion.

Paper §2: "Commercially, NICs and storage devices are sold as separate PCIe
devices. Communication between the two requires control coordination with
P2P DMA from the CPU (if supported, e.g., NVMe Controller Memory Buffers)
via the PCIe root complex." (and §1's [122], "How Beneficial is
Peer-to-Peer DMA?").

Three ways to land a stream of network payloads on flash, measured at queue
depth (transfers pipeline; flash dies absorb parallel programs):

* **bounce** — NIC DMAs into host DRAM; the CPU serially takes an
  interrupt, copies, and issues the write syscall for every transfer
  before a second DMA reaches the SSD;
* **p2p** — NIC DMAs straight into the SSD's CMB through the host root
  complex; no copy, but the *CPU still coordinates* every transfer
  (descriptor setup + doorbells) on one core;
* **hyperion** — the DPU's fabric issues descriptors in hardware; no CPU.

Expected shape: at small transfers the serialized CPU section is the
bottleneck, so hyperion >> p2p >> bounce in throughput; at large transfers
all paths converge toward the PCIe/flash bandwidth, with bounce still
paying its copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.baseline.cpu import CpuCosts, CpuModel
from repro.baseline.os_model import OsModel
from repro.eval.report import HIGHER, LOWER, Metric, Table, violated
from repro.hw.nvme import Namespace, NvmeCommand, NvmeController, NvmeOpcode
from repro.hw.pcie.link import PcieLink
from repro.sim import Resource, Simulator

#: CPU-side control work per P2P transfer: map the CMB window, build the
#: descriptor, ring two doorbells through the kernel.
P2P_CONTROL_COST = 5e-6
#: FPGA-side control: a pipelined descriptor in fabric logic.
HYPERION_CONTROL_COST = 100e-9


@dataclass
class DatapathPoint:
    """One movement-path measurement at a given transfer size."""

    path: str
    transfer_size: int
    transfers: int
    total_time: float

    @property
    def per_transfer(self) -> float:
        return self.total_time / self.transfers

    @property
    def goodput(self) -> float:
        return self.transfer_size * self.transfers / self.total_time


def metrics(points) -> Dict[str, Metric]:
    hyperion = [p for p in points if p.path == "hyperion"]
    largest = max(hyperion, key=lambda p: p.transfer_size)
    return {
        "hyperion_goodput_bps": Metric(largest.goodput, HIGHER, "B/s"),
        "hyperion_per_transfer_s": Metric(largest.per_transfer, LOWER, "s"),
    }


def accept(points) -> List[str]:
    sizes = sorted({p.transfer_size for p in points})
    at = {(p.transfer_size, p.path): p for p in points}
    small = [at[(sizes[0], path)].goodput
             for path in ("bounce", "p2p-dma", "hyperion")]
    large = [at[(sizes[-1], path)].goodput
             for path in ("bounce", "p2p-dma", "hyperion")]
    return violated(
        (small == sorted(set(small)) and small[2] > 1.5 * small[0],
         "small transfers: hyperion > p2p-dma > bounce, hyperion by >1.5x"),
        (max(large) / min(large) < 1.05,
         "large transfers converge on the PCIe/flash bandwidth"),
        (all(at[(size, "hyperion")].per_transfer
             <= 1.001 * min(at[(size, "bounce")].per_transfer,
                            at[(size, "p2p-dma")].per_transfer)
             for size in sizes),
         "Hyperion never loses at any transfer size"),
    )


def _make_ssd(sim):
    # A datacenter-class drive: 16 channels x 8 dies soak up the queue
    # depth, so the *movement* path (not the flash) sets the pace.
    from repro.hw.nvme.flash import FlashArray

    ssd = NvmeController(
        sim,
        "target-ssd",
        flash=FlashArray(sim, channels=16, dies_per_channel=8),
        link=PcieLink(sim, lanes=4),
        queue_depth=1024,
    )
    ssd.add_namespace(Namespace(1, 1 << 20))
    qp = ssd.create_queue_pair()
    ssd.start()
    return ssd, qp


def _run_pipelined(path: str, size: int, transfers: int,
                   control_section: Callable, data_link: PcieLink,
                   sim: Simulator, qp) -> DatapathPoint:
    """Issue all transfers concurrently; the control section serializes."""
    done = []

    def one(index):
        yield from control_section(size)
        yield from data_link.transfer(size)
        completion = yield qp.submit(
            NvmeCommand(
                NvmeOpcode.WRITE,
                lba=index * max(1, size // 4096),
                data=b"\x00" * size,
            )
        )
        assert completion.ok
        done.append(sim.now)

    for index in range(transfers):
        sim.spawn(one(index))
    sim.run()
    return DatapathPoint(path, size, transfers, max(done))


def _run_bounce(size: int, transfers: int) -> DatapathPoint:
    sim = Simulator()
    cpu = CpuModel(sim, costs=CpuCosts(jitter_fraction=0.0,
                                       preemption_probability=0.0))
    os_model = OsModel(sim, cpu)
    core = Resource(sim, capacity=1)  # one CPU core runs the datapath
    ssd, qp = _make_ssd(sim)
    host_link = PcieLink(sim, lanes=8)  # NIC -> host DRAM
    dram_to_ssd = PcieLink(sim, lanes=4)

    def control(size_bytes):
        yield from host_link.transfer(size_bytes)  # NIC DMA to DRAM
        yield core.request()
        try:
            when = os_model.receive_packet(sim.now, size_bytes)
            yield sim.timeout_at(os_model.write_storage(when, size_bytes))
        finally:
            core.release()

    return _run_pipelined("bounce", size, transfers, control, dram_to_ssd, sim, qp)


def _run_p2p(size: int, transfers: int) -> DatapathPoint:
    sim = Simulator()
    core = Resource(sim, capacity=1)
    ssd, qp = _make_ssd(sim)
    nic_to_ssd = PcieLink(sim, lanes=4)  # through the host root complex

    def control(size_bytes):
        yield core.request()
        try:
            yield sim.timeout(P2P_CONTROL_COST)
        finally:
            core.release()

    return _run_pipelined("p2p-dma", size, transfers, control, nic_to_ssd, sim, qp)


def _run_hyperion(size: int, transfers: int) -> DatapathPoint:
    sim = Simulator()
    ssd, qp = _make_ssd(sim)
    fabric_link = PcieLink(sim, lanes=4)  # FPGA -> SSD bifurcated x4

    def control(size_bytes):
        yield sim.timeout(HYPERION_CONTROL_COST)  # fabric descriptor engine

    return _run_pipelined("hyperion", size, transfers, control,
                          fabric_link, sim, qp)


def run_p2pdma(sizes=(4096, 65536, 1 << 20),
               transfers: int = 50) -> List[DatapathPoint]:
    points: List[DatapathPoint] = []
    for size in sizes:
        points.append(_run_bounce(size, transfers))
        points.append(_run_p2p(size, transfers))
        points.append(_run_hyperion(size, transfers))
    return points


def format_p2pdma(points: List[DatapathPoint]) -> str:
    table = Table(
        "EXT: NIC->SSD movement — host bounce vs P2P DMA vs Hyperion fabric",
        ["transfer", "path", "per transfer", "goodput"],
    )
    for p in points:
        table.add_row(
            f"{p.transfer_size >> 10} KiB",
            p.path,
            f"{p.per_transfer * 1e6:.1f} us",
            f"{p.goodput / 1e9:.2f} GB/s",
        )
    return table.render()
