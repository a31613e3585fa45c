"""The compiler driver and the executable hardware-pipeline model.

``compile_program`` runs the §2.2 flow: verify -> extract parallelism ->
fuse -> schedule -> estimate; codegen runs when the Verilog-like text
(:attr:`CompiledPipeline.verilog`) is read. The resulting
:class:`HardwarePipeline` executes programs with *fixed* latency and an
initiation-interval-limited accept rate — the zero-jitter property that the
predictability experiment (E6) measures against CPU execution.

One input costs one engine entry (see :class:`HardwarePipeline`: the
input port is a busy-until instant, and :meth:`HardwarePipeline.run` is
arithmetic on it); ``tests/hdl_reference.py`` keeps the port that queued
callers in the engine as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.ebpf.isa import Program
from repro.ebpf.maps import HashMap
from repro.ebpf.vm import BpfVm
from repro.hw.fpga.bitstream import Bitstream
from repro.ebpf.verifier import require_verified
from repro.hdl.resources import AreaEstimate, estimate
from repro.hdl.schedule import PipelineSchedule, schedule_pipeline
from repro.sim import Simulator


@dataclass
class CompiledPipeline:
    """Everything the compiler produces for one program."""

    program: Program
    schedule: PipelineSchedule
    area: AreaEstimate

    @property
    def verilog(self) -> str:
        """The Verilog-like module text, emitted from :attr:`schedule`."""
        from repro.hdl.codegen import generate_verilog

        return generate_verilog(self.schedule)

    def to_bitstream(self, name: Optional[str] = None) -> Bitstream:
        """Package as a loadable bitstream for a reconfigurable slot.

        Bitstream size scales with consumed area. The floor is the partial
        image of one slot (~1/5 of a U280's ~60 MiB configuration space);
        at ICAP bandwidth that lands loads in the paper's 10-100 ms band.
        """
        frames = max(1, self.area.resources.luts // 8)
        size_bytes = 12 * 1024 * 1024 + frames * 1024
        return Bitstream(
            name=name or self.program.name,
            resources=self.area.resources,
            size_bytes=size_bytes,
            clock_hz=self.area.fmax_hz,
            kernel=self,
        )


def compile_program(
    program: Program,
    fuse: bool = True,
    optimize: bool = False,
) -> CompiledPipeline:
    """Verify and compile an eBPF program into a hardware pipeline.

    ``optimize=True`` schedules from the facts the verification returns
    (:func:`repro.hdl.dataflow.build_blocks`): no unreachable instruction,
    no write a run does not need, known results as constants. The
    pipeline runs *program* either way: its :class:`BpfVm` folds from the
    same facts.
    """
    facts = require_verified(program)
    schedule = schedule_pipeline(program, fuse=fuse,
                                 facts=facts if optimize else None)
    return CompiledPipeline(
        program=program,
        schedule=schedule,
        area=estimate(schedule),
    )


class HardwarePipeline:
    """Executes a compiled program with hardware timing semantics.

    * Results are functionally identical to the VM's (the pipeline
      wraps a :class:`BpfVm` for semantics).
    * Latency is **fixed**: ``depth / f_max`` for every input, no jitter.
    * Throughput is bounded by the initiation interval: the input port
      takes one tuple per ``II`` cycles. The port is a *busy-until*
      instant, not a queue in the engine — an input starts at
      ``max(now, port free)``, frees the port ``II`` later and leaves
      the last stage ``latency - II`` after that — so one input is one
      engine entry, in call order.
    * An input runs its program when the port admits it: a map update is
      visible to the next input, and to the control plane, while the
      input is still in flight. Admission order is completion order.
    """

    def __init__(
        self,
        sim: Simulator,
        compiled: CompiledPipeline,
        maps: Optional[Dict[int, HashMap]] = None,
    ):
        self.sim = sim
        self._vm = BpfVm(compiled.program, maps=maps)
        area = compiled.area
        self.latency = area.fixed_latency
        #: The port is busy for II cycles per input, then the input
        #: drains through the remaining stages.
        self.accept_interval = area.initiation_interval * area.cycle_time
        self._drain = max(0.0, self.latency - self.accept_interval)
        self._port_free_at = 0.0  # when the input port takes its next tuple

    def run(self, context: bytes, when: float):
        r"""Offer one input to the port at the instant *when*: its result,
        run as the port admits it, and the instant it leaves the last stage.

        >>> from repro.ebpf import assemble
        >>> from repro.sim import Simulator
        >>> pipeline = HardwarePipeline(
        ...     Simulator(), compile_program(assemble("mov r0, 7\nexit")))
        >>> result, when = pipeline.run(b"", 0.0)
        >>> result.return_value, when == pipeline.latency
        (7, True)
        >>> _, later = pipeline.run(b"", 0.0)  # waits one II for the port
        >>> round((later - when) / pipeline.accept_interval)
        1
        """
        start = max(when, self._port_free_at)
        self._port_free_at = when = start + self.accept_interval
        when += self._drain
        return self._vm.run(context), when

    def execute(self, context: bytes = b""):
        """Process: one input through the pipeline; returns ExecutionResult."""
        result, when = self.run(context, self.sim.now)
        yield self.sim.timeout_at(when)
        return result
