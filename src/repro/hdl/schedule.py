"""Pipeline scheduling: ASAP placement of operations into hardware stages.

Given the per-block dataflow graph, operations with no mutual dependency
issue in the same stage (spatial parallelism); dependent operations go to
later stages. The schedule determines the pipeline's depth (latency in
cycles) and, together with memory ports, its initiation interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.ebpf.isa import Program
from repro.ebpf.verifier import Facts
from repro.hdl.dataflow import build_blocks, build_dfg, touches_memory
from repro.hdl.fusion import FusedOp, fuse_instructions

#: Concurrent memory operations (loads, stores, helper calls) one
#: pipeline stage can issue per cycle.
MEMORY_PORTS = 2


@dataclass
class PipelineSchedule:
    """The scheduled pipeline for one program."""

    program_name: str
    #: stages[i] = list of FusedOps issuing in cycle i
    stages: List[List[FusedOp]] = field(default_factory=list)
    #: cycles between accepting consecutive inputs
    initiation_interval: int = 1

    @property
    def depth(self) -> int:
        return len(self.stages)

    @property
    def width(self) -> int:
        return max((len(stage) for stage in self.stages), default=0)

    @property
    def issued(self) -> int:
        """Instructions the pipeline issues, a fused pair counting two."""
        return sum(len(op.instructions) for stage in self.stages for op in stage)


def _memory_ops_in(ops: Sequence[FusedOp]) -> int:
    return sum(touches_memory(insn) for op in ops for insn in op.instructions)


def schedule_pipeline(program: Program, fuse: bool = True,
                      facts: Optional[Facts] = None) -> PipelineSchedule:
    """Schedule the blocks of :func:`~repro.hdl.dataflow.build_blocks` as
    one linearized pipeline: the whole program, or, given the verifier's
    *facts*, only what a run needs.

    Control flow becomes predication (every block is scheduled; hardware
    evaluates all paths and selects results — the standard HLS flattening
    for short programs), so the pipeline depth is the sum over blocks of
    each block's critical path.
    """
    stages: List[List[FusedOp]] = []
    for block in build_blocks(program, facts):
        instructions = list(block.values())
        dfg = build_dfg(instructions)
        ops = fuse_instructions(instructions, enabled=fuse)
        # Map instruction index -> op index.
        insn_to_op: Dict[int, int] = {}
        cursor = 0
        for op_index, op in enumerate(ops):
            for __ in op.instructions:
                insn_to_op[cursor] = op_index
                cursor += 1
        # ASAP levels over ops.
        op_level: Dict[int, int] = {}
        for insn_index in range(len(instructions)):
            op_index = insn_to_op[insn_index]
            level = 0
            for dep in dfg.edges.get(insn_index, ()):
                dep_op = insn_to_op[dep]
                if dep_op == op_index:
                    continue  # fused together: same stage
                level = max(level, op_level.get(dep_op, 0) + 1)
            op_level[op_index] = max(op_level.get(op_index, 0), level)
        block_depth = max(op_level.values(), default=-1) + 1
        block_stages: List[List[FusedOp]] = [[] for _ in range(block_depth)]
        for op_index, op in enumerate(ops):
            block_stages[op_level[op_index]].append(op)
        stages.extend(block_stages)

    schedule = PipelineSchedule(program_name=program.name, stages=stages)
    # Memory contention bounds the initiation interval: if any stage needs
    # more concurrent memory operations than ports, inputs must be spaced.
    worst = max((_memory_ops_in(stage) for stage in stages), default=0)
    schedule.initiation_interval = max(1, -(-worst // MEMORY_PORTS))
    return schedule
