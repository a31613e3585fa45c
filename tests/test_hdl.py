"""Tests for the eBPF-to-HDL compilation pipeline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.fail2ban import BAN_MAP_FD, PacketRecord, build_fail2ban_program
from repro.common.errors import VerificationError
from repro.ebpf import HashMap, assemble
from repro.hdl import (
    HardwarePipeline,
    build_cfg,
    build_dfg,
    compile_program,
    fuse_instructions,
    generate_verilog,
    schedule_pipeline,
)
from repro.hdl.resources import estimate
from repro.sim import Simulator
from tests.hdl_reference import ReferencePipeline

STRAIGHT_LINE = """
    mov r0, 1
    mov r3, 2
    add r0, r3
    exit
"""

BRANCHY = """
    mov r0, 0
    ldxw r3, [r1+0]
    jeq r3, 0, done
    add r0, 1
done:
    exit
"""

INDEPENDENT = """
    mov r3, 1
    mov r4, 2
    mov r5, 3
    mov r0, 0
    add r0, r3
    exit
"""


class TestCfg:
    def test_straight_line_one_block(self):
        blocks = build_cfg(assemble(STRAIGHT_LINE))
        assert len(blocks) == 1
        assert blocks[0].successors == []

    def test_branch_splits_blocks(self):
        blocks = build_cfg(assemble(BRANCHY))
        # entry (with jeq), add-block, exit-block
        assert len(blocks) == 3
        entry = blocks[0]
        assert len(entry.successors) == 2

    def test_exit_has_no_successors(self):
        blocks = build_cfg(assemble(BRANCHY))
        assert blocks[-1].successors == []


class TestDfg:
    def test_raw_dependency(self):
        blocks = build_cfg(assemble(STRAIGHT_LINE))
        dfg = build_dfg(blocks[0])
        # add r0, r3 depends on both movs
        assert 0 in dfg.edges[2]
        assert 1 in dfg.edges[2]

    def test_independent_instructions_detected(self):
        blocks = build_cfg(assemble(INDEPENDENT))
        dfg = build_dfg(blocks[0])
        # mov r3 / mov r4 / mov r5: no dependency either way
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert i not in dfg.edges.get(j, ()) and j not in dfg.edges.get(i, ())

    def test_memory_ops_stay_ordered(self):
        source = """
            mov r2, 1
            stxdw [r10-8], r2
            ldxdw r3, [r10-16]
            mov r0, 0
            exit
        """
        blocks = build_cfg(assemble(source))
        dfg = build_dfg(blocks[0])
        # the load (index 2) must depend on the store (index 1)
        assert 1 in dfg.edges[2]


class TestFusion:
    def test_dependent_chain_fuses(self):
        program = assemble("mov r3, 1\nadd r3, 5\nmov r0, r3\nexit")
        ops = fuse_instructions(program.instructions)
        assert any(op.is_fused for op in ops)
        assert len(ops) < len(program.instructions)

    def test_fusion_disabled(self):
        program = assemble("mov r3, 1\nadd r3, 5\nmov r0, r3\nexit")
        ops = fuse_instructions(program.instructions, enabled=False)
        assert len(ops) == len(program.instructions)
        assert not any(op.is_fused for op in ops)

    def test_expensive_ops_not_fused(self):
        program = assemble("mov r0, 100\ndiv r0, 7\nexit")
        ops = fuse_instructions(program.instructions)
        assert not any(op.is_fused and len(op.instructions) == 2 and
                       op.instructions[1].opcode.value == "div" for op in ops)


class TestSchedule:
    def test_independent_ops_share_stage(self):
        schedule = schedule_pipeline(assemble(INDEPENDENT), fuse=False)
        assert schedule.width >= 3  # three independent movs in one stage

    def test_dependent_chain_deepens(self):
        chained = schedule_pipeline(
            assemble("mov r0, 1\nmul r0, 3\nmul r0, 5\nmul r0, 7\nexit"),
            fuse=False,
        )
        flat = schedule_pipeline(assemble(INDEPENDENT), fuse=False)
        assert chained.depth > flat.depth

    def test_fusion_reduces_depth(self):
        source = "mov r0, 1\nadd r0, 2\nadd r0, 3\nadd r0, 4\nexit"
        fused = schedule_pipeline(assemble(source), fuse=True)
        unfused = schedule_pipeline(assemble(source), fuse=False)
        assert fused.depth < unfused.depth

    def test_parallelism_metric(self):
        schedule = schedule_pipeline(assemble(INDEPENDENT), fuse=False)
        assert schedule.width > 1  # independent ops share a stage


class TestResources:
    def test_bigger_program_costs_more(self):
        small = estimate(schedule_pipeline(assemble("mov r0, 1\nexit")))
        source = "\n".join(["mov r0, 0"] + [f"add r0, {i}" for i in range(20)] + ["exit"])
        big = estimate(schedule_pipeline(assemble(source), fuse=False))
        assert big.resources.luts > small.resources.luts

    def test_multiply_uses_dsps(self):
        est = estimate(schedule_pipeline(assemble("mov r0, 2\nmul r0, 3\nexit")))
        assert est.resources.dsps > 0

    def test_fusion_lowers_fmax_but_saves_area(self):
        source = "mov r0, 1\nadd r0, 2\nadd r0, 3\nadd r0, 4\nexit"
        fused = estimate(schedule_pipeline(assemble(source), fuse=True))
        unfused = estimate(schedule_pipeline(assemble(source), fuse=False))
        assert fused.fmax_hz < unfused.fmax_hz
        assert fused.resources.ffs < unfused.resources.ffs

    def test_throughput_and_latency(self):
        est = estimate(schedule_pipeline(assemble("mov r0, 1\nexit")))
        assert est.fixed_latency == pytest.approx(est.pipeline_depth / est.fmax_hz)


class TestCodegen:
    def test_module_structure(self):
        compiled = compile_program(assemble(BRANCHY, name="classifier"))
        text = compiled.verilog
        assert "module ebpf_classifier" in text
        assert "s_axis_tvalid" in text
        assert "endmodule" in text

    def test_stage_comments_present(self):
        compiled = compile_program(assemble(STRAIGHT_LINE, name="p"))
        assert "---- stage 0" in compiled.verilog

    def test_fused_ops_annotated(self):
        compiled = compile_program(
            assemble("mov r0, 1\nadd r0, 2\nadd r0, 3\nexit", name="f")
        )
        assert "// fused:" in compiled.verilog


class TestCompileDriver:
    def test_rejected_program_raises(self):
        with pytest.raises(VerificationError):
            compile_program(assemble("mov r0, r5\nexit"))

    def test_bitstream_packaging(self):
        compiled = compile_program(assemble(STRAIGHT_LINE, name="accel"))
        bitstream = compiled.to_bitstream()
        assert bitstream.name == "accel"
        assert bitstream.kernel is compiled
        assert bitstream.size_bytes > 4 * 1024 * 1024


class TestHardwarePipeline:
    def test_functional_equivalence_with_vm(self):
        source = """
            ldxw r3, [r1+0]
            mov r0, 0
            jeq r3, 7, lucky
            mov r0, 1
            exit
        lucky:
            mov r0, 77
            exit
        """
        sim = Simulator()
        pipeline = HardwarePipeline(sim, compile_program(assemble(source)))
        for value, expected in ((7, 77), (8, 1)):
            ctx = value.to_bytes(4, "little")
            assert sim.run_process(pipeline.execute(ctx)).return_value == expected

    def test_fixed_latency_zero_jitter(self):
        sim = Simulator()
        pipeline = HardwarePipeline(sim, compile_program(assemble(STRAIGHT_LINE)))
        latencies = []

        def one():
            start = sim.now
            yield from pipeline.execute()
            latencies.append(sim.now - start)

        def sequence():
            for _ in range(5):
                yield sim.process(one())

        sim.run_process(sequence())
        assert len(set(f"{lat:.12e}" for lat in latencies)) == 1

    def test_throughput_limited_by_ii(self):
        sim = Simulator()
        pipeline = HardwarePipeline(sim, compile_program(assemble(STRAIGHT_LINE)))
        finished = []

        def one():
            yield from pipeline.execute()
            finished.append(sim.now)

        for _ in range(10):
            sim.process(one())
        sim.run()
        # Completions are spaced by the accept interval, overlapping in flight.
        gaps = [b - a for a, b in zip(finished, finished[1:])]
        for gap in gaps:
            assert gap == pytest.approx(pipeline.accept_interval)


FAIL2BAN = compile_program(build_fail2ban_program(threshold=1))


def drive_pipeline(pipeline_class, arrivals):
    """Completion order, instants and results of concurrent callers that
    each arrive ``offset`` accept intervals in and push one packet."""
    sim = Simulator()
    ban_map = HashMap(key_size=8, value_size=8, max_entries=64)
    pipeline = pipeline_class(sim, FAIL2BAN, maps={BAN_MAP_FD: ban_map})
    completions = []

    def caller(index, offset, packet):
        yield sim.timeout(offset * pipeline.accept_interval)
        result = yield from pipeline.execute(packet.context())
        completions.append((index, sim.now, result))

    for index, (offset, source, failed) in enumerate(arrivals):
        sim.process(caller(index, offset, PacketRecord(source, failed, 64)))
    sim.run()
    return completions, pipeline.executions, sorted(ban_map.items())


class TestBusyUntilPortAgainstTheResourcePort:
    """The arithmetic port against the queueing one it replaced
    (``tests/hdl_reference.py``): callers contend for a few initiation
    intervals, the verdicts depend on who ran first."""

    @given(st.lists(
        st.tuples(
            # Whole and half intervals collide often; the rest are ragged.
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                      st.floats(min_value=0.0, max_value=6.0)),
            st.integers(min_value=1, max_value=2),  # source: few, so bans
            st.booleans(),                          # auth failed
        ),
        min_size=2, max_size=6,
    ))
    def test_same_order_same_floats_same_results(self, arrivals):
        assert (drive_pipeline(HardwarePipeline, arrivals)
                == drive_pipeline(ReferencePipeline, arrivals))
