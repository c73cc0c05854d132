"""Unit tests for the pipeline issue-schedulers."""

import numpy as np
import pytest

from repro.cpu.arm import ARM_ISA
from repro.cpu.isa import ExecutionUnit
from repro.cpu.pipeline import (
    InOrderPipeline,
    OutOfOrderPipeline,
    PipelineConfig,
)
from repro.cpu.program import program_from_mnemonics


def make_loop(*mnemonics, isa=ARM_ISA):
    return program_from_mnemonics(isa, list(mnemonics))


class TestConfigValidation:
    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            PipelineConfig(name="x", width=0, unit_counts={})

    def test_ooo_needs_window(self):
        with pytest.raises(ValueError):
            PipelineConfig(
                name="x", width=2, unit_counts={}, out_of_order=True,
                window=0,
            )


class TestInOrderScheduling:
    def test_independent_adds_dual_issue(self):
        """Dual-issue in-order sustains 2 IPC on independent ADDs."""
        # program_from_mnemonics rotates registers: add r0,r1,r2 then
        # add r1,r2,r3 -- dependent!  Build independent ones explicitly.
        from repro.cpu.isa import Instruction

        spec = ARM_ISA.spec("add")
        body = tuple(
            Instruction(spec=spec, dest=i, sources=(i + 8, i + 8))
            for i in range(8)
        )
        from repro.cpu.program import LoopProgram

        program = LoopProgram(isa=ARM_ISA, body=body)
        schedule = InOrderPipeline(width=2).steady_schedule(program)
        assert schedule.ipc == pytest.approx(2.0)

    def test_dependent_chain_serializes(self):
        """A loop-carried circular add chain issues one per cycle."""
        from repro.cpu.isa import Instruction
        from repro.cpu.program import LoopProgram

        spec = ARM_ISA.spec("add")
        body = tuple(
            Instruction(spec=spec, dest=(i + 1) % 6, sources=(i, i))
            for i in range(6)
        )
        program = LoopProgram(isa=ARM_ISA, body=body)
        schedule = InOrderPipeline(width=2).steady_schedule(program)
        assert schedule.ipc <= 1.01

    def test_nonpipelined_div_gates_loop_period(self):
        """8 adds + sdiv: the DIV unit's occupancy sets the period."""
        program = make_loop(*(["add"] * 8 + ["sdiv"]))
        schedule = InOrderPipeline(width=2).steady_schedule(program)
        sdiv = ARM_ISA.spec("sdiv")
        assert schedule.cycles >= sdiv.recip_throughput

    def test_issue_offsets_in_program_order(self):
        program = make_loop("add", "mul", "fadd", "ldr")
        schedule = InOrderPipeline(width=2).steady_schedule(program)
        offsets = schedule.issue_offsets
        assert all(b >= a for a, b in zip(offsets, offsets[1:]))


class TestOutOfOrderScheduling:
    def test_ooo_hides_long_latency(self):
        """OoO overlaps independent work with a DIV shadow; in-order
        can't pass the stalled head."""
        from repro.cpu.isa import Instruction
        from repro.cpu.program import LoopProgram

        sdiv = ARM_ISA.spec("sdiv")
        add = ARM_ISA.spec("add")
        body = [Instruction(spec=sdiv, dest=15, sources=(14, 14))]
        # dependent chain on the div result -- stalls in-order issue
        body.append(Instruction(spec=add, dest=13, sources=(15, 15)))
        # independent adds that OoO can hoist
        body.extend(
            Instruction(spec=add, dest=i, sources=(i + 6, i + 6))
            for i in range(4)
        )
        program = LoopProgram(isa=ARM_ISA, body=tuple(body))
        in_order = InOrderPipeline(width=2).steady_schedule(program)
        ooo = OutOfOrderPipeline(width=2).steady_schedule(program)
        assert ooo.cycles <= in_order.cycles

    def test_window_limits_reordering(self):
        """A tiny window degenerates toward in-order behaviour."""
        program = make_loop(*(["sdiv"] + ["add"] * 10))
        narrow = OutOfOrderPipeline(width=2, window=1).steady_schedule(
            program
        )
        wide = OutOfOrderPipeline(width=2, window=40).steady_schedule(
            program
        )
        assert wide.cycles <= narrow.cycles

    def test_unit_contention_blocks(self):
        """Two back-to-back sdivs serialize on the single DIV unit."""
        program = make_loop("sdiv", "sdiv")
        schedule = OutOfOrderPipeline(width=3).steady_schedule(program)
        sdiv = ARM_ISA.spec("sdiv")
        assert schedule.cycles >= 2 * sdiv.recip_throughput


class TestSteadyState:
    def test_steady_schedule_is_periodic(self):
        """Period of the last iterations stabilizes."""
        program = make_loop(*(["add", "mul", "fadd", "ldr"] * 4))
        pipe = InOrderPipeline(width=2)
        issue = pipe.execute(program, iterations=12)
        starts = issue[:, 0]
        deltas = np.diff(starts)
        assert deltas[-1] == deltas[-2] == deltas[-3]

    def test_requires_two_iterations(self):
        program = make_loop("add")
        with pytest.raises(ValueError):
            InOrderPipeline().execute(program, iterations=1)

    def test_ipc_definition(self):
        program = make_loop(*(["add"] * 10))
        schedule = InOrderPipeline(width=2).steady_schedule(program)
        assert schedule.ipc == pytest.approx(
            len(program) / schedule.cycles
        )

    def test_loop_frequency_scales_with_clock(self):
        program = make_loop(*(["add"] * 8 + ["sdiv"]))
        schedule = InOrderPipeline(width=2).steady_schedule(program)
        f1 = schedule.loop_frequency_hz(1.2e9)
        f2 = schedule.loop_frequency_hz(0.6e9)
        assert f1 == pytest.approx(2.0 * f2)

    def test_paper_hilo_loop_is_150mhz_at_1200mhz(self):
        """Section 5.3: the 8-add/1-div loop spans 8 ns at 1.2 GHz."""
        program = make_loop(*(["add"] * 8 + ["sdiv"]))
        schedule = OutOfOrderPipeline(width=3).steady_schedule(program)
        assert schedule.loop_frequency_hz(1.2e9) == pytest.approx(150e6)

    def test_odd_super_period_is_detected(self):
        """Regression: a 5-iteration super-period must be extracted.

        The search used to try only super-periods {1, 2, 3, 4, 6}, so a
        pattern of iteration lengths repeating every 5 iterations
        collapsed to a wrong 1-iteration period.  Synthesize such a
        schedule by stubbing ``execute``.
        """
        pattern = [3, 1, 1, 1, 2]  # iteration lengths, super-period 5
        program = make_loop("add")

        class FivePeriodic(InOrderPipeline):
            def execute(self, prog, iterations, cache=None,
                        memory_rng=None):
                starts = np.cumsum(
                    [0] + [pattern[i % 5] for i in range(iterations - 1)]
                )
                return starts.reshape(-1, 1).astype(np.int64)

        schedule = FivePeriodic().steady_schedule(program, iterations=16)
        # One electrical period covers the 5-iteration pattern.
        assert schedule.cycles == sum(pattern)
        assert len(schedule.program.body) == 5 * len(program.body)

    def test_first_instruction_running_ahead_keeps_the_period(self):
        """Regression: an independent first instruction that runs ahead
        of a 24-cycle ``divss`` repeats its issue cycle (0, 0, 1, 1, 1,
        2, ...), so its start deltas gave no positive period and
        ``steady_schedule`` raised ``degenerate schedule``.  Each row's
        latest issue advances 24 cycles per iteration."""
        from repro.cpu.program import random_program
        from repro.platforms import registry

        amd = registry.make_cluster("amd")
        program = random_program(
            amd.spec.isa, 3, np.random.default_rng(4735)
        )
        assert [i.spec.mnemonic for i in program.body] == [
            "add_rr", "mulss", "divss",
        ]
        issue = amd.pipeline.execute(program, 16)
        assert np.diff(issue[-3:, 0]).min() <= 0
        assert amd.pipeline.steady_schedule(program).cycles == 24
        run = amd.run(program)
        assert run.loop_frequency_hz == amd.clock_hz / 24
