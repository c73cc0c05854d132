"""Vectorized kernels must match their preserved reference paths.

Each optimized hot path keeps its pre-refactor implementation as a
``*_reference`` method; this suite pins them together:

* issue schedules are **cycle-exact** (integer equality),
* current traces agree to ``rtol=1e-12`` (pure reordering of float
  sums),
* transient node voltages agree to ``rtol=1e-12`` with a small
  absolute allowance (2e-11 V) for ULP accumulation across ~1300
  trapezoidal steps, and branch currents to 1e-10 on ampere-scale
  signals.
"""

import numpy as np
import pytest

from repro.cpu.arm import ARM_ISA
from repro.cpu.cache import CacheModel
from repro.cpu.current import CurrentModel
from repro.cpu.isa import Instruction, InstructionSet
from repro.cpu.pipeline import InOrderPipeline, OutOfOrderPipeline
from repro.cpu.program import (
    LoopProgram,
    program_from_mnemonics,
    random_program,
)
from repro.pdn.elements import CurrentSource
from repro.pdn.models import (
    AMD_ATHLON_PDN,
    CORTEX_A53_PDN,
    CORTEX_A72_PDN,
    PDNModel,
)
from repro.pdn.transient import TransientSolver

WIDE_MEM_ISA = InstructionSet(
    name="armv8-wide-mem",
    specs=ARM_ISA.specs,
    registers=dict(ARM_ISA.registers),
    memory_slots=256,
)


def alu_program():
    return program_from_mnemonics(ARM_ISA, ["add"] * 8)


def div_shadow_program():
    return program_from_mnemonics(ARM_ISA, ["add"] * 8 + ["sdiv"])


def memory_program():
    rng = np.random.default_rng(3)
    return random_program(
        WIDE_MEM_ISA,
        24,
        rng,
        pool=(
            WIDE_MEM_ISA.spec("ldr"),
            WIDE_MEM_ISA.spec("str"),
            WIDE_MEM_ISA.spec("add"),
            WIDE_MEM_ISA.spec("fmul"),
        ),
    )


def explicit_program(isa, body, name="explicit"):
    """A loop from ``(mnemonic, dest, sources, address)`` tuples."""
    return LoopProgram(
        isa=isa,
        body=tuple(
            Instruction(
                spec=isa.spec(m), dest=dest, sources=sources, address=address
            )
            for m, dest, sources, address in body
        ),
        name=name,
    )


def miss_shadow_program():
    """One missing load, then a divide run long enough that the miss
    completes before anything can observe its jittered latency: the
    machine state repeats even with a cache model, so an early exit
    there would skip miss draws."""
    return explicit_program(
        WIDE_MEM_ISA,
        [("ldr", 0, (), 100)] + [("sdiv", 1, (2, 3), None)] * 20,
        name="miss-shadow",
    )


#: Small loops whose early exit goes wrong if one part of the machine
#: state is left out of the repeat check (found by dropping each part
#: in turn and searching random dense-register programs).
STATE_PART_CASES = {
    "registers": (
        lambda: InOrderPipeline(width=1),
        [("mul", 0, (0, 0), None), ("vsqrt", 0, (0,), None)],
    ),
    "memory": (
        lambda: InOrderPipeline(width=2),
        [("ldr", 0, (), 0), ("vmul", 0, (0, 0), None)],
    ),
    "unit-free-times": (
        lambda: InOrderPipeline(width=2),
        [
            ("sdiv", 1, (1, 1), None),
            ("mov", 1, (0,), None),
            ("fsqrt", 1, (0,), None),
            ("add", 1, (0, 1), None),
        ],
    ),
    "issue-slot-counts": (
        lambda: OutOfOrderPipeline(width=2, window=2, rob_size=3),
        [
            ("mov", 0, (1,), None),
            ("add", 0, (0, 0), None),
            ("str", None, (0,), 0),
        ],
    ),
    "rob-completions": (
        lambda: OutOfOrderPipeline(width=2, window=1, rob_size=3),
        [("str", None, (1,), 0), ("fmul", 1, (0, 0), None)],
    ),
    "oldest-window-issue-floor": (
        lambda: OutOfOrderPipeline(width=3, window=4, rob_size=4),
        [
            ("vfma", 0, (0, 0, 0), None),
            ("add", 0, (0, 0), None),
            ("mul", 0, (0, 0), None),
            ("sdiv", 0, (0, 0), None),
            ("sdiv", 0, (0, 0), None),
        ],
    ),
    "rob-lookback-filled": (
        lambda: OutOfOrderPipeline(width=3, window=1, rob_size=6),
        [("vmul", 0, (1, 1), None), ("orr", 1, (0, 1), None)],
    ),
}

PROGRAMS = {
    "alu": alu_program,
    "div-shadow": div_shadow_program,
    "memory": memory_program,
}

PIPELINES = {
    "in-order": lambda: InOrderPipeline(),
    "out-of-order": lambda: OutOfOrderPipeline(),
}


@pytest.fixture(params=list(PROGRAMS), ids=list(PROGRAMS))
def program(request):
    return PROGRAMS[request.param]()


@pytest.fixture(params=list(PIPELINES), ids=list(PIPELINES))
def pipeline(request):
    return PIPELINES[request.param]()


class TestScheduleEquivalence:
    def test_issue_schedules_are_cycle_exact(self, pipeline, program):
        fast = pipeline.execute(program, iterations=16)
        ref = pipeline.execute_reference(program, iterations=16)
        assert np.array_equal(fast, ref)

    def test_random_programs_are_cycle_exact(self, pipeline):
        rng = np.random.default_rng(17)
        for i in range(5):
            prog = random_program(ARM_ISA, 50, rng, name=f"rand{i}")
            fast = pipeline.execute(prog, iterations=16)
            ref = pipeline.execute_reference(prog, iterations=16)
            assert np.array_equal(fast, ref)

    @pytest.mark.parametrize(
        "case", sorted(STATE_PART_CASES), ids=sorted(STATE_PART_CASES)
    )
    def test_early_exit_checks_every_state_part(self, case):
        make_pipeline, body = STATE_PART_CASES[case]
        pipeline = make_pipeline()
        prog = explicit_program(ARM_ISA, body, name=case)
        assert np.array_equal(
            pipeline.execute(prog, iterations=16),
            pipeline.execute_reference(prog, iterations=16),
        )

    def test_cache_path_preserves_rng_draw_order(self, pipeline):
        """The nondeterministic memory path must consume the RNG in the
        same order, so the same seed gives the same schedule and leaves
        the generator in the same state."""
        cache = CacheModel(l1_slots=64, miss_penalty=60, penalty_jitter=16)
        for prog in (memory_program(), miss_shadow_program()):
            fast_rng = np.random.default_rng(5)
            ref_rng = np.random.default_rng(5)
            fast = pipeline.execute(
                prog, 16, cache=cache, memory_rng=fast_rng
            )
            ref = pipeline.execute_reference(
                prog, 16, cache=cache, memory_rng=ref_rng
            )
            assert np.array_equal(fast, ref)
            assert (
                fast_rng.bit_generator.state == ref_rng.bit_generator.state
            )

    def test_windowed_cache_path_preserves_rng_draw_order(self, pipeline):
        cache = CacheModel(l1_slots=64, miss_penalty=60, penalty_jitter=16)
        for prog in (memory_program(), miss_shadow_program()):
            window_rng = np.random.default_rng(5)
            ref_rng = np.random.default_rng(5)
            windowed = pipeline.windowed_schedule(
                prog, 16, cache=cache, memory_rng=window_rng
            )
            ref = pipeline.execute_reference(
                prog, 16, cache=cache, memory_rng=ref_rng
            )
            assert np.array_equal(windowed.issue, ref)
            assert (
                window_rng.bit_generator.state
                == ref_rng.bit_generator.state
            )


class TestCurrentEquivalence:
    def test_trace_matches_reference(self, pipeline, program):
        sched = pipeline.steady_schedule(program, iterations=16)
        model = CurrentModel()
        np.testing.assert_allclose(
            model.trace(sched),
            model.trace_reference(sched),
            rtol=1e-12,
            atol=0,
        )

    def test_short_trace_smoothing(self):
        """Traces shorter than the smoothing window still wrap correctly."""
        sched = InOrderPipeline().steady_schedule(
            program_from_mnemonics(ARM_ISA, ["add", "add"])
        )
        model = CurrentModel(smoothing_cycles=8)
        np.testing.assert_allclose(
            model.trace(sched),
            model.trace_reference(sched),
            rtol=1e-12,
            atol=0,
        )

    def test_window_trace_matches_reference(self, pipeline):
        prog = memory_program()
        cache = CacheModel(l1_slots=64, miss_penalty=60, penalty_jitter=16)
        windowed = pipeline.windowed_schedule(
            prog, 16, cache=cache, memory_rng=np.random.default_rng(9)
        )
        model = CurrentModel()
        np.testing.assert_allclose(
            model.window_trace(windowed),
            model.window_trace_reference(windowed),
            rtol=1e-12,
            atol=0,
        )


PDN_CASES = {
    "a72": (CORTEX_A72_PDN, 2),
    "a53": (CORTEX_A53_PDN, 4),
    "amd": (AMD_ATHLON_PDN, 1),
}


@pytest.fixture(params=list(PDN_CASES), ids=list(PDN_CASES))
def pdn_circuit(request):
    params, cores = PDN_CASES[request.param]
    circuit = PDNModel(params).build_circuit(powered_cores=cores)
    period = 1.0 / 100e6
    circuit.add(
        CurrentSource(
            "iload",
            "die",
            "0",
            current=lambda t: 1.5 if (t % period) < period / 2 else 0.3,
        )
    )
    return circuit


class TestTransientEquivalence:
    def test_run_matches_reference(self, pdn_circuit):
        solver = TransientSolver(pdn_circuit, dt=0.25e-9)
        fast = solver.run(320e-9)
        ref = solver.run_reference(320e-9)
        np.testing.assert_allclose(fast.times, ref.times, rtol=0, atol=0)
        for node in fast.node_voltages:
            np.testing.assert_allclose(
                fast.voltage(node),
                ref.voltage(node),
                rtol=1e-12,
                atol=2e-11,  # ULP accumulation over ~1300 steps
                err_msg=f"node {node}",
            )
        for branch in fast.branch_currents:
            np.testing.assert_allclose(
                fast.current(branch),
                ref.current(branch),
                rtol=1e-10,
                atol=1e-10,
                err_msg=f"branch {branch}",
            )
