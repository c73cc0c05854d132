"""Unit tests for the cache-miss model and nondeterministic execution."""

import numpy as np
import pytest

from repro.chain import (
    ChainItem,
    ChainRequest,
    CurrentStage,
    ExecuteStage,
    PDNStage,
    SignalPath,
)
from repro.cpu.arm import ARM_ISA
from repro.cpu.cache import CacheModel
from repro.cpu.current import CurrentModel
from repro.cpu.isa import InstructionSet
from repro.cpu.pipeline import InOrderPipeline
from repro.cpu.program import program_from_mnemonics, random_program

WIDE_MEM_ISA = InstructionSet(
    name="armv8-wide-mem",
    specs=ARM_ISA.specs,
    registers=dict(ARM_ISA.registers),
    memory_slots=256,  # 4x the L1-resident window: 75 % misses
)


def missy_program(seed=0):
    rng = np.random.default_rng(seed)
    return random_program(
        WIDE_MEM_ISA,
        30,
        rng,
        pool=(WIDE_MEM_ISA.spec("ldr"), WIDE_MEM_ISA.spec("add")),
    )


class TestCacheModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CacheModel(l1_slots=0)
        with pytest.raises(ValueError):
            CacheModel(miss_penalty=0)
        with pytest.raises(ValueError):
            CacheModel(miss_penalty=10, penalty_jitter=20)

    def test_hits_are_free(self):
        cache = CacheModel(l1_slots=64)
        rng = np.random.default_rng(0)
        assert cache.extra_latency(0, rng) == 0
        assert cache.extra_latency(63, rng) == 0

    def test_misses_cost_penalty_with_jitter(self):
        cache = CacheModel(l1_slots=64, miss_penalty=60, penalty_jitter=16)
        rng = np.random.default_rng(1)
        extras = [cache.extra_latency(100, rng) for _ in range(200)]
        assert min(extras) >= 60 - 16
        assert max(extras) <= 60 + 16
        assert len(set(extras)) > 1  # the nondeterminism

    def test_zero_jitter_is_deterministic(self):
        cache = CacheModel(l1_slots=64, miss_penalty=40, penalty_jitter=0)
        rng = np.random.default_rng(2)
        assert all(
            cache.extra_latency(90, rng) == 40 for _ in range(10)
        )


class TestNondeterministicPipeline:
    def test_cache_requires_rng(self):
        program = program_from_mnemonics(ARM_ISA, ["ldr", "add"])
        with pytest.raises(ValueError, match="memory_rng"):
            InOrderPipeline().execute(program, cache=CacheModel())

    def test_misses_slow_execution(self):
        program = missy_program()
        pipe = InOrderPipeline(width=2)
        clean = pipe.windowed_schedule(program, iterations=8)
        missy = pipe.windowed_schedule(
            program,
            iterations=8,
            cache=CacheModel(l1_slots=64),
            memory_rng=np.random.default_rng(3),
        )
        assert missy.cycles > clean.cycles

    def test_misses_introduce_period_jitter(self):
        """Section 3.3's point: misses make the loop period jitter."""
        program = missy_program()
        pipe = InOrderPipeline(width=2)
        clean = pipe.windowed_schedule(program, iterations=10)
        missy = pipe.windowed_schedule(
            program,
            iterations=10,
            cache=CacheModel(l1_slots=64, penalty_jitter=16),
            memory_rng=np.random.default_rng(4),
        )
        assert clean.iteration_jitter_cycles() == pytest.approx(0.0)
        assert missy.iteration_jitter_cycles() > 1.0

    def test_hits_only_program_unaffected(self):
        """Programs confined to the L1 window run identically."""
        program = program_from_mnemonics(
            ARM_ISA, ["ldr", "add", "str", "mul"]
        )
        pipe = InOrderPipeline(width=2)
        clean = pipe.windowed_schedule(program, iterations=8)
        cached = pipe.windowed_schedule(
            program,
            iterations=8,
            cache=CacheModel(l1_slots=64),
            memory_rng=np.random.default_rng(5),
        )
        assert np.array_equal(clean.issue, cached.issue)

    def test_window_trace_shape_and_energy(self):
        program = missy_program()
        pipe = InOrderPipeline(width=2)
        window = pipe.windowed_schedule(
            program,
            iterations=6,
            cache=CacheModel(l1_slots=64),
            memory_rng=np.random.default_rng(6),
        )
        model = CurrentModel(
            base_current_a=0.2, amps_per_energy=1.0, frontend_energy=0.1,
            smoothing_cycles=1,
        )
        trace = model.window_trace(window)
        assert trace.size == window.cycles
        charge = float(np.sum(trace - 0.2))
        expected = 6 * sum(i.spec.energy + 0.1 for i in program.body)
        assert charge == pytest.approx(expected, rel=1e-6)


def run_nondeterministic(cluster, program, cache_model, memory_rng):
    """One cache-nondeterministic chain item, response only."""
    request = ChainRequest(
        cluster=cluster,
        items=[
            ChainItem(
                program=program,
                cache_model=cache_model,
                memory_rng=memory_rng,
            )
        ],
        want_amplitude=False,
        want_trace=False,
    )
    path = SignalPath([ExecuteStage(), CurrentStage(), PDNStage()])
    return path.run(request).items[0]


class TestClusterNondeterministicRun:
    def test_runs_differ_between_calls(self, a72):
        program = missy_program()
        rng = np.random.default_rng(7)
        cache = CacheModel(l1_slots=64)
        r1 = run_nondeterministic(a72, program, cache, rng)
        r2 = run_nondeterministic(a72, program, cache, rng)
        assert r1.max_droop != pytest.approx(r2.max_droop, rel=1e-9)
        assert r1.windows[0].iteration_jitter_cycles() > 0.0

    def test_metrics_available(self, a72):
        program = missy_program()
        run = run_nondeterministic(
            a72, program, CacheModel(l1_slots=64), np.random.default_rng(8)
        )
        assert run.ipc > 0.0
        assert run.loop_frequency_hz > 0.0
        assert run.peak_to_peak > 0.0
