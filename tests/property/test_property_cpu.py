"""Property-based tests on the CPU pipeline and current models."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cpu import pipeline as pipeline_module
from repro.cpu.arm import ARM_ISA
from repro.cpu.current import CurrentModel
from repro.cpu.pipeline import InOrderPipeline, OutOfOrderPipeline
from repro.cpu.program import random_program
from repro.platforms import registry

from tests.cpu.pipeline_reference import (
    execute_reference,
    first_repeat_reference,
    steady_schedule_reference,
)

program_seeds = st.integers(min_value=0, max_value=10_000)
lengths = st.integers(min_value=2, max_value=60)

PLATFORMS = ("a72", "a53", "amd")


@lru_cache(maxsize=None)
def platform_core(key):
    """(pipeline, ISA) of a platform's cluster."""
    cluster = registry.make_cluster(key)
    return cluster.pipeline, cluster.spec.isa


@st.composite
def cores(draw):
    """A platform's own pipeline and ISA, or a stress configuration:
    in-order width 1 or 3, or out of order with a tiny window and a
    ROB either larger or smaller than it."""
    kind = draw(st.sampled_from(("platform", "in-order", "out-of-order")))
    if kind == "platform":
        return platform_core(draw(st.sampled_from(PLATFORMS)))
    if kind == "in-order":
        return InOrderPipeline(width=draw(st.sampled_from((1, 3)))), ARM_ISA
    width = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):  # window > ROB
        rob = draw(st.integers(min_value=4, max_value=7))
        window = draw(st.integers(min_value=rob + 1, max_value=8))
    else:
        window = draw(st.integers(min_value=2, max_value=8))
        rob = draw(st.integers(min_value=max(window, 4), max_value=128))
    pipeline = OutOfOrderPipeline(width=width, window=window, rob_size=rob)
    return pipeline, ARM_ISA


def assert_exit_is_exact(core, seed, length, iterations):
    """The early-exit kernel returns what full simulation returns."""
    pipeline, isa = core
    program = random_program(isa, length, np.random.default_rng(seed))
    assert np.array_equal(
        pipeline.execute(program, iterations),
        execute_reference(pipeline, program, iterations),
    )


exit_cases = dict(
    core=cores(),
    seed=program_seeds,
    length=st.integers(min_value=1, max_value=60),
    iterations=st.integers(min_value=2, max_value=64),
)


@settings(max_examples=50, deadline=None)
@given(**exit_cases)
def test_early_exit_matches_full_simulation(
    core, seed, length, iterations
):
    assert_exit_is_exact(core, seed, length, iterations)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(**exit_cases)
def test_early_exit_matches_full_simulation_deep(
    core, seed, length, iterations
):
    assert_exit_is_exact(core, seed, length, iterations)


def assert_steady_schedule_is_exact(core, seed, length, iterations):
    """The schedule read from the simulation is the one numpy read
    from the full array: offsets bit for bit, cycles and the steady
    body."""
    pipeline, isa = core
    program = random_program(isa, length, np.random.default_rng(seed))
    try:
        expected = steady_schedule_reference(pipeline, program, iterations)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="degenerate"):
            pipeline.steady_schedule(program, iterations)
        return
    schedule = pipeline.steady_schedule(program, iterations)
    offsets = schedule.issue_offsets
    assert offsets.dtype == expected.issue_offsets.dtype
    assert offsets.shape == expected.issue_offsets.shape
    assert offsets.tobytes() == expected.issue_offsets.tobytes()
    assert type(schedule.cycles) is int
    assert schedule.cycles == expected.cycles
    steady = schedule.program
    assert len(steady.body) == len(expected.program.body)
    assert all(a is b for a, b in zip(steady.body, expected.program.body))
    assert (steady is program) == (expected.program is program)
    assert steady.isa is program.isa and steady.name == program.name


@settings(max_examples=50, deadline=None)
@given(**exit_cases)
def test_steady_schedule_matches_numpy_reference(
    core, seed, length, iterations
):
    assert_steady_schedule_is_exact(core, seed, length, iterations)


def test_steady_schedule_fallback_matches_numpy_reference():
    """amd's ``add_rr, mulss, divss``: the first instruction runs ahead
    of ``divss`` and repeats its issue cycle, so both read each row's
    latest issue cycle."""
    pipeline, isa = platform_core("amd")
    program = random_program(isa, 3, np.random.default_rng(4735))
    starts = execute_reference(pipeline, program, 16)[:, 0]
    assert np.diff(starts[-3:]).min() <= 0
    assert_steady_schedule_is_exact((pipeline, isa), 4735, 3, 16)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(**exit_cases)
def test_steady_schedule_matches_numpy_reference_deep(
    core, seed, length, iterations
):
    assert_steady_schedule_is_exact(core, seed, length, iterations)


@pytest.mark.parametrize("platform", PLATFORMS)
def test_early_exit_exact_on_random_programs_at_default_iterations(
    platform,
):
    """200 fixed-seed 50-instruction programs at ``iterations=16``,
    the value every caller uses."""
    pipeline, isa = platform_core(platform)
    rng = np.random.default_rng(2018)
    for _ in range(200):
        program = random_program(isa, 50, rng)
        assert np.array_equal(
            pipeline.execute(program, 16),
            execute_reference(pipeline, program, 16),
        )


@pytest.mark.parametrize("platform", PLATFORMS)
def test_early_exit_stops_at_the_first_repeating_boundary(
    platform, monkeypatch
):
    """The issue-slot fingerprint only gates the repeat check: the
    scheduler must still stop at the first boundary whose full clamped
    state repeats, found by building that state at every boundary."""
    exits = []
    extend = pipeline_module._extend_periodic

    def spy(issue_flat, n_body, iterations, repeat_of, shift):
        exits.append((len(issue_flat) // n_body, repeat_of))
        return extend(issue_flat, n_body, iterations, repeat_of, shift)

    monkeypatch.setattr(pipeline_module, "_extend_periodic", spy)
    pipeline, isa = platform_core(platform)
    rng = np.random.default_rng(31)
    stopped = 0
    for _ in range(200):
        program = random_program(isa, 50, rng)
        exits.clear()
        pipeline.execute(program, 16)
        expected = first_repeat_reference(pipeline, program, 16)
        assert exits == ([expected] if expected is not None else [])
        stopped += expected is not None
    # Nearly every program settles well inside 16 iterations.
    assert stopped >= 190


@settings(max_examples=30, deadline=None)
@given(seed=program_seeds, length=lengths)
def test_steady_schedule_exists_for_any_program(seed, length):
    """Every valid program reaches a periodic steady state."""
    program = random_program(
        ARM_ISA, length, np.random.default_rng(seed)
    )
    schedule = InOrderPipeline(width=2).steady_schedule(program)
    assert schedule.cycles >= 1
    assert 0.0 < schedule.ipc <= 2.0


@settings(max_examples=60, deadline=None)
@given(
    platform=st.sampled_from(PLATFORMS),
    seed=program_seeds,
    length=st.integers(min_value=1, max_value=60),
)
@example(platform="amd", seed=4735, length=3)
def test_platform_steady_schedule_has_a_positive_period(
    platform, seed, length
):
    """Every platform's own pipeline finds a positive period for any
    program, also when an independent first instruction runs ahead of
    a long non-pipelined op out of order."""
    pipeline, isa = platform_core(platform)
    program = random_program(isa, length, np.random.default_rng(seed))
    assert pipeline.steady_schedule(program).cycles > 0


@settings(max_examples=30, deadline=None)
@given(seed=program_seeds, length=lengths)
def test_ooo_never_slower_than_in_order(seed, length):
    """With equal width/units, OoO throughput >= in-order throughput."""
    program = random_program(
        ARM_ISA, length, np.random.default_rng(seed)
    )
    io = InOrderPipeline(width=2).steady_schedule(program)
    ooo = OutOfOrderPipeline(width=2, window=48, rob_size=96).steady_schedule(
        program
    )
    # Schedules may cover different super-periods; compare throughput
    # (cycles per instruction) rather than raw period lengths.
    io_cpi = io.cycles / len(io.program)
    ooo_cpi = ooo.cycles / len(ooo.program)
    assert ooo_cpi <= io_cpi * 1.05 + 0.26


@settings(max_examples=30, deadline=None)
@given(seed=program_seeds)
def test_ipc_bounded_by_width(seed):
    program = random_program(ARM_ISA, 40, np.random.default_rng(seed))
    for width in (1, 2, 3):
        schedule = InOrderPipeline(width=width).steady_schedule(program)
        assert schedule.ipc <= width + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=program_seeds, length=lengths)
def test_current_trace_conserves_charge(seed, length):
    """Sum of (trace - base) equals total instruction energy."""
    program = random_program(
        ARM_ISA, length, np.random.default_rng(seed)
    )
    schedule = InOrderPipeline(width=2).steady_schedule(program)
    model = CurrentModel(
        base_current_a=0.25, amps_per_energy=1.0, frontend_energy=0.2,
        smoothing_cycles=4,
    )
    trace = model.trace(schedule)
    charge = float(np.sum(trace - model.base_current_a))
    # The steady period may span several loop iterations (a
    # super-period); each iteration injects the program's energy once.
    iterations = len(schedule.program) / len(program.body)
    expected = sum(i.spec.energy + 0.2 for i in program.body) * iterations
    assert charge == pytest.approx(expected, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(seed=program_seeds)
def test_trace_is_nonnegative_and_finite(seed):
    program = random_program(ARM_ISA, 30, np.random.default_rng(seed))
    schedule = OutOfOrderPipeline().steady_schedule(program)
    trace = CurrentModel().trace(schedule)
    assert np.isfinite(trace).all()
    assert (trace > 0.0).all()


@settings(max_examples=20, deadline=None)
@given(seed=program_seeds)
def test_schedule_deterministic(seed):
    program = random_program(ARM_ISA, 30, np.random.default_rng(seed))
    s1 = InOrderPipeline(width=2).steady_schedule(program)
    s2 = InOrderPipeline(width=2).steady_schedule(program)
    assert s1.cycles == s2.cycles
    assert np.array_equal(s1.issue_offsets, s2.issue_offsets)
