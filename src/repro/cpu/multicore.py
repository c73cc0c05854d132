"""Cluster-level execution: per-core traces summed onto one rail.

The paper's viruses run one loop instance per active core.  The cores
are not phase-locked in hardware, but the worst case -- and the state a
resonating cluster settles into -- is alignment of the high-current
phases, so aligned execution is the default; explicit per-core phase
offsets are supported for studying misalignment.

Every way of combining per-core traces onto the rail lives here, and
each returns one clock-free :class:`ClusterExecution`: schedules are in
cycles and currents in amperes per cycle, so the clock is an operating
point of the experiment, and an item run at ``clock_hz`` loops at
``clock_hz / loop_cycles``.

Power-gated cores contribute nothing here; their electrical effect
(removing die capacitance) lives in :mod:`repro.pdn.models`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cpu.current import CurrentModel
from repro.cpu.pipeline import Pipeline
from repro.cpu.program import LoopProgram


@dataclass(frozen=True)
class ClusterExecution:
    """Steady-state execution of one chain item across its active cores.

    ``load_current`` is the combined current over one period, one sample
    per cycle, uncore draw included.  ``loop_cycles`` is the steady
    iteration; for a mix, the composite period; for cache-miss windows,
    core 0's mean iteration (a float).  ``ipc`` is the iteration's; for
    a mix, the mean per-core IPC; for windows, core 0's window IPC.
    ``schedules`` holds each active core's ``Schedule``, or its
    ``WindowedSchedule`` for cache-miss windows.
    """

    load_current: np.ndarray
    loop_cycles: float
    ipc: float
    uncore_current_a: float
    schedules: Tuple

    @property
    def active_cores(self) -> int:
        return len(self.schedules)


def _lcm_capped(values: Sequence[int], cap: int) -> int:
    lcm = 1
    for v in values:
        lcm = lcm * v // np.gcd(lcm, v)
        if lcm >= cap:
            return cap
    return lcm


def execute_on_cluster(
    pipeline: Pipeline,
    current_model: CurrentModel,
    program: LoopProgram,
    active_cores: int,
    phase_offsets: Optional[Sequence[int]] = None,
    uncore_current_a: float = 0.1,
    iterations: int = 16,
) -> ClusterExecution:
    """Run ``program`` on ``active_cores`` identical cores.

    ``phase_offsets`` gives each core's start offset in cycles (default:
    all aligned).  The combined trace is the sum of circularly-shifted
    per-core traces plus a constant uncore draw.
    """
    if active_cores < 1:
        raise ValueError("active_cores must be >= 1")
    offsets = list(phase_offsets) if phase_offsets is not None else [0] * (
        active_cores
    )
    if len(offsets) != active_cores:
        raise ValueError("need one phase offset per active core")

    schedule = pipeline.steady_schedule(program, iterations)
    trace = current_model.trace(schedule)
    combined = np.zeros_like(trace)
    for off in offsets:
        combined += np.roll(trace, off % len(trace))
    combined += uncore_current_a
    return ClusterExecution(
        load_current=combined,
        loop_cycles=schedule.cycles,
        ipc=schedule.ipc,
        uncore_current_a=uncore_current_a,
        schedules=(schedule,) * active_cores,
    )


def execute_mixed_on_cluster(
    pipeline: Pipeline,
    current_model: CurrentModel,
    programs: Sequence[LoopProgram],
    uncore_current_a: float = 0.1,
    iterations: int = 16,
    period_cap_cycles: int = 4096,
) -> ClusterExecution:
    """Run a different program on each active core (heterogeneous mix).

    Real systems co-schedule unrelated workloads; a dI/dt virus rarely
    owns every core.  Per-core traces are tiled to the least common
    multiple of their periods so the composite is exactly periodic.
    Pathological period combinations are capped at
    ``period_cap_cycles`` (the tail cores then wrap mid-iteration --
    a bounded approximation that only matters for metrology-grade
    phase studies).
    """
    if not programs:
        raise ValueError("need at least one program")
    schedules = tuple(
        pipeline.steady_schedule(p, iterations) for p in programs
    )
    traces = [current_model.trace(s) for s in schedules]
    period = _lcm_capped([t.size for t in traces], period_cap_cycles)
    combined = np.full(period, uncore_current_a, dtype=float)
    for trace in traces:
        reps = int(np.ceil(period / trace.size))
        combined += np.tile(trace, reps)[:period]
    return ClusterExecution(
        load_current=combined,
        loop_cycles=period,
        ipc=sum(s.ipc for s in schedules) / len(schedules),
        uncore_current_a=uncore_current_a,
        schedules=schedules,
    )


def execute_windows_on_cluster(
    pipeline: Pipeline,
    current_model: CurrentModel,
    program: LoopProgram,
    active_cores: int,
    cache,
    memory_rng: np.random.Generator,
    uncore_current_a: float = 0.1,
    iterations: int = 16,
) -> ClusterExecution:
    """Run ``program`` with cache misses on ``active_cores`` cores.

    Each core draws one execution window from ``memory_rng``, in core
    order, and its trace is padded to the longest window with its
    quiescent current; the rail solve treats the window as one period.
    """
    windows = tuple(
        pipeline.windowed_schedule(
            program, iterations=iterations, cache=cache, memory_rng=memory_rng
        )
        for _ in range(active_cores)
    )
    traces = [current_model.window_trace(window) for window in windows]
    length = max(t.size for t in traces)
    combined = np.full(length, uncore_current_a)
    for trace in traces:
        padded = np.full(length, current_model.base_current_a)
        padded[: trace.size] = trace
        combined += padded
    return ClusterExecution(
        load_current=combined,
        loop_cycles=windows[0].mean_iteration_cycles(),
        ipc=windows[0].ipc,
        uncore_current_a=uncore_current_a,
        schedules=windows,
    )
