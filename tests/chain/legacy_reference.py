"""Reference run path: ``Cluster``'s per-call runs before the chain.

Until every run went through the measurement chain, ``Cluster`` kept
its own copy of the execute -> current -> pdn stages: ``run`` (with the
SPEC-style timing-jitter block), ``run_mixed``, ``run_nondeterministic``
and ``run_trace``.  Their bodies live on here as functions of a
cluster, with the result types they returned, so the chain can be
pinned bit for bit against code that shares none of its caching or
batching: every call schedules afresh, folds its own transfer grid and
solves its trace with the one-dimensional FFT solve the steady-state
solver ran per trace before it solved stacked rows (:func:`_solve`).
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cpu.multicore import (
    ClusterExecution,
    CoreModel,
    execute_mixed_on_cluster,
    execute_on_cluster,
)
from repro.cpu.program import LoopProgram
from repro.pdn.impedance import analyze_ac
from repro.pdn.steady_state import PeriodicResponse


@dataclass
class ReferenceRun:
    """One steady-state program execution on a cluster."""

    program: LoopProgram
    execution: ClusterExecution
    response: PeriodicResponse
    clock_hz: float
    voltage: float
    powered_cores: int
    active_cores: int

    @property
    def ipc(self) -> float:
        return self.execution.ipc

    @property
    def loop_frequency_hz(self) -> float:
        return self.execution.loop_frequency_hz

    @property
    def loop_period_s(self) -> float:
        return self.execution.loop_period_s

    @property
    def max_droop(self) -> float:
        return self.response.max_droop

    @property
    def peak_to_peak(self) -> float:
        return self.response.peak_to_peak


@dataclass
class ReferenceNondeterministicRun:
    """One cache-nondeterministic execution window on a cluster."""

    program: LoopProgram
    windows: list
    response: PeriodicResponse
    clock_hz: float
    voltage: float
    active_cores: int

    @property
    def ipc(self) -> float:
        return self.windows[0].ipc

    @property
    def loop_frequency_hz(self) -> float:
        mean_cycles = self.windows[0].mean_iteration_cycles()
        return self.clock_hz / mean_cycles

    @property
    def max_droop(self) -> float:
        return self.response.max_droop

    @property
    def peak_to_peak(self) -> float:
        return self.response.peak_to_peak


def _recentered(
    response: PeriodicResponse, supply_voltage: float
) -> PeriodicResponse:
    """Shift a response to a non-nominal supply voltage setting."""
    if supply_voltage == response.nominal_voltage:
        return response
    delta = supply_voltage - response.nominal_voltage
    return PeriodicResponse(
        sample_rate_hz=response.sample_rate_hz,
        nominal_voltage=supply_voltage,
        die_voltage=response.die_voltage + delta,
        die_current=response.die_current,
        harmonic_frequencies_hz=response.harmonic_frequencies_hz,
        die_voltage_harmonics=response.die_voltage_harmonics,
        die_current_harmonics=response.die_current_harmonics,
    )


def _transfer_grid(ladder, n_samples: int, sample_rate_hz: float):
    """(Z, H_I) on one trace's rfft harmonic grid, from a fold of its own."""
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)
    # Bin 0 is solved at Z(0+), 1 Hz, in the same analysis.
    freqs[0] = 1.0
    analysis = analyze_ac(ladder, frequencies_hz=freqs)
    z, h_i = analysis.impedance, analysis.die_current
    # DC transfer: resistive path for voltage, unity for current.
    z[0] = z[0].real
    h_i[0] = h_i[0].real
    return z, h_i


def _solve(cluster, trace: np.ndarray, sample_rate_hz: float):
    """Rail response at the cluster's state: a fresh AC analysis, then
    the one-dimensional FFT solve of one trace."""
    ladder = cluster.pdn.ladder(cluster.powered_cores)
    nominal = ladder.supply.voltage
    i_load = np.asarray(trace, dtype=float)
    n = i_load.size
    z, h_i = _transfer_grid(ladder, n, sample_rate_hz)
    i_harm = np.fft.rfft(i_load)
    v_harm = -z * i_harm  # load current *drops* the rail
    i_die_harm = h_i * i_harm
    v_wave = nominal + np.fft.irfft(v_harm, n=n)
    i_die_wave = np.fft.irfft(i_die_harm, n=n)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    scale = 2.0 / n  # single-sided amplitude for k >= 1
    v_amp = v_harm * scale
    i_amp = i_die_harm * scale
    v_amp[0] = v_harm[0] / n
    i_amp[0] = i_die_harm[0] / n
    response = PeriodicResponse(
        sample_rate_hz=sample_rate_hz,
        nominal_voltage=nominal,
        die_voltage=v_wave,
        die_current=i_die_wave,
        harmonic_frequencies_hz=freqs,
        die_voltage_harmonics=v_amp,
        die_current_harmonics=i_amp,
    )
    return _recentered(response, cluster.voltage)


def _current_scale(cluster) -> float:
    return (cluster.clock_hz / cluster.spec.nominal_clock_hz) * (
        cluster.voltage / cluster.spec.nominal_voltage
    )


def _core(cluster) -> CoreModel:
    return CoreModel(
        pipeline=cluster.pipeline,
        current_model=cluster.spec.current_model,
        clock_hz=cluster.clock_hz,
    )


def _active_cores(cluster, active_cores: Optional[int]) -> int:
    active = active_cores if active_cores is not None else (
        cluster.powered_cores
    )
    if active > cluster.powered_cores:
        raise ValueError(
            f"{cluster.name}: {active} active cores exceed "
            f"{cluster.powered_cores} powered"
        )
    return active


def reference_jitter(
    trace: np.ndarray,
    timing_jitter_rng: np.random.Generator,
    jitter_tiles: int = 16,
    jitter_smooth_cycles: int = 12,
    activity_compression: float = 1.0,
) -> np.ndarray:
    """The jitter block of ``Cluster.run`` before the chain: smooth,
    compress, then tile with one ``np.roll`` per random shift."""
    w = max(1, jitter_smooth_cycles)
    if w > 1 and trace.size > w:
        kernel = np.ones(w) / w
        trace = np.convolve(
            np.concatenate([trace[-(w - 1):], trace]),
            kernel,
            mode="valid",
        )
    if activity_compression != 1.0:
        mean = trace.mean()
        trace = mean + activity_compression * (trace - mean)
    n = trace.size
    return np.concatenate(
        [
            np.roll(trace, int(timing_jitter_rng.integers(n)))
            for _ in range(max(1, jitter_tiles))
        ]
    )


def reference_run(
    cluster,
    program: LoopProgram,
    active_cores: Optional[int] = None,
    phase_offsets: Optional[Sequence[int]] = None,
    iterations: int = 16,
    timing_jitter_rng: Optional[np.random.Generator] = None,
    jitter_tiles: int = 16,
    jitter_smooth_cycles: int = 12,
    activity_compression: float = 1.0,
) -> ReferenceRun:
    """``Cluster.run`` before the chain, jitter block included."""
    active = _active_cores(cluster, active_cores)
    execution = execute_on_cluster(
        _core(cluster),
        program,
        active_cores=active,
        phase_offsets=phase_offsets,
        uncore_current_a=cluster.spec.uncore_current_a,
        iterations=iterations,
    )
    trace = execution.load_current * _current_scale(cluster)
    if trace.size < 4:
        trace = np.tile(trace, int(np.ceil(4 / trace.size)))
    if timing_jitter_rng is not None:
        trace = reference_jitter(
            trace,
            timing_jitter_rng,
            jitter_tiles=jitter_tiles,
            jitter_smooth_cycles=jitter_smooth_cycles,
            activity_compression=activity_compression,
        )
    return ReferenceRun(
        program=program,
        execution=execution,
        response=_solve(cluster, trace, execution.sample_rate_hz),
        clock_hz=cluster.clock_hz,
        voltage=cluster.voltage,
        powered_cores=cluster.powered_cores,
        active_cores=active,
    )


def reference_run_mixed(
    cluster, programs: Sequence[LoopProgram], iterations: int = 16
) -> PeriodicResponse:
    """``Cluster.run_mixed``: a different program on each active core."""
    if not 1 <= len(programs) <= cluster.powered_cores:
        raise ValueError(
            f"{cluster.name}: need 1..{cluster.powered_cores} programs, "
            f"got {len(programs)}"
        )
    execution = execute_mixed_on_cluster(
        _core(cluster),
        programs,
        uncore_current_a=cluster.spec.uncore_current_a,
        iterations=iterations,
    )
    trace = execution.load_current * _current_scale(cluster)
    return _solve(cluster, trace, execution.sample_rate_hz)


def reference_run_nondeterministic(
    cluster,
    program: LoopProgram,
    cache_model,
    memory_rng: np.random.Generator,
    active_cores: Optional[int] = None,
    iterations: int = 16,
) -> ReferenceNondeterministicRun:
    """``Cluster.run_nondeterministic``: cache misses with random
    penalties, one window per active core drawn from ``memory_rng``."""
    active = _active_cores(cluster, active_cores)
    model = cluster.spec.current_model
    traces = []
    windows = []
    for _ in range(active):
        window = cluster.pipeline.windowed_schedule(
            program,
            iterations=iterations,
            cache=cache_model,
            memory_rng=memory_rng,
        )
        windows.append(window)
        traces.append(model.window_trace(window))
    length = max(t.size for t in traces)
    combined = np.full(length, cluster.spec.uncore_current_a)
    for trace in traces:
        padded = np.full(length, model.base_current_a)
        padded[: trace.size] = trace
        combined += padded
    combined *= _current_scale(cluster)
    return ReferenceNondeterministicRun(
        program=program,
        windows=windows,
        response=_solve(cluster, combined, cluster.clock_hz),
        clock_hz=cluster.clock_hz,
        voltage=cluster.voltage,
        active_cores=active,
    )


def reference_run_trace(
    cluster, load_current: np.ndarray, sample_rate_hz: float
) -> PeriodicResponse:
    """``Cluster.run_trace``: the rail response to an explicit trace."""
    return _solve(
        cluster,
        np.asarray(load_current, dtype=float) * (
            cluster.voltage / cluster.spec.nominal_voltage
        ),
        sample_rate_hz,
    )


def reference_idle_response(cluster, workload) -> PeriodicResponse:
    """``IdleWorkload.run``'s rail response through
    :func:`reference_run_trace`."""
    rng = np.random.default_rng(workload.seed)
    base = (
        cluster.spec.current_model.base_current_a * cluster.powered_cores
        + cluster.spec.uncore_current_a
    )
    noise = rng.standard_normal(workload.samples)
    noise = np.convolve(noise, np.ones(33) / 33.0, mode="same")
    trace = base * (1.0 + workload.wander_fraction * noise)
    return reference_run_trace(cluster, trace, cluster.clock_hz)
