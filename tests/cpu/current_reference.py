"""Reference current traces: one charge packet per instruction.

``CurrentModel.trace`` and ``window_trace`` deposit every packet with
one ``np.add.at`` scatter over the packed program arrays and smooth
with a circular convolution; they must agree with these per-instruction
loops and the index-matrix moving average to ``rtol=1e-12``.

``CurrentModel.traces`` renders a batch of schedules into one array;
each of its traces must equal, bit for bit, :func:`trace_one_schedule`,
the deposit and smoothing of that schedule alone.
"""

import numpy as np

from repro.cpu.current import CurrentModel
from repro.cpu.pipeline import Schedule, WindowedSchedule


def smooth_reference(model: CurrentModel, trace: np.ndarray) -> np.ndarray:
    """Index-matrix gather formulation of the circular moving average."""
    w = model.smoothing_cycles
    if w <= 1 or trace.size < 2:
        return trace
    n = trace.size
    # True circular moving average (robust for traces shorter than
    # the window): element i averages samples i-w+1 .. i mod n.
    idx = (np.arange(n)[:, None] - np.arange(w)[None, :]) % n
    return trace[idx].mean(axis=1)


def trace_reference(model: CurrentModel, schedule: Schedule) -> np.ndarray:
    """Per-cycle current over one steady loop iteration."""
    cycles = schedule.cycles
    trace = np.full(cycles, model.base_current_a, dtype=float)
    k = model.amps_per_energy
    for instr, t0 in zip(schedule.program.body, schedule.issue_offsets):
        spec = instr.spec
        duration = spec.recip_throughput
        per_cycle = spec.energy / duration * k
        for c in range(duration):
            trace[(t0 + c) % cycles] += per_cycle
        trace[t0 % cycles] += model.frontend_energy * k
    return smooth_reference(model, trace)


def trace_one_schedule(model: CurrentModel, schedule: Schedule) -> np.ndarray:
    """One schedule's trace on its own: one ``np.add.at`` of its energy
    packets, one of its front-end packets, then a valid-mode
    convolution over the wrap-padded trace."""
    cycles = schedule.cycles
    k = model.amps_per_energy
    body = schedule.program.body
    energy = np.array([i.spec.energy for i in body], dtype=float)
    recip = np.array([i.spec.recip_throughput for i in body], dtype=np.int64)
    ends = np.cumsum(recip)
    offsets = np.arange(ends[-1]) - np.repeat(ends - recip, recip)
    t0 = np.asarray(schedule.issue_offsets, dtype=np.int64)
    trace = np.full(cycles, model.base_current_a, dtype=float)
    idx = (np.repeat(t0, recip) + offsets) % cycles
    np.add.at(trace, idx, np.repeat(energy / recip, recip) * k)
    np.add.at(trace, t0 % cycles, np.full(t0.size, model.frontend_energy * k))
    w = model.smoothing_cycles
    if w <= 1 or trace.size < 2:
        return trace
    pad = np.take(trace, np.arange(-(w - 1), trace.size), mode="wrap")
    return np.convolve(pad, np.ones(w), mode="valid") / w


def window_trace_reference(
    model: CurrentModel, windowed: WindowedSchedule
) -> np.ndarray:
    """Per-cycle current over a full multi-iteration window."""
    trace = np.full(windowed.cycles, model.base_current_a, dtype=float)
    k = model.amps_per_energy
    body = windowed.program.body
    for it in range(windowed.iterations):
        for j, instr in enumerate(body):
            spec = instr.spec
            t0 = int(windowed.issue[it, j])
            duration = spec.recip_throughput
            per_cycle = spec.energy / duration * k
            end = min(t0 + duration, windowed.cycles)
            trace[t0:end] += per_cycle
            trace[t0] += model.frontend_energy * k
    return smooth_reference(model, trace)
