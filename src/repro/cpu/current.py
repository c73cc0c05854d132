"""Convert issue schedules into per-cycle supply-current traces.

The current model assigns every instruction a charge packet: pipelined
instructions dump their switching energy in the ``recip_throughput``
cycles after issue (a one-cycle burst for simple ALU ops), while
non-pipelined long-latency instructions (DIV, SQRT) spread a similar
total charge across their whole latency -- so a DIV *shadow* is a
low-current window.  A constant per-core background covers clock tree
and leakage, and each issued instruction adds a small front-end
(fetch/decode) packet at its issue cycle.

The trace covers exactly one steady-state loop iteration and wraps
charge that spills past the iteration boundary back to the start, so
tiling the trace reproduces the true periodic waveform.

The production :meth:`CurrentModel.trace` / ``window_trace`` deposit
every charge packet with a single ``np.add.at`` scatter over the packed
per-program arrays (:meth:`repro.cpu.program.LoopProgram.static_arrays`)
and smooth with a circular convolution; the per-instruction
formulation they are checked against is in
``tests/cpu/current_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.pipeline import Schedule
from repro.obs.timing import timed_kernel


@dataclass(frozen=True)
class CurrentModel:
    """Charge-to-current conversion constants for one core.

    Attributes
    ----------
    base_current_a:
        Quiescent per-core current (clock tree, leakage) in amperes.
    amps_per_energy:
        Conversion from an instruction-spec energy unit (delivered over
        one cycle) to amperes.
    frontend_energy:
        Extra energy charged at the issue cycle of every instruction
        (fetch/decode/rename activity).
    """

    base_current_a: float = 0.25
    amps_per_energy: float = 0.6
    frontend_energy: float = 0.25
    smoothing_cycles: int = 4

    @timed_kernel("cpu.current.trace")
    def trace(self, schedule: Schedule) -> np.ndarray:
        """Per-cycle current (amperes) over one steady loop iteration."""
        cycles = schedule.cycles
        st = schedule.program.static_arrays()
        k = self.amps_per_energy
        t0 = np.asarray(schedule.issue_offsets, dtype=np.int64)
        trace = np.full(cycles, self.base_current_a, dtype=float)
        # Energy packets: every instruction deposits energy/duration
        # over its `recip_throughput` cycles, wrapped into the period.
        idx = (np.repeat(t0, st.recip_arr) + st.deposit_offsets) % cycles
        np.add.at(trace, idx, np.repeat(st.per_cycle_energy, st.recip_arr) * k)
        # Front-end packet at each issue cycle.
        np.add.at(
            trace,
            t0 % cycles,
            np.full(t0.size, self.frontend_energy * k),
        )
        return self._smooth(trace)

    def _smooth(self, trace: np.ndarray) -> np.ndarray:
        """Charge smoothing over a few cycles (pipeline overlap + local
        decoupling): single-cycle spikes are averaged away while
        multi-cycle high/low alternation -- the structure a dI/dt virus
        is built from -- passes through nearly unattenuated."""
        w = self.smoothing_cycles
        if w <= 1 or trace.size < 2:
            return trace
        # Circular moving average via one valid-mode convolution over a
        # wrap-padded copy; `np.take(..., mode="wrap")` keeps traces
        # shorter than the window correct.
        pad = np.take(trace, np.arange(-(w - 1), trace.size), mode="wrap")
        return np.convolve(pad, np.ones(w), mode="valid") / w

    def mean_current(self, schedule: Schedule) -> float:
        return float(np.mean(self.trace(schedule)))

    @timed_kernel("cpu.current.window_trace")
    def window_trace(self, windowed) -> np.ndarray:
        """Per-cycle current over a full multi-iteration window.

        Used with :class:`repro.cpu.pipeline.WindowedSchedule` when
        cache-miss nondeterminism makes single-period extraction
        impossible.  Charge deposits land at absolute cycles; nothing
        wraps (the window is long enough by construction), and deposits
        that would overrun the window end are truncated.
        """
        cycles = windowed.cycles
        st = windowed.program.static_arrays()
        k = self.amps_per_energy
        iterations = windowed.iterations
        t0 = windowed.issue.reshape(-1).astype(np.int64)
        reps = np.tile(st.recip_arr, iterations)
        idx = np.repeat(t0, reps) + np.tile(st.deposit_offsets, iterations)
        vals = np.tile(np.repeat(st.per_cycle_energy, st.recip_arr) * k,
                       iterations)
        keep = idx < cycles
        trace = np.full(cycles, self.base_current_a, dtype=float)
        np.add.at(trace, idx[keep], vals[keep])
        np.add.at(
            trace, t0, np.full(t0.size, self.frontend_energy * k)
        )
        return self._smooth(trace)
