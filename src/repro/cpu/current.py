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

The production :meth:`CurrentModel.traces` renders a whole batch of
schedules at once: one ``np.add.at`` scatter deposits every energy
packet of every schedule into one flat array, a second one every
front-end packet, and one convolution over the concatenated wrap-padded
traces smooths them all.  Each cell receives its own schedule's packets
in the per-schedule order, so every trace has the bits it gets alone;
:meth:`CurrentModel.trace` is the one-row call.  The charge packets
come from :func:`repro.cpu.program.charge_packets`, which
``window_trace`` uses too.  The per-instruction formulation they are
checked against is in ``tests/cpu/current_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.cpu.pipeline import Schedule
from repro.cpu.program import charge_packets
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

    def trace(self, schedule: Schedule) -> np.ndarray:
        """Per-cycle current (amperes) over one steady loop iteration:
        the one-row call of :meth:`traces`."""
        return self.traces([schedule])[0]

    @timed_kernel("cpu.current.trace")
    def traces(self, schedules: Sequence[Schedule]) -> List[np.ndarray]:
        """Per-cycle current (amperes) over one steady loop iteration of
        each schedule, as views into one array.

        Every instruction deposits energy/duration over its
        ``recip_throughput`` cycles after issue, and a front-end packet
        at its issue cycle, each wrapped into its own schedule's period.
        """
        if not schedules:
            return []
        k = self.amps_per_energy
        cycles = np.array([s.cycles for s in schedules], dtype=np.int64)
        bases = np.cumsum(cycles) - cycles
        sizes = [len(s.program) for s in schedules]
        t0 = np.concatenate(
            [np.asarray(s.issue_offsets, dtype=np.int64) for s in schedules]
        )
        period = np.repeat(cycles, sizes)
        base = np.repeat(bases, sizes)
        recip, per_cycle_energy, offsets = charge_packets(
            [s.program for s in schedules]
        )
        flat = np.full(int(cycles.sum()), self.base_current_a, dtype=float)
        # Energy packets of every schedule, then every front-end packet:
        # each cycle gets its own schedule's packets in the order a
        # one-schedule deposit adds them.
        idx = (np.repeat(t0, recip) + offsets) % np.repeat(period, recip)
        np.add.at(
            flat,
            idx + np.repeat(base, recip),
            np.repeat(per_cycle_energy, recip) * k,
        )
        np.add.at(flat, t0 % period + base, self.frontend_energy * k)
        return self._smooth(flat, cycles, bases)

    def _smooth(
        self, flat: np.ndarray, cycles: np.ndarray, bases: np.ndarray
    ) -> List[np.ndarray]:
        """Charge smoothing over a few cycles (pipeline overlap + local
        decoupling): single-cycle spikes are averaged away while
        multi-cycle high/low alternation -- the structure a dI/dt virus
        is built from -- passes through nearly unattenuated.

        ``flat`` holds traces of ``cycles`` samples starting at
        ``bases``; returns each trace smoothed.  Traces shorter than 2
        samples are returned as they are.
        """
        w = self.smoothing_cycles
        spans = list(zip(bases.tolist(), cycles.tolist()))
        if w <= 1:
            return [flat[b:b + n] for b, n in spans]
        # Circular moving average via one valid-mode convolution over
        # the concatenated wrap-padded traces, each led by its own last
        # w - 1 samples; the wrap keeps traces shorter than the window
        # correct.  Outputs whose window spans two traces are not read.
        padded = cycles + (w - 1)
        starts = np.cumsum(padded) - padded
        local = np.arange(int(padded.sum())) - np.repeat(
            starts + (w - 1), padded
        )
        pad = flat[
            np.repeat(bases, padded) + local % np.repeat(cycles, padded)
        ]
        smoothed = np.convolve(pad, np.ones(w), mode="valid") / w
        return [
            smoothed[start:start + n] if n >= 2 else flat[b:b + n]
            for start, (b, n) in zip(starts.tolist(), spans)
        ]

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
        recip, per_cycle_energy, offsets = charge_packets([windowed.program])
        k = self.amps_per_energy
        iterations = windowed.iterations
        t0 = windowed.issue.reshape(-1).astype(np.int64)
        reps = np.tile(recip, iterations)
        idx = np.repeat(t0, reps) + np.tile(offsets, iterations)
        vals = np.tile(np.repeat(per_cycle_energy, recip) * k, iterations)
        keep = idx < cycles
        trace = np.full(cycles, self.base_current_a, dtype=float)
        np.add.at(trace, idx[keep], vals[keep])
        np.add.at(
            trace, t0, np.full(t0.size, self.frontend_energy * k)
        )
        return self._smooth(
            trace, np.array([cycles]), np.zeros(1, dtype=np.int64)
        )[0]
