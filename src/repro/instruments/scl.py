"""Synthetic current load (SCL) block.

The Juno OC-DSO integrates a synthetic current load that draws a
square-wave current from the Cortex-A72 rail at a programmable
frequency; sweeping that frequency and recording the peak-to-peak rail
oscillation reveals the PDN resonance (Fig. 8, following [16]).  The
model injects the same square wave into the simulated PDN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.pdn.steady_state import PeriodicResponse, SteadyStateSolver


def square_wave_current(
    amplitude_a: float,
    samples_per_period: int = 128,
    duty: float = 0.5,
    baseline_a: float = 0.0,
) -> np.ndarray:
    """One period of a square-wave load: high for ``duty`` of the period."""
    if not 0.0 < duty < 1.0:
        raise ValueError("duty cycle must be in (0, 1)")
    if samples_per_period < 8:
        raise ValueError("need at least 8 samples per period")
    high = int(round(samples_per_period * duty))
    wave = np.full(samples_per_period, baseline_a)
    wave[:high] += amplitude_a
    return wave


@dataclass
class SCLSweepResult:
    """Outcome of a frequency sweep of the synthetic current load."""

    frequencies_hz: np.ndarray
    peak_to_peak_v: np.ndarray

    def resonance_hz(self) -> float:
        """Frequency with the highest rail oscillation."""
        return float(
            self.frequencies_hz[int(np.argmax(self.peak_to_peak_v))]
        )

    def rows(self) -> List[Tuple[float, float]]:
        return list(zip(self.frequencies_hz, self.peak_to_peak_v))


@dataclass
class SyntheticCurrentLoad:
    """Square-wave current injector attached to a PDN rail."""

    amplitude_a: float = 1.0
    samples_per_period: int = 128
    duty: float = 0.5

    def response_at(
        self, solver: SteadyStateSolver, frequency_hz: float
    ) -> PeriodicResponse:
        """Steady-state rail response to the square wave at one frequency."""
        return self._responses(solver, [frequency_hz])[0]

    def sweep(
        self,
        solver: SteadyStateSolver,
        frequencies_hz: Sequence[float],
    ) -> SCLSweepResult:
        """Peak-to-peak rail oscillation at each stimulus frequency."""
        freqs = np.asarray(frequencies_hz, dtype=float)
        p2p = [r.peak_to_peak for r in self._responses(solver, freqs)]
        return SCLSweepResult(
            frequencies_hz=freqs, peak_to_peak_v=np.array(p2p, dtype=float)
        )

    def _responses(
        self, solver: SteadyStateSolver, frequencies_hz: Sequence[float]
    ) -> List[PeriodicResponse]:
        """The square wave's rail responses, one per frequency, from one
        :meth:`SteadyStateSolver.solve_batch` call at one sample rate
        per frequency; every frequency is checked before any solve."""
        freqs = np.asarray(frequencies_hz, dtype=float).tolist()
        bad = [f for f in freqs if not (math.isfinite(f) and f > 0.0)]
        if bad:
            raise ValueError(
                f"SCL frequency must be finite and positive, got {bad[0]}"
            )
        if not freqs:
            return []
        wave = square_wave_current(
            self.amplitude_a, self.samples_per_period, self.duty
        )
        return solver.solve_batch(
            np.tile(wave, (len(freqs), 1)),
            [f * self.samples_per_period for f in freqs],
        )
