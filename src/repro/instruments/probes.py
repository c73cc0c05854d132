"""Differential probing of on-package Kelvin measurement points.

The AMD platform exposes on-package sense pads wired to the on-chip
rails; a differential probe connects them to a bench oscilloscope.
The probe model applies a first-order bandwidth roll-off and gain
error before the scope samples the waveform -- the chain the paper's
``OscVirus`` GA feedback runs through.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.instruments.oscilloscope import Oscilloscope, ScopeCapture
from repro.pdn.steady_state import PeriodicResponse


@dataclass
class DifferentialProbe:
    """Differential probe with finite bandwidth feeding a scope."""

    bandwidth_hz: float = 1.0e9
    gain: float = 1.0
    scope: Oscilloscope = field(
        default_factory=lambda: Oscilloscope(
            sample_rate_hz=4.0e9, resolution_bits=10, noise_rms_v=1.0e-3
        )
    )

    def _filtered(self, response: PeriodicResponse) -> PeriodicResponse:
        """Apply the probe's single-pole roll-off to the voltage
        harmonics.  The copy shares every other field, read or not, so
        a solver response's die current stays untransformed."""
        f = response.harmonic_frequencies_hz
        h = self.gain / (1.0 + 1j * f / self.bandwidth_hz)
        v = response.die_voltage_harmonics * h
        # Keep the DC term untouched apart from gain.
        v[0] = response.die_voltage_harmonics[0] * self.gain
        filtered = copy.copy(response)
        filtered.die_voltage_harmonics = v
        return filtered

    def capture(
        self, response: PeriodicResponse, duration_s: float = 2.0e-6
    ) -> ScopeCapture:
        """Probe the rail and capture on the attached scope."""
        return self.scope.capture(self._filtered(response), duration_s)

    def measure_max_droop(
        self, response: PeriodicResponse, duration_s: float = 2.0e-6
    ) -> float:
        return self.capture(response, duration_s).max_droop()

    def measure_peak_to_peak(
        self, response: PeriodicResponse, duration_s: float = 2.0e-6
    ) -> float:
        return self.capture(response, duration_s).peak_to_peak()
