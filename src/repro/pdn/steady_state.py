"""Exact periodic steady-state solver for the linear PDN.

A dI/dt virus is a short instruction loop executed indefinitely, so its
load current is periodic.  For a *linear* network the periodic
steady-state response is exact in the frequency domain: decompose one
period of load current into harmonics, multiply each harmonic by the
complex AC transfer function, and superpose.

This path is orders of magnitude faster than transient integration and
is therefore used for GA fitness evaluation, where thousands of
candidate loops must be scored.  The solver caches nothing: a
:class:`repro.chain.SimulationSession` keeps the transfer-function
grids, bounded, and passes them back in through ``solve(transfer=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.obs.timing import timed_kernel
from repro.pdn.impedance import analyze_ac
from repro.pdn.ladder import Ladder


@dataclass
class PeriodicResponse:
    """Steady-state response of the PDN to one period of load current.

    All waveforms are sampled on the same grid as the input current
    (``sample_rate_hz``, one full period).  ``die_voltage`` includes the
    nominal supply and the DC IR drop: it is the actual rail waveform an
    on-chip scope would record.
    """

    sample_rate_hz: float
    nominal_voltage: float
    die_voltage: np.ndarray
    die_current: np.ndarray
    harmonic_frequencies_hz: np.ndarray
    die_voltage_harmonics: np.ndarray
    die_current_harmonics: np.ndarray

    @property
    def period_s(self) -> float:
        return self.die_voltage.size / self.sample_rate_hz

    @cached_property
    def min_voltage(self) -> float:
        """Lowest rail voltage over the period, computed once per
        response."""
        return float(np.min(self.die_voltage))

    @property
    def max_droop(self) -> float:
        """Largest dip below the nominal supply voltage, in volts."""
        return self.nominal_voltage - self.min_voltage

    @property
    def peak_to_peak(self) -> float:
        return float(np.max(self.die_voltage)) - self.min_voltage

    def voltage_spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """(frequencies_hz, amplitude) of the AC voltage harmonics."""
        return self.harmonic_frequencies_hz, np.abs(self.die_voltage_harmonics)

    def current_spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """(frequencies_hz, amplitude) of the AC die-current harmonics.

        These feed the EM radiation model: radiated power at each
        harmonic is proportional to the squared current amplitude.
        """
        return self.harmonic_frequencies_hz, np.abs(self.die_current_harmonics)

    def dominant_frequency_hz(
        self, band: Optional[Sequence[float]] = None
    ) -> float:
        """Frequency of the largest AC voltage harmonic (optionally banded)."""
        freqs = self.harmonic_frequencies_hz
        amps = np.abs(self.die_voltage_harmonics)
        mask = freqs > 0.0
        if band is not None:
            mask &= (freqs >= band[0]) & (freqs <= band[1])
        if not mask.any():
            raise ValueError("no harmonics inside requested band")
        idx = np.flatnonzero(mask)
        return float(freqs[idx[np.argmax(amps[idx])]])


class SteadyStateSolver:
    """Periodic steady-state analysis of a ladder's die rail.

    The ladder's supply voltage is the nominal rail.  The die current
    is the current through the ladder's last series section (the
    package trace), which drives the EM radiation model.
    """

    def __init__(self, ladder: Ladder):
        self._ladder = ladder
        self._nominal = ladder.supply.voltage
        #: Number of AC analyses this solver has performed through
        #: :meth:`transfer_functions`.  The chain layer's cache-hit
        #: assertions ("at most one analysis per distinct cluster
        #: state") read this counter.
        self.tf_analyses = 0

    @property
    def nominal_voltage(self) -> float:
        return self._nominal

    def transfer_functions(
        self, n_samples: int, sample_rate_hz: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(Z(f_k), H_I(f_k)) on the rfft harmonic grid, counted in
        :attr:`tf_analyses`."""
        self.tf_analyses += 1
        return self.compute_transfer_functions(n_samples, sample_rate_hz)

    @timed_kernel("pdn.ac")
    def compute_transfer_functions(
        self, n_samples: int, sample_rate_hz: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The AC analysis behind :meth:`transfer_functions`, uncounted.

        The determinism audit recomputes the session's cached grids
        through this method, so a corrupted cache entry is never
        compared with itself.
        """
        freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)
        # Bin 0 is solved at Z(0+), 1 Hz, in the same analysis as the
        # harmonics.
        freqs[0] = 1.0
        # The benchmark's tracer wraps this module's ``analyze_ac`` and
        # reads the grid from ``frequencies_hz=``.
        analysis = analyze_ac(self._ladder, frequencies_hz=freqs)
        z, h_i = analysis.impedance, analysis.die_current
        # DC transfer: resistive path for voltage, unity for current.
        z[0] = z[0].real
        h_i[0] = h_i[0].real
        return z, h_i

    @timed_kernel("pdn.steady_state.solve")
    def solve(
        self,
        load_current: np.ndarray,
        sample_rate_hz: float,
        transfer: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> PeriodicResponse:
        """Steady-state die waveforms for one period of ``load_current``.

        ``load_current`` holds instantaneous amperes drawn by the CPU at
        ``sample_rate_hz``; the waveform is treated as repeating
        indefinitely.  ``transfer`` optionally supplies a precomputed
        ``(Z, H_I)`` grid (see :meth:`transfer_functions`); without
        one, the solve runs a fresh AC analysis.
        """
        i_load = np.asarray(load_current, dtype=float)
        if i_load.ndim != 1 or i_load.size < 2:
            raise ValueError("load_current must be a 1-D array of >= 2 samples")
        n = i_load.size
        if transfer is not None:
            z, h_i = transfer
        else:
            z, h_i = self.transfer_functions(n, sample_rate_hz)

        i_harm = np.fft.rfft(i_load)
        v_harm = -z * i_harm  # load current *drops* the rail
        i_die_harm = h_i * i_harm

        v_wave = self._nominal + np.fft.irfft(v_harm, n=n)
        i_die_wave = np.fft.irfft(i_die_harm, n=n)

        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
        scale = 2.0 / n  # single-sided amplitude for k >= 1
        v_amp = v_harm * scale
        i_amp = i_die_harm * scale
        v_amp[0] = v_harm[0] / n
        i_amp[0] = i_die_harm[0] / n
        return PeriodicResponse(
            sample_rate_hz=sample_rate_hz,
            nominal_voltage=self._nominal,
            die_voltage=v_wave,
            die_current=i_die_wave,
            harmonic_frequencies_hz=freqs,
            die_voltage_harmonics=v_amp,
            die_current_harmonics=i_amp,
        )
