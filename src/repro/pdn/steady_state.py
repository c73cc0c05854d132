"""Exact periodic steady-state solver for the linear PDN.

A dI/dt virus is a short instruction loop executed indefinitely, so its
load current is periodic.  For a *linear* network the periodic
steady-state response is exact in the frequency domain: decompose one
period of load current into harmonics, multiply each harmonic by the
complex AC transfer function, and superpose.

This path is orders of magnitude faster than transient integration and
is therefore used for GA fitness evaluation, where thousands of
candidate loops must be scored.  Transfer functions are cached per
(circuit, harmonic-frequency) grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs.timing import timed_kernel
from repro.pdn.impedance import analyze_ac
from repro.pdn.netlist import Circuit


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

    @property
    def max_droop(self) -> float:
        """Largest dip below the nominal supply voltage, in volts."""
        return float(self.nominal_voltage - np.min(self.die_voltage))

    @property
    def peak_to_peak(self) -> float:
        return float(np.max(self.die_voltage) - np.min(self.die_voltage))

    @property
    def min_voltage(self) -> float:
        return float(np.min(self.die_voltage))

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
    """Periodic steady-state analysis of a circuit's die rail.

    Parameters
    ----------
    circuit:
        PDN netlist.  Independent voltage sources supply the rail.
    die_node:
        Node where the CPU load current is drawn.
    sense_branch:
        Name of the inductor whose current represents the die feed
        current (the package inductor): its oscillation amplitude drives
        the EM radiation model.
    nominal_voltage:
        Ideal supply voltage (the voltage-source value).
    """

    def __init__(
        self,
        circuit: Circuit,
        die_node: str,
        sense_branch: str,
        nominal_voltage: float,
    ):
        self._circuit = circuit
        self._die_node = die_node
        self._sense_branch = sense_branch
        self._nominal = nominal_voltage
        self._tf_cache: Dict[
            Tuple[int, float], Tuple[np.ndarray, np.ndarray]
        ] = {}
        #: Number of fresh AC analyses this solver has performed.  The
        #: chain layer's cache-hit assertions ("at most one analysis per
        #: distinct cluster state") read this counter.
        self.tf_analyses = 0

    @property
    def nominal_voltage(self) -> float:
        return self._nominal

    def transfer_functions(
        self, n_samples: int, sample_rate_hz: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(Z(f_k), H_I(f_k)) on the rfft harmonic grid, cached."""
        key = (n_samples, sample_rate_hz)
        cached = self._tf_cache.get(key)
        if cached is not None:
            return cached
        self.tf_analyses += 1
        transfer = self.compute_transfer_functions(n_samples, sample_rate_hz)
        self._tf_cache[key] = transfer
        return transfer

    def compute_transfer_functions(
        self, n_samples: int, sample_rate_hz: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The AC analysis behind :meth:`transfer_functions`, uncached.

        The determinism audit recomputes cached grids through this
        method, so a corrupted cache entry is never compared with
        itself.
        """
        freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)
        # Skip DC here; the IR drop is handled separately via Z(0+).
        analysis = analyze_ac(self._circuit, self._die_node, freqs[1:])
        z = np.concatenate(
            [[0.0 + 0.0j], analysis.impedance(self._die_node)]
        )
        h_i = np.concatenate(
            [[0.0 + 0.0j], analysis.branch_currents[self._sense_branch]]
        )
        # DC transfer: resistive path for voltage, unity for current.
        dc = analyze_ac(self._circuit, self._die_node, [1.0])
        z[0] = np.real(dc.impedance(self._die_node)[0])
        h_i[0] = np.real(dc.branch_currents[self._sense_branch][0])
        # Orient the sense branch so die current follows load at DC
        # (positive mean load -> positive mean die current), regardless
        # of how the inductor's terminals were declared in the netlist.
        if h_i[0] < 0.0:
            h_i = -h_i
            h_i[0] = abs(h_i[0])
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
        ``(Z, H_I)`` grid (see :meth:`transfer_functions`) so a
        session-scoped cache can bypass the solver's own.
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
