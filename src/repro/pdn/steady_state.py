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
grids, bounded, and passes them back in through
``solve_batch(transfers=...)``.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.timing import timed_kernel
from repro.pdn.impedance import analyze_ac
from repro.pdn.ladder import Ladder


class PeriodicResponse:
    """Steady-state response of the PDN to one period of load current.

    All waveforms are sampled on the same grid as the input current
    (``sample_rate_hz``, one full period).  ``die_voltage`` includes the
    nominal supply and the DC IR drop: it is the actual rail waveform an
    on-chip scope would record.

    The constructor takes every field.  A response from
    :meth:`SteadyStateSolver.solve_batch` is built by
    :meth:`from_current_spectrum` instead: the rail waveform and both
    harmonic-amplitude arrays are computed at solve time, and
    ``die_current`` is inverse-transformed from the die current's
    unscaled harmonics the first time it is read.  The chain reads the
    rail and the amplitudes; no chain stage reads the die-current
    waveform.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        nominal_voltage: float,
        die_voltage: np.ndarray,
        die_current: np.ndarray,
        harmonic_frequencies_hz: np.ndarray,
        die_voltage_harmonics: np.ndarray,
        die_current_harmonics: np.ndarray,
    ):
        self.sample_rate_hz = sample_rate_hz
        self.nominal_voltage = nominal_voltage
        self.die_voltage = die_voltage
        # Set on the instance, it shadows the lazy property.
        self.die_current = die_current
        self.harmonic_frequencies_hz = harmonic_frequencies_hz
        self.die_voltage_harmonics = die_voltage_harmonics
        self.die_current_harmonics = die_current_harmonics

    @classmethod
    def from_current_spectrum(
        cls,
        sample_rate_hz: float,
        nominal_voltage: float,
        die_voltage: np.ndarray,
        current_spectrum: np.ndarray,
        harmonic_frequencies_hz: np.ndarray,
        die_voltage_harmonics: np.ndarray,
        die_current_harmonics: np.ndarray,
    ) -> "PeriodicResponse":
        """A response whose ``die_current`` is the inverse transform of
        ``current_spectrum``, the die current's unscaled rfft
        harmonics, taken on first read."""
        response = cls.__new__(cls)
        response.sample_rate_hz = sample_rate_hz
        response.nominal_voltage = nominal_voltage
        response.die_voltage = die_voltage
        response._current_spectrum = current_spectrum
        response.harmonic_frequencies_hz = harmonic_frequencies_hz
        response.die_voltage_harmonics = die_voltage_harmonics
        response.die_current_harmonics = die_current_harmonics
        return response

    @cached_property
    def die_current(self) -> np.ndarray:
        """Die current waveform, inverse-transformed once per response
        from its harmonics.  A one-row ``irfft`` has the bits of the
        same row in a batched transform."""
        return np.fft.irfft(self._current_spectrum, n=self.die_voltage.size)

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
    package trace), which drives the EM radiation model.  Both kernels
    work on many grids or traces at once: :meth:`transfer_functions`
    folds every requested grid in one AC analysis, and
    :meth:`solve_batch` solves equal-length traces with one stacked
    FFT pair.  :meth:`solve` is their one-row call.
    """

    def __init__(self, ladder: Ladder):
        self._ladder = ladder
        self._nominal = ladder.supply.voltage
        #: Number of transfer-function grids this solver has computed
        #: through :meth:`transfer_functions`, one per grid however
        #: many share a fold.  The chain layer's cache-hit assertions
        #: ("at most one analysis per distinct cluster state") read
        #: this counter.
        self.tf_analyses = 0

    @property
    def nominal_voltage(self) -> float:
        return self._nominal

    def transfer_functions(
        self, grids: Sequence[Tuple[int, float]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The transfer stack and harmonic frequencies of each
        ``(n_samples, sample_rate_hz)`` grid (see
        :meth:`compute_transfer_functions`), each grid counted in
        :attr:`tf_analyses`."""
        self.tf_analyses += len(grids)
        return self.compute_transfer_functions(grids)

    @timed_kernel("pdn.ac")
    def compute_transfer_functions(
        self, grids: Sequence[Tuple[int, float]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The AC analysis behind :meth:`transfer_functions`, uncounted.

        Returns one ``(stack, frequencies_hz)`` pair per grid, on its
        rfft harmonic grid.  ``stack`` is ``(2, harmonics)``: row 0 is
        ``-Z(f_k)``, negated because load current *drops* the rail,
        and row 1 is ``H_I(f_k)``.  A solve multiplies it by the
        current harmonics as it is.  ``frequencies_hz`` is
        ``np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)``,
        read-only: every response on the grid shares it.

        Every grid goes into one fold over the concatenated
        frequencies.  The fold works frequency by frequency, so each
        grid gets the same bits as a fold of its own.  The stacks are
        views into one array.  The determinism audit recomputes the
        session's cached grids through this method, so a corrupted
        cache entry is never compared with itself.
        """
        freqs = [np.fft.rfftfreq(n, d=1.0 / rate) for n, rate in grids]
        fold = np.concatenate(freqs)
        lo = 0
        for grid in freqs:
            # Bin 0 is solved at Z(0+), 1 Hz, in the same analysis as
            # the harmonics.
            fold[lo] = 1.0
            lo += grid.size
        # The benchmark's tracer wraps this module's ``analyze_ac`` and
        # reads the grid from ``frequencies_hz=``.
        analysis = analyze_ac(self._ladder, frequencies_hz=fold)
        z, h_i = analysis.impedance, analysis.die_current
        stack = np.empty((2, z.size), dtype=complex)
        folded = []
        lo = 0
        for grid in freqs:
            # DC transfer: resistive path for voltage, unity for current.
            z[lo] = z[lo].real
            h_i[lo] = h_i[lo].real
            grid.flags.writeable = False
            folded.append((stack[:, lo:lo + grid.size], grid))
            lo += grid.size
        np.negative(z, out=stack[0])
        stack[1] = h_i
        return folded

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
        grid (see :meth:`transfer_functions`); without one, the solve
        runs a fresh AC analysis.  The one-row call of
        :meth:`solve_batch`.
        """
        i_load = np.asarray(load_current, dtype=float)
        if i_load.ndim != 1 or i_load.size < 2:
            raise ValueError("load_current must be a 1-D array of >= 2 samples")
        return self.solve_batch(
            i_load[None],
            (sample_rate_hz,),
            transfers=None if transfer is None else (transfer,),
        )[0]

    @timed_kernel("pdn.steady_state.solve")
    def solve_batch(
        self,
        load_currents: np.ndarray,
        sample_rates_hz: Sequence[float],
        transfers: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
        supply_voltages: Optional[Sequence[float]] = None,
    ) -> List[PeriodicResponse]:
        """Steady-state responses of equal-length traces, one per row.

        Row ``r`` of ``load_currents`` is one period sampled at
        ``sample_rates_hz[r]``; ``transfers[r]`` is its grid from
        :meth:`transfer_functions`, and without ``transfers`` every
        grid comes from one counted fold.  All rows share one ``rfft``
        and one ``irfft`` of the voltage rows, which transform row by
        row, so each response has the bits of a one-row solve.  Each
        response inverse-transforms its die current on first read, with
        the bits of the same row in a batched transform (see
        :class:`PeriodicResponse`).  ``supply_voltages[r]``, when given,
        recenters row ``r``'s rail on that supply setting: the waveform
        shifts by its offset from the nominal rail, and the response
        reports it as its nominal voltage.  Each response's rail
        waveform, harmonics and die-current spectrum are row views of
        the batch's arrays; its frequencies are its grid's.
        """
        i_load = np.asarray(load_currents, dtype=float)
        if i_load.ndim != 2 or i_load.shape[0] < 1 or i_load.shape[1] < 2:
            raise ValueError(
                "load_currents must be a 2-D array of one or more rows "
                "of >= 2 samples"
            )
        rows, n = i_load.shape
        rates = sample_rates_hz
        for name, values in (
            ("sample_rates_hz", rates),
            ("transfers", transfers),
            ("supply_voltages", supply_voltages),
        ):
            if values is not None and len(values) != rows:
                raise ValueError(
                    f"{name} has {len(values)} entries for {rows} rows"
                )
        if transfers is None:
            transfers = self.transfer_functions([(n, rate) for rate in rates])
        # Each row's stack times its current harmonics gives its voltage
        # and current harmonics in one product.  One row's stack
        # broadcasts as it is.  Only the voltage rows are
        # inverse-transformed here; each response transforms its die
        # current on first read.
        transfer = (
            transfers[0][0]
            if rows == 1
            else np.stack([stack for stack, _ in transfers])
        )
        harmonics = transfer * np.fft.rfft(i_load)[:, None]
        v_waves = np.fft.irfft(harmonics[:, 0], n=n)
        v_waves += self._nominal
        if supply_voltages is None:
            supplies = (self._nominal,) * rows
        else:
            supplies = supply_voltages
            offsets = [v - self._nominal for v in supplies]
            if any(offsets):
                # Adding 0.0 keeps every bit of a rail that is never
                # -0.0, so rows at the nominal rail may share the add.
                v_waves += np.array(offsets)[:, None]
        amplitudes = harmonics * (2.0 / n)  # single-sided for k >= 1
        np.divide(harmonics[..., 0], n, out=amplitudes[..., 0])
        return [
            PeriodicResponse.from_current_spectrum(
                sample_rate_hz=rates[r],
                nominal_voltage=supplies[r],
                die_voltage=v_waves[r],
                current_spectrum=harmonics[r, 1],
                harmonic_frequencies_hz=transfers[r][1],
                die_voltage_harmonics=amplitudes[r, 0],
                die_current_harmonics=amplitudes[r, 1],
            )
            for r in range(rows)
        ]
