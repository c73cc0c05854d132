"""Radiated-emission model: die current harmonics -> EM field spectrum.

For an electrically small radiator the radiation resistance grows as
``f^2``, so the radiated *power* at harmonic ``f`` with oscillatory
current amplitude ``I(f)`` is

    P_rad(f) = k * (f / f_ref)^2 * I(f)^2

(the quadratic current dependence of Section 2.2).  The field amplitude
is the square root of that.  The gentle ``f`` tilt across 50-200 MHz is
small against the resonance peak of ``I(f)``, so the spectrum's maximum
still lands on the PDN resonance -- which the validation tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.pdn.steady_state import PeriodicResponse


@dataclass
class EmissionSpectrum:
    """Discrete emission lines: frequencies and field amplitudes.

    ``amplitudes`` are in volt-equivalent field units at a reference
    distance; the propagation model scales them to the antenna.
    """

    frequencies_hz: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.frequencies_hz = np.asarray(self.frequencies_hz, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        if self.frequencies_hz.shape != self.amplitudes.shape:
            raise ValueError("frequency and amplitude arrays must align")

    def band(self, low_hz: float, high_hz: float) -> "EmissionSpectrum":
        mask = (self.frequencies_hz >= low_hz) & (
            self.frequencies_hz <= high_hz
        )
        return EmissionSpectrum(
            self.frequencies_hz[mask], self.amplitudes[mask]
        )

    def peak(self) -> Tuple[float, float]:
        """(frequency_hz, amplitude) of the strongest line, (0.0, 0.0)
        without lines: the one-spectrum call of :func:`strongest_lines`."""
        freqs, amps = strongest_lines([self])
        return float(freqs[0]), float(amps[0])


def strongest_lines(
    spectra: Sequence[EmissionSpectrum],
    band: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(frequency_hz, amplitude) of each spectrum's strongest line,
    optionally only among its lines inside the inclusive ``band``;
    0.0 and 0.0 for a spectrum without such a line.

    The lines of every spectrum go through together: a stable sort by
    spectrum, NaN amplitudes first, then by falling amplitude, puts
    first the line ``np.argmax`` picks, the first of the strongest.
    """
    freqs = np.concatenate([s.frequencies_hz for s in spectra])
    amps = np.concatenate([s.amplitudes for s in spectra])
    rows = np.repeat(
        np.arange(len(spectra)), [s.frequencies_hz.size for s in spectra]
    )
    if band is not None:
        inside = (freqs >= band[0]) & (freqs <= band[1])
        freqs, amps, rows = freqs[inside], amps[inside], rows[inside]
    order = np.lexsort((-amps, ~np.isnan(amps), rows))
    first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
    peak_freqs = np.zeros(len(spectra))
    peak_amps = np.zeros(len(spectra))
    peak_freqs[rows[first]] = freqs[first]
    peak_amps[rows[first]] = amps[first]
    return peak_freqs, peak_amps


@dataclass(frozen=True)
class DieRadiator:
    """Distributed on-die antenna with a quadratic current-power law.

    ``field_per_amp`` sets the field amplitude produced by 1 A of
    oscillation at ``f_ref_hz``.  ``tilt_exponent`` blends the far-field
    radiation-resistance growth against the near-field magnetic
    coupling roll-off of a receive loop parked centimeters from the
    die; the mild net tilt keeps the spectrum's maximum pinned to the
    PDN resonance, as the paper's measurements show.
    """

    field_per_amp: float = 1.0e-3
    f_ref_hz: float = 100.0e6
    tilt_exponent: float = 0.4

    def tilt(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Frequency tilt of the radiator over a harmonic grid."""
        return np.power(
            np.maximum(frequencies_hz, 1.0) / self.f_ref_hz,
            self.tilt_exponent,
        )

    def emission(self, response: PeriodicResponse) -> EmissionSpectrum:
        """Emission lines from a steady-state PDN response."""
        freqs, i_amps = response.current_spectrum()
        # Drop the DC component: a constant current does not radiate.
        freqs = freqs[1:]
        i_amps = i_amps[1:]
        return EmissionSpectrum(
            freqs, self.field_per_amp * self.tilt(freqs) * i_amps
        )


def combine_emissions(
    spectra: Iterable[EmissionSpectrum],
) -> EmissionSpectrum:
    """Superpose emission spectra from multiple voltage domains.

    Lines at identical frequencies add in power (incoherent sources:
    separate clusters run unsynchronized clocks), which is what lets a
    single antenna monitor several domains at once (Fig. 15).
    """
    freq_power: dict = {}
    for spectrum in spectra:
        for f, a in zip(spectrum.frequencies_hz, spectrum.amplitudes):
            freq_power[f] = freq_power.get(f, 0.0) + a * a
    if not freq_power:
        return EmissionSpectrum(np.empty(0), np.empty(0))
    freqs = np.array(sorted(freq_power))
    amps = np.sqrt(np.array([freq_power[f] for f in freqs]))
    return EmissionSpectrum(freqs, amps)
