"""Reference analyzer readout: one Gaussian RBW row per emission line,
one noise row per RMS-of-N sample and one per displayed sweep, for one
item at a time.

``SpectrumAnalyzer.spread_lines`` (windowed, blocked RBW filter over a
batch) and ``readout`` (block noise draws over a batch), and their
one-row calls ``received_power_w``, ``max_amplitude_from_power`` and
``trace_from_power``, must reproduce these bit for bit, including the
analyzer RNG state and the accumulated measurement time they leave
behind.
"""

from typing import Optional, Sequence

import numpy as np

from repro.em.radiation import EmissionSpectrum
from repro.instruments.spectrum_analyzer import (
    SpectrumAnalyzer,
    SpectrumTrace,
    _PORT_OHMS,
    watts_to_dbm,
)


def received_power_w_reference(
    analyzer: SpectrumAnalyzer,
    emission: EmissionSpectrum,
    gains: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-bin signal power, spreading each line over every bin."""
    centers = analyzer.bin_centers()
    power = np.zeros_like(centers)
    # The lines close enough to the span to land in a bin.
    lines = emission.band(
        analyzer.start_hz - 4.0 * analyzer.rbw_hz,
        analyzer.stop_hz + 4.0 * analyzer.rbw_hz,
    )
    if lines.frequencies_hz.size == 0:
        return power
    gain = gains if gains is not None else analyzer.line_gains(
        lines.frequencies_hz
    )
    v_rx = lines.amplitudes * gain
    p_lines = v_rx * v_rx / (2.0 * _PORT_OHMS)
    sigma = analyzer.rbw_hz / 2.355  # FWHM = RBW
    for f, p in zip(lines.frequencies_hz, p_lines):
        w = np.exp(-0.5 * ((centers - f) / sigma) ** 2)
        total = w.sum()
        if total > 0.0:
            power += p * w / total
    return power


def max_amplitude_from_power_reference(
    analyzer: SpectrumAnalyzer,
    signal_w: np.ndarray,
    band: Optional[Sequence[float]] = None,
    samples: int = 30,
    mask: Optional[np.ndarray] = None,
) -> float:
    """RMS-of-``samples`` band maximum, one noise row per sample."""
    band = band or (analyzer.start_hz, analyzer.stop_hz)
    if mask is None:
        centers = analyzer.bin_centers()
        mask = (centers >= band[0]) & (centers <= band[1])
    if not mask.any():
        raise ValueError(f"no bins inside band {band}")
    signal = signal_w[mask]
    maxima = np.empty(samples)
    for i in range(samples):
        noise = analyzer.environment.sample_noise_w(
            signal.shape, analyzer.rng
        )
        maxima[i] = np.max(signal + noise)
    analyzer.total_measurement_time_s += samples * analyzer.sweep_time_s(
        band
    )
    return float(np.sqrt(np.mean(maxima**2)))


def trace_from_power_reference(
    analyzer: SpectrumAnalyzer, signal_w: np.ndarray
) -> SpectrumTrace:
    """One displayed sweep: one full-span noise row over ``signal_w``."""
    centers = analyzer.bin_centers()
    noise = analyzer.environment.sample_noise_w(centers.shape, analyzer.rng)
    analyzer.total_measurement_time_s += analyzer.sweep_time_s()
    return SpectrumTrace(centers, watts_to_dbm(signal_w + noise))


def sweep_reference(
    analyzer: SpectrumAnalyzer, emission: EmissionSpectrum
) -> SpectrumTrace:
    """One displayed sweep over the reference signal power."""
    return trace_from_power_reference(
        analyzer, received_power_w_reference(analyzer, emission)
    )
