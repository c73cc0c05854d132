"""Swept spectrum analyzer model.

Models the essentials the methodology depends on: a start/stop span
divided into RBW-wide bins, emission lines landing in bins through a
Gaussian resolution filter, a noise floor with sweep-to-sweep spread,
power readout in dBm, peak markers, and the paper's fitness metric --
the root-mean-square of the band maximum over 30 sweeps (Section 3.1b).

Both readout kernels are exact rewrites of the plain per-line and
per-sweep loops (kept as the reference in
``tests/instruments/analyzer_reference.py``): the RBW filter is
evaluated only within :data:`RBW_REACH_SIGMAS` of each line, where its
weights can be nonzero, and the RMS-of-N noise is drawn as one block
whose draws are converted to watts only in the bins where some sweep's
maximum can land.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.em.antenna import SquareLoopAntenna
from repro.em.propagation import AmbientEnvironment, NearFieldCoupling
from repro.em.radiation import EmissionSpectrum

_PORT_OHMS = 50.0

#: Reach of the Gaussian RBW filter, in filter sigmas.  Beyond ~38.6
#: sigmas ``np.exp(-0.5 * x**2)`` underflows to exactly 0.0 in float64,
#: so no bin farther than this from a line receives any of its power.
RBW_REACH_SIGMAS = 40.0

#: Emission lines spread per pass of :meth:`SpectrumAnalyzer.received_power_w`.
#: Each pass holds a few ``(LINE_BLOCK, bins)`` arrays, however many
#: lines a jittered trace puts in the span.
LINE_BLOCK = 32

#: Relative widening of the two bounds that decide which bins of an
#: RMS-of-N readout can hold a sweep maximum (see
#: :meth:`SpectrumAnalyzer.max_amplitude_from_power`).  It covers any
#: last-bit difference between converting one draw and a block of them.
BOUND_SLACK = 1.0e-9


def watts_to_dbm(power_w: np.ndarray) -> np.ndarray:
    """Convert watts to dBm, clamping to a -200 dBm floor."""
    return 10.0 * np.log10(np.maximum(power_w, 1e-23) / 1.0e-3)


def dbm_to_watts(dbm: float) -> float:
    return 1.0e-3 * 10.0 ** (dbm / 10.0)


def check_band(band: Sequence[float]) -> None:
    """Refuse an inverted band (``band[0] > band[1]``) or non-finite
    endpoints with :class:`ValueError`: either would select no bin,
    which downstream code reads as "no power in band"."""
    lo, hi = float(band[0]), float(band[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            f"band endpoints must be finite, got ({band[0]!r}, {band[1]!r})"
        )
    if lo > hi:
        raise ValueError(
            f"inverted band: {lo / 1e6:.3f} MHz > {hi / 1e6:.3f} "
            f"MHz (need band[0] <= band[1])"
        )


@dataclass
class SpectrumTrace:
    """One displayed sweep: bin centers and per-bin power."""

    frequencies_hz: np.ndarray
    power_dbm: np.ndarray

    def peak(
        self, band: Optional[Sequence[float]] = None
    ) -> Tuple[float, float]:
        """(frequency_hz, dbm) of the peak marker, optionally banded."""
        freqs, dbm = self.frequencies_hz, self.power_dbm
        if band is not None:
            check_band(band)
            mask = (freqs >= band[0]) & (freqs <= band[1])
            if not mask.any():
                raise ValueError(f"no bins inside band {band}")
            freqs, dbm = freqs[mask], dbm[mask]
        idx = int(np.argmax(dbm))
        return float(freqs[idx]), float(dbm[idx])

    def power_at(self, frequency_hz: float) -> float:
        """Displayed power (dBm) of the bin containing ``frequency_hz``.

        Raises :class:`ValueError` when ``frequency_hz`` falls outside
        the trace's bin range (beyond half a bin past the outer
        centers): the nearest-bin readout would otherwise silently
        report an unrelated frequency.
        """
        freqs = self.frequencies_hz
        if freqs.size == 0:
            raise ValueError("empty trace has no bins")
        half_step = (
            (freqs[-1] - freqs[0]) / (2.0 * (freqs.size - 1))
            if freqs.size > 1
            else 0.0
        )
        if not (
            freqs[0] - half_step <= frequency_hz <= freqs[-1] + half_step
        ):
            raise ValueError(
                f"frequency {frequency_hz / 1e6:.3f} MHz outside trace "
                f"span {freqs[0] / 1e6:.3f}-{freqs[-1] / 1e6:.3f} MHz"
            )
        idx = int(np.argmin(np.abs(freqs - frequency_hz)))
        return float(self.power_dbm[idx])


@dataclass
class SpectrumAnalyzer:
    """Swept analyzer receiving through an antenna at some distance.

    Parameters mirror front-panel settings: span via ``start_hz`` /
    ``stop_hz`` and ``rbw_hz``.  The receive chain is
    ``emission -> near-field coupling -> antenna response -> 50-ohm
    port power``.
    """

    start_hz: float = 50.0e6
    stop_hz: float = 200.0e6
    rbw_hz: float = 100.0e3
    dwell_s_per_bin: float = 4.0e-4
    antenna: SquareLoopAntenna = field(default_factory=SquareLoopAntenna)
    coupling: NearFieldCoupling = field(default_factory=NearFieldCoupling)
    environment: AmbientEnvironment = field(
        default_factory=AmbientEnvironment
    )
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    def __post_init__(self) -> None:
        for name in ("start_hz", "stop_hz", "rbw_hz"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        dwell = self.dwell_s_per_bin
        if not (np.isfinite(dwell) and dwell >= 0.0):
            raise ValueError(
                f"dwell_s_per_bin must be finite and non-negative, got {dwell}"
            )
        if self.stop_hz <= self.start_hz:
            raise ValueError("stop frequency must exceed start frequency")
        if self.rbw_hz <= 0.0:
            raise ValueError("RBW must be positive")
        # Accumulated (simulated) measurement wall time.  The paper's
        # GA is bound by instrument latency (~18 s per 30-sample
        # measurement over the full 150 MHz span), which is why
        # Section 5.3(b) proposes narrowing the measured band.
        self.total_measurement_time_s = 0.0
        self._bin_cache: dict = {}

    def _settings_key(self) -> Tuple[float, float, float]:
        return (self.start_hz, self.stop_hz, self.rbw_hz)

    def bin_centers(self) -> np.ndarray:
        """Bin-center grid for the present span settings (memoized)."""
        key = self._settings_key()
        centers = self._bin_cache.get(key)
        if centers is None:
            n = max(
                2, int(round((self.stop_hz - self.start_hz) / self.rbw_hz))
            )
            centers = self.start_hz + (np.arange(n) + 0.5) * (
                (self.stop_hz - self.start_hz) / n
            )
            self._bin_cache[key] = centers
        return centers

    def band_mask(self, band: Sequence[float]) -> np.ndarray:
        """Boolean mask of the bins whose centers lie inside ``band``.

        Raises :class:`ValueError` for an inverted band or non-finite
        endpoints (:func:`check_band`), mirroring the
        :meth:`SpectrumTrace.power_at` out-of-span contract.
        """
        check_band(band)
        centers = self.bin_centers()
        return (centers >= band[0]) & (centers <= band[1])

    # ------------------------------------------------------------------
    def banded_lines(self, emission: EmissionSpectrum) -> EmissionSpectrum:
        """Emission lines close enough to the span to land in a bin."""
        return emission.band(
            self.start_hz - 4.0 * self.rbw_hz,
            self.stop_hz + 4.0 * self.rbw_hz,
        )

    def line_gains(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Coupling x antenna amplitude gain per emission line."""
        return self.coupling.gain() * self.antenna.response(frequencies_hz)

    def received_power_w(self, emission: EmissionSpectrum) -> np.ndarray:
        """Noiseless per-bin signal power for an emission spectrum.

        Each line spreads through the Gaussian RBW filter, normalized
        to unit total weight over the span.  Only bins within
        :data:`RBW_REACH_SIGMAS` filter sigmas of a line can receive a
        nonzero weight, so each line's weights are evaluated on that
        window alone, and its total is the sum of the window placed in
        an otherwise zero full-span row: the same bits as evaluating
        every bin, because numpy's pairwise row sum depends only on
        the element positions and the weights outside the window are
        exactly 0.0.  Lines go in blocks of :data:`LINE_BLOCK`, and
        their contributions add into the bins in line order.
        """
        centers = self.bin_centers()
        power = np.zeros_like(centers)
        lines = self.banded_lines(emission)
        freqs = lines.frequencies_hz
        if freqs.size == 0:
            return power
        v_rx = lines.amplitudes * self.line_gains(freqs)
        p_lines = v_rx * v_rx / (2.0 * _PORT_OHMS)
        sigma = self.rbw_hz / 2.355  # FWHM = RBW
        bins = centers.size
        step = (self.stop_hz - self.start_hz) / bins
        # One spare bin beyond the reach on each side of the line's bin.
        half = int(np.ceil(RBW_REACH_SIGMAS * sigma / step)) + 1
        width = min(bins, 2 * half + 1)
        offsets = np.arange(width)
        for lo in range(0, freqs.size, LINE_BLOCK):
            f = freqs[lo:lo + LINE_BLOCK, None]
            first = np.floor((f - self.start_hz) / step) - half
            cols = np.clip(first, 0, bins - width).astype(np.intp) + offsets
            w = np.exp(-0.5 * ((centers[cols] - f) / sigma) ** 2)
            padded = np.zeros((f.shape[0], bins))
            padded[np.arange(f.shape[0])[:, None], cols] = w
            total = np.add.reduce(padded, axis=1)
            keep = total > 0.0
            p = p_lines[lo:lo + LINE_BLOCK][keep, None]
            np.add.at(power, cols[keep], p * w[keep] / total[keep, None])
        return power

    def sweep_time_s(
        self, band: Optional[Sequence[float]] = None
    ) -> float:
        """Wall time of one sweep over ``band`` (default: full span)."""
        if band is None:
            bins = self.bin_centers().size
        else:
            bins = int(self.band_mask(band).sum())
        return bins * self.dwell_s_per_bin

    def trace_from_power(self, signal_w: np.ndarray) -> SpectrumTrace:
        """One displayed sweep from precomputed per-bin signal power.

        Adds a fresh noise-floor realization (advancing the analyzer
        RNG exactly as :meth:`sweep` would) and accounts the sweep's
        dwell time.
        """
        centers = self.bin_centers()
        noise = self.environment.sample_noise_w(centers.shape, self.rng)
        self.total_measurement_time_s += self.sweep_time_s()
        return SpectrumTrace(centers, watts_to_dbm(signal_w + noise))

    def sweep(self, emission: EmissionSpectrum) -> SpectrumTrace:
        """One sweep: signal power plus a fresh noise-floor realization."""
        return self.trace_from_power(self.received_power_w(emission))

    def max_amplitude_from_power(
        self,
        signal_w: np.ndarray,
        band: Optional[Sequence[float]] = None,
        samples: int = 30,
    ) -> float:
        """RMS-of-``samples`` band maximum from precomputed signal power.

        The noise draws and time accounting are identical to
        :meth:`max_amplitude`; splitting the deterministic propagation
        (:meth:`received_power_w`) from the noisy readout lets the chain
        layer compute the signal once per item and reuse it for both
        the amplitude metric and the displayed trace.

        All ``samples`` sweeps of the band are drawn as one
        ``(samples, bins)`` block of standard normals, which fills row
        by row: the same values, and the same final analyzer RNG state,
        as one draw per sweep.  Only the bins where some sweep's
        maximum can land are converted to watts
        (:meth:`~repro.em.propagation.AmbientEnvironment.noise_w`).
        Every sweep reaches at least ``reach`` at the strongest bin,
        and no bin's noise exceeds ``ceiling``, the noise of the
        block's largest draw, because the map is non-decreasing in the
        draw; a bin whose signal plus ``ceiling`` stays below
        ``reach`` is never any sweep's maximum, so dropping it leaves
        every maximum's bits unchanged.  Both bounds are widened by
        :data:`BOUND_SLACK`, and a NaN bin always stays.
        """
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        band = band or (self.start_hz, self.stop_hz)
        mask = self.band_mask(band)
        if not mask.any():
            raise ValueError(f"no bins inside band {band}")
        signal = signal_w[mask]
        normals = self.rng.standard_normal((samples, signal.size))
        noise_w = self.environment.noise_w
        strongest = int(np.argmax(signal))
        reach = np.min(signal[strongest] + noise_w(normals[:, strongest]))
        # Lowered whatever its sign; an infinite reach stays infinite.
        reach = min(reach * (1.0 - BOUND_SLACK), reach * (1.0 + BOUND_SLACK))
        ceiling = noise_w(normals.max()) * (1.0 + BOUND_SLACK)
        keep = ~(signal + ceiling < reach)
        noise = noise_w(np.compress(keep, normals, axis=1))
        maxima = np.max(signal[keep] + noise, axis=1)
        # A banded measurement only dwells on the requested bins: the
        # same bits as ``samples * self.sweep_time_s(band)``.
        self.total_measurement_time_s += samples * (
            int(mask.sum()) * self.dwell_s_per_bin
        )
        return float(np.sqrt(np.mean(maxima**2)))

    def max_amplitude(
        self,
        emission: EmissionSpectrum,
        band: Optional[Sequence[float]] = None,
        samples: int = 30,
    ) -> float:
        """The paper's GA metric: RMS over ``samples`` sweeps of the band max.

        Returned in linear power units (watts); use
        :func:`watts_to_dbm` for display.  The RMS-of-30 averaging is
        what makes the metric stable enough to drive the GA.
        """
        return self.max_amplitude_from_power(
            self.received_power_w(emission), band=band, samples=samples
        )

    def max_amplitude_dbm(
        self,
        emission: EmissionSpectrum,
        band: Optional[Sequence[float]] = None,
        samples: int = 30,
    ) -> float:
        return float(
            watts_to_dbm(np.array(self.max_amplitude(emission, band, samples)))
        )
