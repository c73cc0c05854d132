"""Swept spectrum analyzer model.

Models the essentials the methodology depends on: a start/stop span
divided into RBW-wide bins, emission lines landing in bins through a
Gaussian resolution filter, a noise floor with sweep-to-sweep spread,
power readout in dBm, peak markers, and the paper's fitness metric --
the root-mean-square of the band maximum over 30 sweeps (Section 3.1b).

Both readout kernels take a whole batch of items at once and are exact
rewrites of the plain per-line and per-sweep loops (kept as the
reference in ``tests/instruments/analyzer_reference.py``):
:meth:`SpectrumAnalyzer.spread_lines` evaluates the RBW filter only
within :data:`RBW_REACH_SIGMAS` of each line, for the lines of every
item together, and :meth:`SpectrumAnalyzer.readout` draws the noise of
a chunk of items as one block, converting the RMS-of-N draws to watts
only in the bins where some sweep's maximum can land.  The one-item
methods (:meth:`~SpectrumAnalyzer.received_power_w`,
:meth:`~SpectrumAnalyzer.max_amplitude_from_power`,
:meth:`~SpectrumAnalyzer.trace_from_power` and the helpers built on
them) are one-row calls of the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.em.antenna import SquareLoopAntenna
from repro.em.propagation import AmbientEnvironment, NearFieldCoupling
from repro.em.radiation import EmissionSpectrum
from repro.obs.timing import timed_kernel

_PORT_OHMS = 50.0

#: Reach of the Gaussian RBW filter, in filter sigmas.  Beyond ~38.6
#: sigmas ``np.exp(-0.5 * x**2)`` underflows to exactly 0.0 in float64,
#: so no bin farther than this from a line receives any of its power.
RBW_REACH_SIGMAS = 40.0

#: Emission lines spread per pass of :meth:`SpectrumAnalyzer.spread_lines`.
#: Each pass holds a few ``(LINE_BLOCK, bins)`` arrays, however many
#: lines a batch of jittered traces puts in the span.
LINE_BLOCK = 32

#: Bytes of standard-normal draws one pass of
#: :meth:`SpectrumAnalyzer.readout` holds.  A pass draws for as many
#: whole items as fit (at least one), so the readout's memory stays
#: bounded however many items a batch has.
DRAW_BLOCK_BYTES = 1 << 20

#: Relative widening of the two bounds that decide which bins of an
#: RMS-of-N readout can hold a sweep maximum (see
#: :meth:`SpectrumAnalyzer.readout`).  It covers any last-bit
#: difference between converting one draw and a block of them.
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


def check_span(start_hz: float, stop_hz: float, rbw_hz: float) -> None:
    """Refuse span settings a sweep cannot use with :class:`ValueError`:
    a non-finite setting, a stop at or below the start, or an RBW that
    is not positive."""
    for name, value in (
        ("start_hz", start_hz),
        ("stop_hz", stop_hz),
        ("rbw_hz", rbw_hz),
    ):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if stop_hz <= start_hz:
        raise ValueError("stop frequency must exceed start frequency")
    if rbw_hz <= 0.0:
        raise ValueError("RBW must be positive")


def peak_markers(
    frequencies_hz: np.ndarray,
    power_dbm: np.ndarray,
    band: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(frequency_hz, dbm) of the peak marker of every row of
    ``power_dbm`` (one displayed sweep per row over the bins at
    ``frequencies_hz``), optionally banded.

    Each marker is the first strongest bin, as ``np.argmax`` picks it.
    Raises :class:`ValueError` for a bad band (:func:`check_band`) or
    one that holds no bin.
    """
    if band is not None:
        check_band(band)
        mask = (frequencies_hz >= band[0]) & (frequencies_hz <= band[1])
        if not mask.any():
            raise ValueError(f"no bins inside band {band}")
        frequencies_hz, power_dbm = frequencies_hz[mask], power_dbm[:, mask]
    idx = np.argmax(power_dbm, axis=1)
    return frequencies_hz[idx], power_dbm[np.arange(idx.size), idx]


@dataclass
class SpectrumTrace:
    """One displayed sweep: bin centers and per-bin power."""

    frequencies_hz: np.ndarray
    power_dbm: np.ndarray

    def peak(
        self, band: Optional[Sequence[float]] = None
    ) -> Tuple[float, float]:
        """(frequency_hz, dbm) of the peak marker, optionally banded:
        the one-row call of :func:`peak_markers`."""
        freqs, dbm = peak_markers(
            self.frequencies_hz, self.power_dbm[None], band
        )
        return float(freqs[0]), float(dbm[0])

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
        check_span(self.start_hz, self.stop_hz, self.rbw_hz)
        dwell = self.dwell_s_per_bin
        if not (np.isfinite(dwell) and dwell >= 0.0):
            raise ValueError(
                f"dwell_s_per_bin must be finite and non-negative, got {dwell}"
            )
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
    def line_gains(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Coupling x antenna amplitude gain per emission line."""
        return self.coupling.gain() * self.antenna.response(frequencies_hz)

    @timed_kernel("analyzer.propagate")
    def spread_lines(
        self, emissions: Sequence[EmissionSpectrum]
    ) -> np.ndarray:
        """Noiseless per-bin signal power, one row per emission spectrum.

        The lines close enough to the span to land in a bin (within 4
        RBWs of its edges) spread through the Gaussian RBW filter,
        each normalized to unit total weight over the span.  Only bins
        within :data:`RBW_REACH_SIGMAS` filter sigmas of a line can
        receive a nonzero weight, so each line's weights are evaluated
        on that window alone, and its total is the sum of the window
        placed in an otherwise zero full-span row: the same bits as
        evaluating every bin, because numpy's pairwise row sum depends
        only on the element positions and the weights outside the
        window are exactly 0.0.  The lines of every spectrum go
        through together, :data:`LINE_BLOCK` at a time, and one
        ``np.add.at`` per block adds them into their (row, bin)
        pairs; a bin of a row receives its lines in line order, as
        one spectrum spread alone would.
        """
        centers = self.bin_centers()
        bins = centers.size
        power = np.zeros((len(emissions), bins))
        freqs = np.concatenate([e.frequencies_hz for e in emissions])
        amps = np.concatenate([e.amplitudes for e in emissions])
        rows = np.repeat(
            np.arange(len(emissions)),
            [e.frequencies_hz.size for e in emissions],
        )
        inside = (freqs >= self.start_hz - 4.0 * self.rbw_hz) & (
            freqs <= self.stop_hz + 4.0 * self.rbw_hz
        )
        freqs, amps, rows = freqs[inside], amps[inside], rows[inside]
        v_rx = amps * self.line_gains(freqs)
        p_lines = v_rx * v_rx / (2.0 * _PORT_OHMS)
        sigma = self.rbw_hz / 2.355  # FWHM = RBW
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
            np.add.at(
                power,
                (rows[lo:lo + LINE_BLOCK][keep, None], cols[keep]),
                p * w[keep] / total[keep, None],
            )
        return power

    def received_power_w(self, emission: EmissionSpectrum) -> np.ndarray:
        """Noiseless per-bin signal power for an emission spectrum: the
        one-row call of :meth:`spread_lines`."""
        return self.spread_lines([emission])[0]

    def sweep_time_s(
        self, band: Optional[Sequence[float]] = None
    ) -> float:
        """Wall time of one sweep over ``band`` (default: full span)."""
        if band is None:
            bins = self.bin_centers().size
        else:
            bins = int(self.band_mask(band).sum())
        return bins * self.dwell_s_per_bin

    @timed_kernel("analyzer.readout")
    def readout(
        self,
        signal_w: np.ndarray,
        band: Optional[Sequence[float]] = None,
        samples: int = 30,
        amplitude: bool = True,
        trace: bool = True,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Noisy readout of every row of ``signal_w`` (per-bin signal
        power, one item per row): ``(amplitudes_w, power_dbm)``.

        With ``amplitude``, each item's RMS-of-``samples`` band maximum
        (the paper's GA metric); with ``trace``, each item's displayed
        full-span sweep in dBm, one row per item.  The part not asked
        for is ``None`` and draws nothing.  A bad ``band`` (see
        :meth:`band_mask`) or one holding no bin raises before any
        draw, also for a trace alone.

        The draws advance the analyzer RNG exactly as a loop over the
        items would: per item, ``samples`` sweeps of the band, then
        the trace sweep.  Standard normals fill a block in C order,
        so one ``(items, draws)`` block holds the same values, and
        leaves the same RNG state, as those draws one sweep at a time;
        a pass draws such a block for as many items as fit in
        :data:`DRAW_BLOCK_BYTES`.

        Only the band bins where some sweep's maximum can land are
        converted to watts
        (:meth:`~repro.em.propagation.AmbientEnvironment.noise_w`).
        Every sweep of an item reaches at least ``reach`` at its
        strongest bin, and no bin's noise exceeds ``ceiling``, the
        noise of the item's largest draw, because the map is
        non-decreasing in the draw; a bin whose signal plus
        ``ceiling`` stays below ``reach`` is never any sweep's
        maximum, so dropping it leaves every maximum's bits unchanged.
        Both bounds are widened by :data:`BOUND_SLACK`, and a NaN bin
        always stays.  The dwell time adds into
        :attr:`total_measurement_time_s` item by item, in draw order.
        """
        signal_w = np.asarray(signal_w, dtype=float)
        items, bins = signal_w.shape
        if amplitude and samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        band_draws = banded = 0
        if amplitude or band is not None:
            # A bad band is refused before anything is drawn.
            band = band or (self.start_hz, self.stop_hz)
            mask = self.band_mask(band)
            if not mask.any():
                raise ValueError(f"no bins inside band {band}")
            # The bin centers rise, so the band's bins are one run.
            banded = int(mask.sum())
            first = int(np.argmax(mask))
            in_band = slice(first, first + banded)
        if amplitude:
            band_draws = samples * banded
        draws = band_draws + (bins if trace else 0)
        amplitudes = np.empty(items) if amplitude else None
        power_dbm = np.empty((items, bins)) if trace else None
        if draws == 0:
            return amplitudes, power_dbm
        noise_w = self.environment.noise_w
        chunk = max(1, DRAW_BLOCK_BYTES // (8 * draws))
        for lo in range(0, items, chunk):
            hi = min(lo + chunk, items)
            normals = self.rng.standard_normal((hi - lo, draws))
            if amplitude:
                amplitudes[lo:hi] = self._band_maxima_rms(
                    signal_w[lo:hi, in_band],
                    normals[:, :band_draws].reshape(hi - lo, samples, banded),
                )
            if trace:
                power_dbm[lo:hi] = watts_to_dbm(
                    signal_w[lo:hi] + noise_w(normals[:, band_draws:])
                )
        # A banded measurement only dwells on the requested bins: the
        # same bits as ``samples * self.sweep_time_s(band)``.
        band_time = samples * (banded * self.dwell_s_per_bin)
        sweep_time = bins * self.dwell_s_per_bin
        elapsed = self.total_measurement_time_s
        for _ in range(items):
            if amplitude:
                elapsed += band_time
            if trace:
                elapsed += sweep_time
        self.total_measurement_time_s = elapsed
        return amplitudes, power_dbm

    def _band_maxima_rms(
        self, signal: np.ndarray, normals: np.ndarray
    ) -> np.ndarray:
        """RMS over sweeps of each item's band maximum: ``signal`` is
        ``(items, band bins)``, ``normals`` ``(items, sweeps, band
        bins)``; see :meth:`readout` for the bounds."""
        noise_w = self.environment.noise_w
        rows = np.arange(signal.shape[0])
        strongest = np.argmax(signal, axis=1)
        reach = np.min(
            signal[rows, strongest][:, None]
            + noise_w(normals[rows, :, strongest]),
            axis=1,
        )
        # Lowered whatever its sign; an infinite reach stays infinite.
        reach = np.minimum(
            reach * (1.0 - BOUND_SLACK), reach * (1.0 + BOUND_SLACK)
        )
        ceiling = noise_w(normals.max(axis=(1, 2))) * (1.0 + BOUND_SLACK)
        # Each item keeps at least its strongest bin, so its kept bins
        # form one nonempty run of ``item``.
        item, col = np.nonzero(~(signal + ceiling[:, None] < reach[:, None]))
        runs = np.flatnonzero(np.diff(item, prepend=-1))
        maxima = np.maximum.reduceat(
            signal[item, col][:, None] + noise_w(normals[item, :, col]),
            runs,
        )
        return np.sqrt(np.mean(maxima**2, axis=1))

    def trace_from_power(self, signal_w: np.ndarray) -> SpectrumTrace:
        """One displayed sweep from precomputed per-bin signal power:
        the one-row trace call of :meth:`readout`, which adds a fresh
        noise-floor realization and accounts the sweep's dwell time."""
        _, power_dbm = self.readout(signal_w[None], amplitude=False)
        return SpectrumTrace(self.bin_centers(), power_dbm[0])

    def sweep(self, emission: EmissionSpectrum) -> SpectrumTrace:
        """One sweep: signal power plus a fresh noise-floor realization."""
        return self.trace_from_power(self.received_power_w(emission))

    def max_amplitude_from_power(
        self,
        signal_w: np.ndarray,
        band: Optional[Sequence[float]] = None,
        samples: int = 30,
    ) -> float:
        """RMS-of-``samples`` band maximum from precomputed signal power:
        the one-row amplitude call of :meth:`readout`.

        The noise draws and time accounting are identical to
        :meth:`max_amplitude`; splitting the deterministic propagation
        (:meth:`received_power_w`) from the noisy readout lets the chain
        layer compute the signal once per item and reuse it for both
        the amplitude metric and the displayed trace.
        """
        amplitudes, _ = self.readout(
            signal_w[None], band=band, samples=samples, trace=False
        )
        return float(amplitudes[0])

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
