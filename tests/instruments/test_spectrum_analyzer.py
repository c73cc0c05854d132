"""Unit tests for the spectrum analyzer model."""

import tracemalloc

import numpy as np
import pytest

from repro.em.propagation import AmbientEnvironment
from repro.em.radiation import EmissionSpectrum
from repro.instruments.spectrum_analyzer import (
    LINE_BLOCK,
    RBW_REACH_SIGMAS,
    SpectrumAnalyzer,
    SpectrumTrace,
    dbm_to_watts,
    watts_to_dbm,
)


def analyzer(seed=0, **kwargs):
    return SpectrumAnalyzer(rng=np.random.default_rng(seed), **kwargs)


def single_line(freq=100e6, amp=1e-3):
    return EmissionSpectrum(np.array([freq]), np.array([amp]))


class TestUnits:
    def test_dbm_round_trip(self):
        assert dbm_to_watts(float(watts_to_dbm(np.array(1e-6)))) == (
            pytest.approx(1e-6)
        )

    def test_zero_watts_clamped(self):
        assert watts_to_dbm(np.array(0.0)) > -210.0


class TestConfiguration:
    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            analyzer(start_hz=200e6, stop_hz=100e6)

    def test_invalid_rbw_rejected(self):
        with pytest.raises(ValueError):
            analyzer(rbw_hz=0.0)

    @pytest.mark.parametrize("name", ["start_hz", "stop_hz", "rbw_hz"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            analyzer(**{name: value})

    @pytest.mark.parametrize("dwell", [-1.0, np.nan, np.inf])
    def test_bad_dwell_rejected(self, dwell):
        with pytest.raises(ValueError, match="dwell_s_per_bin"):
            analyzer(dwell_s_per_bin=dwell)

    def test_zero_dwell_allowed(self):
        sa = analyzer(dwell_s_per_bin=0.0)
        sa.max_amplitude(single_line(), samples=2)
        assert sa.total_measurement_time_s == 0.0

    def test_bin_centers_cover_span(self):
        sa = analyzer()
        centers = sa.bin_centers()
        assert centers[0] >= sa.start_hz
        assert centers[-1] <= sa.stop_hz
        assert centers.size == pytest.approx(
            (sa.stop_hz - sa.start_hz) / sa.rbw_hz, abs=1
        )


class TestSweep:
    def test_line_appears_at_correct_bin(self):
        sa = analyzer()
        trace = sa.sweep(single_line(freq=100e6))
        peak_f, peak_dbm = trace.peak()
        assert peak_f == pytest.approx(100e6, abs=2 * sa.rbw_hz)
        assert peak_dbm > -60.0

    def test_no_emission_shows_noise_floor(self):
        sa = analyzer()
        trace = sa.sweep(EmissionSpectrum(np.empty(0), np.empty(0)))
        floor = sa.environment.noise_floor_dbm
        assert np.median(trace.power_dbm) == pytest.approx(floor, abs=2.0)

    def test_out_of_span_line_ignored(self):
        sa = analyzer()
        trace = sa.sweep(single_line(freq=1e9))
        assert trace.power_dbm.max() < -80.0

    def test_power_at_lookup(self):
        sa = analyzer()
        trace = sa.sweep(single_line(freq=120e6))
        assert trace.power_at(120e6) == pytest.approx(
            trace.peak()[1], abs=3.0
        )

    def test_power_at_outside_span_raises(self):
        sa = analyzer()
        trace = sa.sweep(single_line(freq=120e6))
        with pytest.raises(ValueError, match="outside trace"):
            trace.power_at(sa.stop_hz + 10 * sa.rbw_hz)
        with pytest.raises(ValueError, match="outside trace"):
            trace.power_at(sa.start_hz - 10 * sa.rbw_hz)

    def test_power_at_empty_trace_raises(self):
        trace = SpectrumTrace(np.empty(0), np.empty(0))
        with pytest.raises(ValueError, match="empty trace"):
            trace.power_at(100e6)

    def test_banded_peak(self):
        sa = analyzer()
        two = EmissionSpectrum(
            np.array([60e6, 150e6]), np.array([1e-3, 2e-3])
        )
        trace = sa.sweep(two)
        f_low, _ = trace.peak(band=(50e6, 100e6))
        assert f_low == pytest.approx(60e6, abs=2 * sa.rbw_hz)
        with pytest.raises(ValueError):
            trace.peak(band=(300e6, 400e6))


class TestReceivedPower:
    def test_reach_underflows_the_filter_to_zero(self):
        assert np.exp(-0.5 * RBW_REACH_SIGMAS**2) == 0.0

    def test_line_power_is_conserved(self):
        sa = analyzer()
        line = single_line(freq=123.4e6)
        (v,) = line.amplitudes * sa.line_gains(line.frequencies_hz)
        assert sa.received_power_w(line).sum() == pytest.approx(
            v * v / 100.0, rel=1e-12
        )

    def test_memory_stays_within_a_few_line_blocks(self):
        """A long jittered emission is spread block by block: the peak
        allocation is a few (LINE_BLOCK x bins) arrays, not one row
        per line."""
        sa = analyzer()
        bins = sa.bin_centers().size
        lines = 2000
        emission = EmissionSpectrum(
            np.linspace(sa.start_hz, sa.stop_hz, lines),
            np.full(lines, 1e-3),
        )
        sa.received_power_w(emission)  # warm the bin-center cache
        tracemalloc.start()
        try:
            sa.received_power_w(emission)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = LINE_BLOCK * bins * 8
        assert lines > 10 * LINE_BLOCK
        assert peak < 3 * block_bytes


BAD_BANDS = [
    ((200.0e6, 50.0e6), "inverted band"),
    ((float("nan"), 80.0e6), "finite"),
]


class TestBandMask:
    """band_mask must reject bands that would silently mask nothing,
    and every readout that takes a band checks it the same way."""

    def setup_method(self):
        self.analyzer = analyzer()

    def test_inverted_band_raises(self):
        with pytest.raises(ValueError, match="inverted band"):
            self.analyzer.band_mask((200.0e6, 50.0e6))

    @pytest.mark.parametrize(
        "band",
        [
            (float("nan"), 200.0e6),
            (50.0e6, float("nan")),
            (float("nan"), float("nan")),
            (float("inf"), 200.0e6),
            (50.0e6, float("-inf")),
        ],
    )
    def test_non_finite_endpoints_raise(self, band):
        with pytest.raises(ValueError, match="finite"):
            self.analyzer.band_mask(band)

    def test_valid_band_unchanged(self):
        mask = self.analyzer.band_mask((60.0e6, 80.0e6))
        centers = self.analyzer.bin_centers()
        np.testing.assert_array_equal(
            mask, (centers >= 60.0e6) & (centers <= 80.0e6)
        )
        assert mask.any()

    def test_degenerate_equal_endpoints_allowed(self):
        # lo == hi is a legal (if narrow) band, not an inversion.
        mask = self.analyzer.band_mask((70.0e6, 70.0e6))
        assert mask.sum() <= 1

    @pytest.mark.parametrize(
        "band, message", BAD_BANDS, ids=["inverted", "nan"]
    )
    def test_sweep_time_refuses_bad_band(self, band, message):
        with pytest.raises(ValueError, match=message):
            self.analyzer.sweep_time_s(band)

    @pytest.mark.parametrize(
        "band, message", BAD_BANDS, ids=["inverted", "nan"]
    )
    def test_trace_peak_refuses_bad_band(self, band, message):
        trace = self.analyzer.sweep(single_line(freq=70e6))
        with pytest.raises(ValueError, match=message):
            trace.peak(band)

    @pytest.mark.parametrize(
        "band, message", BAD_BANDS, ids=["inverted", "nan"]
    )
    def test_max_amplitude_refuses_bad_band(self, band, message):
        sa = self.analyzer
        signal = sa.received_power_w(single_line())
        state = sa.rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            sa.max_amplitude_from_power(signal, band=band, samples=2)
        # Refused before any draw or time accounting.
        assert sa.rng.bit_generator.state == state
        assert sa.total_measurement_time_s == 0.0


class TestMaxAmplitude:
    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        sa = analyzer()
        signal = sa.received_power_w(single_line())
        with pytest.raises(ValueError, match="samples must be at least 1"):
            sa.max_amplitude_from_power(signal, samples=samples)

    def test_stronger_line_scores_higher(self):
        sa = analyzer()
        weak = sa.max_amplitude(single_line(amp=0.5e-3), samples=10)
        strong = sa.max_amplitude(single_line(amp=2e-3), samples=10)
        assert strong > weak

    def test_rms_metric_is_stable(self):
        """30-sample RMS varies far less than single sweeps."""
        sa = analyzer()
        emission = single_line(amp=0.2e-4)
        singles = [
            sa.max_amplitude(emission, samples=1) for _ in range(20)
        ]
        rms30 = [
            sa.max_amplitude(emission, samples=30) for _ in range(20)
        ]
        assert np.std(rms30) < np.std(singles)

    def test_quadratic_in_field_amplitude(self):
        """Power metric scales with the square of the field (Section 2.2)."""
        sa = analyzer(environment=AmbientEnvironment(noise_floor_dbm=-160))
        p1 = sa.max_amplitude(single_line(amp=1e-3), samples=4)
        p2 = sa.max_amplitude(single_line(amp=2e-3), samples=4)
        assert p2 / p1 == pytest.approx(4.0, rel=0.01)

    def test_band_without_bins_rejected(self):
        sa = analyzer()
        with pytest.raises(ValueError):
            sa.max_amplitude(single_line(), band=(1e9, 2e9))

    def test_dbm_variant_consistent(self):
        sa = analyzer()
        emission = single_line()
        w = sa.max_amplitude(emission, samples=5)
        db = sa.max_amplitude_dbm(emission, samples=5)
        assert db == pytest.approx(float(watts_to_dbm(np.array(w))), abs=1.5)


class TestMeasurementTimeAccounting:
    def test_sweep_time_proportional_to_bins(self):
        sa = analyzer()
        full = sa.sweep_time_s()
        narrow = sa.sweep_time_s(band=(60e6, 75e6))
        assert narrow < 0.2 * full
        assert full == pytest.approx(
            sa.bin_centers().size * sa.dwell_s_per_bin
        )

    def test_max_amplitude_accumulates_time(self):
        sa = analyzer()
        sa.max_amplitude(single_line(), samples=30)
        full_each = sa.sweep_time_s()
        assert sa.total_measurement_time_s == pytest.approx(
            30 * full_each
        )

    def test_banded_measurement_is_cheaper(self):
        sa_full = analyzer()
        sa_full.max_amplitude(single_line(), samples=10)
        sa_band = analyzer()
        sa_band.max_amplitude(
            single_line(), band=(90e6, 110e6), samples=10
        )
        assert sa_band.total_measurement_time_s < (
            0.3 * sa_full.total_measurement_time_s
        )

    def test_paper_scale_measurement_latency(self):
        """Full-span 30-sample measurement costs ~18 s (Section 3.2)."""
        sa = analyzer()
        sa.max_amplitude(single_line(), samples=30)
        assert 10.0 < sa.total_measurement_time_s < 30.0
