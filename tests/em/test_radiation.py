"""Unit tests for the radiated-emission model."""

import numpy as np
import pytest

from repro.em.radiation import (
    DieRadiator,
    EmissionSpectrum,
    combine_emissions,
    strongest_lines,
)
from repro.pdn.models import PDNModel, CORTEX_A72_PDN


@pytest.fixture(scope="module")
def resonant_response():
    """PDN response to a square wave pulsing at the 67 MHz resonance."""
    solver = PDNModel(CORTEX_A72_PDN).solver(2)
    n = 64
    wave = np.where(np.arange(n) < n // 2, 1.5, 0.5)
    return solver.solve(wave, n * 67e6)


class TestEmissionSpectrum:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmissionSpectrum(np.array([1.0, 2.0]), np.array([1.0]))

    def test_band_filters_lines(self):
        s = EmissionSpectrum(
            np.array([10e6, 60e6, 150e6]), np.array([1.0, 2.0, 3.0])
        )
        banded = s.band(50e6, 100e6)
        assert list(banded.frequencies_hz) == [60e6]

    def test_peak_returns_strongest_line(self):
        s = EmissionSpectrum(
            np.array([10e6, 60e6]), np.array([1.0, 2.0])
        )
        f, a = s.peak()
        assert f == 60e6 and a == 2.0

    def test_empty_peak_is_zero(self):
        s = EmissionSpectrum(np.empty(0), np.empty(0))
        assert s.peak() == (0.0, 0.0)

    def test_strongest_lines_pick_each_banded_argmax(self):
        """Over a batch, each spectrum's pick is the first strongest
        line ``np.argmax`` finds among its lines in the band, NaN
        amplitudes first, and (0.0, 0.0) without one."""
        rng = np.random.default_rng(4)
        spectra = []
        for count in (0, 1, 5, 40, 7, 3, 12):
            freqs = rng.uniform(0.0, 300e6, count)
            # Coarse amplitudes tie often; a few are NaN or infinite.
            amps = rng.integers(0, 4, count).astype(float)
            amps[rng.random(count) < 0.05] = np.nan
            amps[rng.random(count) < 0.05] = np.inf
            spectra.append(EmissionSpectrum(freqs, amps))
        spectra.append(EmissionSpectrum([60e6, 70e6], [np.nan, np.nan]))
        band = (50e6, 200e6)
        freqs, amps = strongest_lines(spectra, band)
        for s, f, a in zip(spectra, freqs, amps):
            inside = (s.frequencies_hz >= band[0]) & (
                s.frequencies_hz <= band[1]
            )
            if not inside.any():
                assert (f, a) == (0.0, 0.0)
                continue
            i = int(np.argmax(s.amplitudes[inside]))
            assert f == s.frequencies_hz[inside][i]
            np.testing.assert_array_equal(a, s.amplitudes[inside][i])


class TestDieRadiator:
    def test_no_dc_radiation(self, resonant_response):
        emission = DieRadiator().emission(resonant_response)
        assert (emission.frequencies_hz > 0).all()

    def test_quadratic_power_law(self, resonant_response):
        """Field amplitude is linear in current amplitude (power quadratic)."""
        radiator = DieRadiator()
        emission = radiator.emission(resonant_response)
        # doubling all current harmonics doubles the field
        doubled = type(resonant_response)(
            sample_rate_hz=resonant_response.sample_rate_hz,
            nominal_voltage=resonant_response.nominal_voltage,
            die_voltage=resonant_response.die_voltage,
            die_current=resonant_response.die_current,
            harmonic_frequencies_hz=(
                resonant_response.harmonic_frequencies_hz
            ),
            die_voltage_harmonics=resonant_response.die_voltage_harmonics,
            die_current_harmonics=(
                2.0 * resonant_response.die_current_harmonics
            ),
        )
        emission2 = radiator.emission(doubled)
        assert np.allclose(
            emission2.amplitudes, 2.0 * emission.amplitudes
        )

    def test_peak_lands_on_resonance(self, resonant_response):
        """Max emission in the band is at the excitation = resonance."""
        emission = DieRadiator().emission(resonant_response)
        f, _ = emission.band(50e6, 200e6).peak()
        assert f == pytest.approx(67e6, rel=0.01)

    def test_tilt_monotonic(self):
        """Equal currents at two frequencies: higher f radiates more."""
        radiator = DieRadiator(tilt_exponent=0.4)
        # craft a fake response with two equal harmonics
        from repro.pdn.steady_state import PeriodicResponse

        freqs = np.array([0.0, 50e6, 100e6])
        amps = np.array([0.0, 1.0, 1.0], dtype=complex)
        resp = PeriodicResponse(
            sample_rate_hz=1e9,
            nominal_voltage=1.0,
            die_voltage=np.ones(4),
            die_current=np.ones(4),
            harmonic_frequencies_hz=freqs,
            die_voltage_harmonics=amps,
            die_current_harmonics=amps,
        )
        emission = radiator.emission(resp)
        assert emission.amplitudes[1] > emission.amplitudes[0]


class TestCombineEmissions:
    def test_power_addition_at_same_frequency(self):
        a = EmissionSpectrum(np.array([60e6]), np.array([3.0]))
        b = EmissionSpectrum(np.array([60e6]), np.array([4.0]))
        combined = combine_emissions([a, b])
        assert combined.amplitudes[0] == pytest.approx(5.0)  # sqrt(9+16)

    def test_distinct_lines_preserved(self):
        a = EmissionSpectrum(np.array([60e6]), np.array([1.0]))
        b = EmissionSpectrum(np.array([75e6]), np.array([2.0]))
        combined = combine_emissions([a, b])
        assert list(combined.frequencies_hz) == [60e6, 75e6]
        assert list(combined.amplitudes) == [1.0, 2.0]

    def test_empty_input(self):
        combined = combine_emissions([])
        assert combined.frequencies_hz.size == 0
