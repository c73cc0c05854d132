"""Unit tests for the synthetic current load (SCL) block."""

import numpy as np
import pytest

from repro.instruments.scl import (
    SCLSweepResult,
    SyntheticCurrentLoad,
    square_wave_current,
)
from repro.pdn.models import PDNModel, CORTEX_A72_PDN


@pytest.fixture(scope="module")
def pdn():
    return PDNModel(CORTEX_A72_PDN)


class TestSquareWave:
    def test_duty_cycle(self):
        wave = square_wave_current(1.0, samples_per_period=100, duty=0.25)
        assert np.sum(wave > 0.5) == 25

    def test_baseline_offset(self):
        wave = square_wave_current(
            1.0, samples_per_period=64, baseline_a=0.5
        )
        assert wave.min() == pytest.approx(0.5)
        assert wave.max() == pytest.approx(1.5)

    def test_invalid_duty_rejected(self):
        with pytest.raises(ValueError):
            square_wave_current(1.0, duty=0.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            square_wave_current(1.0, samples_per_period=4)


class TestSCLSweep:
    def test_sweep_finds_resonance(self, pdn):
        """Fig. 8: SCL sweep peaks at the first-order resonance."""
        scl = SyntheticCurrentLoad(amplitude_a=1.0)
        freqs = np.arange(50e6, 101e6, 1e6)
        result = scl.sweep(pdn.solver(2), freqs)
        assert result.resonance_hz() == pytest.approx(67e6, abs=3e6)

    def test_single_core_resonance_higher(self, pdn):
        """Fig. 8: one powered core moves the peak to 80-86 MHz."""
        scl = SyntheticCurrentLoad(amplitude_a=1.0)
        freqs = np.arange(50e6, 121e6, 1e6)
        two = scl.sweep(pdn.solver(2), freqs).resonance_hz()
        one = scl.sweep(pdn.solver(1), freqs).resonance_hz()
        assert one > two
        assert 78e6 < one < 90e6

    def test_amplitude_scales_response(self, pdn):
        small = SyntheticCurrentLoad(amplitude_a=0.5)
        large = SyntheticCurrentLoad(amplitude_a=1.0)
        r_small = small.response_at(pdn.solver(2), 67e6)
        r_large = large.response_at(pdn.solver(2), 67e6)
        assert r_large.peak_to_peak == pytest.approx(
            2 * r_small.peak_to_peak, rel=1e-6
        )

    def test_invalid_frequency_rejected(self, pdn):
        with pytest.raises(ValueError):
            SyntheticCurrentLoad().response_at(pdn.solver(2), 0.0)

    def test_rows_export(self, pdn):
        scl = SyntheticCurrentLoad()
        result = scl.sweep(pdn.solver(2), [60e6, 67e6])
        rows = result.rows()
        assert len(rows) == 2
        assert rows[0][0] == 60e6

    def test_sweep_is_one_batch_with_response_at_bits(self, pdn):
        """One batched solve gives every point the bits of a one-row
        ``response_at`` call, and folds one grid per frequency."""
        scl = SyntheticCurrentLoad(amplitude_a=0.8, duty=0.3)
        solver = pdn.solver(2)
        freqs = [41.5e6, 60e6, 67e6, 67e6, 93.25e6, 140e6]
        before = solver.tf_analyses
        result = scl.sweep(solver, freqs)
        assert solver.tf_analyses - before == len(freqs)
        for f, p2p in zip(freqs, result.peak_to_peak_v):
            assert p2p == scl.response_at(solver, f).peak_to_peak

    @pytest.mark.parametrize("bad", [0.0, -5e6, float("nan"), float("inf")])
    def test_sweep_refuses_bad_frequency_before_any_solve(self, pdn, bad):
        solver = pdn.solver(2)
        before = solver.tf_analyses
        with pytest.raises(ValueError, match="finite and positive"):
            SyntheticCurrentLoad().sweep(solver, [60e6, bad, 70e6])
        assert solver.tf_analyses == before

    def test_empty_sweep(self, pdn):
        result = SyntheticCurrentLoad().sweep(pdn.solver(2), [])
        assert result.frequencies_hz.size == result.peak_to_peak_v.size == 0
