"""Unit tests for the periodic steady-state solver."""

import numpy as np
import pytest

from repro.pdn.models import PDNModel, CORTEX_A72_PDN
from repro.pdn.steady_state import SteadyStateSolver


@pytest.fixture(scope="module")
def solver():
    return PDNModel(CORTEX_A72_PDN).solver(2)


class TestSolveBasics:
    def test_rejects_bad_input(self, solver):
        with pytest.raises(ValueError):
            solver.solve(np.array([1.0]), 1e9)
        with pytest.raises(ValueError):
            solver.solve(np.ones((2, 2)), 1e9)

    def test_constant_load_gives_pure_ir_drop(self, solver):
        resp = solver.solve(np.full(64, 2.0), 1.2e9)
        # no AC content: droop equals the IR drop, peak-to-peak ~ 0
        assert resp.peak_to_peak == pytest.approx(0.0, abs=1e-9)
        assert 0.0 < resp.max_droop < 0.05

    def test_ir_drop_scales_with_current(self, solver):
        r1 = solver.solve(np.full(64, 1.0), 1.2e9)
        r2 = solver.solve(np.full(64, 2.0), 1.2e9)
        assert r2.max_droop == pytest.approx(2.0 * r1.max_droop, rel=1e-6)

    def test_linearity_of_response(self, solver):
        """Doubling the load waveform doubles the deviation (linear PDN)."""
        rng = np.random.default_rng(0)
        wave = 1.0 + 0.5 * rng.standard_normal(128)
        ra = solver.solve(wave, 1.2e9)
        rb = solver.solve(2.0 * wave, 1.2e9)
        dev_a = ra.die_voltage - ra.nominal_voltage
        dev_b = rb.die_voltage - rb.nominal_voltage
        assert np.allclose(dev_b, 2.0 * dev_a, atol=1e-12)

    def test_mean_die_current_matches_mean_load(self, solver):
        wave = np.abs(np.random.default_rng(1).standard_normal(128)) + 1.0
        resp = solver.solve(wave, 1.2e9)
        assert np.mean(resp.die_current) == pytest.approx(
            np.mean(wave), rel=1e-6
        )


class TestResonantAmplification:
    def test_square_wave_at_resonance_beats_off_resonance(self, solver):
        n = 64
        wave = np.where(np.arange(n) < n // 2, 1.0, 0.0)
        at_res = solver.solve(wave, n * 67e6)
        off_res = solver.solve(wave, n * 150e6)
        assert at_res.peak_to_peak > 1.5 * off_res.peak_to_peak

    def test_dominant_frequency_is_excitation_frequency(self, solver):
        n = 64
        f0 = 67e6
        wave = np.where(np.arange(n) < n // 2, 1.0, 0.0)
        resp = solver.solve(wave, n * f0)
        assert resp.dominant_frequency_hz((50e6, 200e6)) == pytest.approx(
            f0, rel=0.01
        )

    def test_band_filter_raises_when_empty(self, solver):
        resp = solver.solve(np.ones(16) + np.sin(np.arange(16)), 1.2e9)
        with pytest.raises(ValueError):
            resp.dominant_frequency_hz((1.0, 2.0))


class TestSpectra:
    def test_voltage_spectrum_shapes(self, solver):
        resp = solver.solve(np.random.default_rng(2).random(100), 1e9)
        f, a = resp.voltage_spectrum()
        assert f.shape == a.shape == (51,)
        fc, ac = resp.current_spectrum()
        assert fc.shape == ac.shape == (51,)

    def test_sine_load_round_trip(self, solver):
        """A sine load has exactly one nonzero AC harmonic."""
        n = 128
        fs = n * 60e6
        t = np.arange(n) / fs
        wave = 1.0 + 0.3 * np.sin(2 * np.pi * 60e6 * t)
        resp = solver.solve(wave, fs)
        f, a = resp.current_spectrum()
        nonzero = np.flatnonzero(a[1:] > 1e-9) + 1
        assert list(nonzero) == [1]
        assert f[1] == pytest.approx(60e6)

    def test_period_property(self, solver):
        resp = solver.solve(np.ones(50) + np.sin(np.arange(50)), 1e9)
        assert resp.period_s == pytest.approx(50 / 1e9)


class TestTransferFunctions:
    def test_repeated_solves_are_identical_and_uncached(self, solver):
        """The solver keeps no grid cache: each solve without a
        ``transfer`` grid runs, and counts, its own AC analysis."""
        wave = np.random.default_rng(3).random(64)
        before = solver.tf_analyses
        r1 = solver.solve(wave, 1.2e9)
        r2 = solver.solve(wave, 1.2e9)
        np.testing.assert_array_equal(r1.die_voltage, r2.die_voltage)
        assert solver.tf_analyses - before == 2
        grid = solver.transfer_functions(64, 1.2e9)
        r3 = solver.solve(wave, 1.2e9, transfer=grid)
        np.testing.assert_array_equal(r3.die_voltage, r1.die_voltage)
        assert solver.tf_analyses - before == 3


class TestRailMinimum:
    def test_min_voltage_is_computed_once_per_response(
        self, solver, monkeypatch
    ):
        """``min_voltage``, ``max_droop`` and ``peak_to_peak`` share one
        ``np.min`` over the rail, with the bits of a fresh one."""
        resp = solver.solve(np.random.default_rng(5).random(64), 1.2e9)
        real_min = np.min
        expected = float(real_min(resp.die_voltage))
        calls = []

        def counted_min(*args, **kwargs):
            calls.append(args)
            return real_min(*args, **kwargs)

        monkeypatch.setattr(np, "min", counted_min)
        for _ in range(3):
            assert resp.min_voltage == expected
            assert resp.max_droop == resp.nominal_voltage - expected
            assert resp.peak_to_peak == (
                float(np.max(resp.die_voltage)) - expected
            )
        assert len(calls) == 1

    def test_recentered_response_computes_its_own_minimum(self, solver):
        from repro.chain.session import _recentered

        resp = solver.solve(np.random.default_rng(6).random(64), 1.2e9)
        low = resp.min_voltage
        shifted = _recentered(resp, resp.nominal_voltage - 0.1)
        assert shifted is not resp
        assert shifted.min_voltage == float(np.min(shifted.die_voltage))
        assert shifted.min_voltage < low

