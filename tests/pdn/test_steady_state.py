"""Unit tests for the periodic steady-state solver."""

import numpy as np
import pytest

from repro.pdn import steady_state
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
        (grid,) = solver.transfer_functions([(64, 1.2e9)])
        r3 = solver.solve(wave, 1.2e9, transfer=grid)
        np.testing.assert_array_equal(r3.die_voltage, r1.die_voltage)
        assert solver.tf_analyses - before == 3

    def test_one_fold_counts_every_grid(self, solver, monkeypatch):
        """Several grids share one fold of their concatenated
        frequencies, count one analysis each, and get the bits of a
        fold of their own."""
        folds = []
        original = steady_state.analyze_ac

        def spy(ladder, frequencies_hz):
            folds.append(len(frequencies_hz))
            return original(ladder, frequencies_hz=frequencies_hz)

        monkeypatch.setattr(steady_state, "analyze_ac", spy)
        grids = [(64, 1.2e9), (5, 0.9e9), (64, 1.0e9), (1025, 2.0e8)]
        before = solver.tf_analyses
        together = solver.transfer_functions(grids)
        assert solver.tf_analyses - before == len(grids)
        assert folds == [33 + 3 + 33 + 513]
        for (n, rate), (stack, freqs) in zip(grids, together):
            ((stack_alone, freqs_alone),) = (
                solver.compute_transfer_functions([(n, rate)])
            )
            assert stack.shape == (2, n // 2 + 1)
            assert stack.tobytes() == stack_alone.tobytes()
            # Bin 0 of -Z and of H_I is a real DC transfer.
            assert stack[0, 0].imag == 0.0 and stack[1, 0].imag == 0.0
            # The grid's harmonic frequencies, with 0 Hz at bin 0, and
            # read-only, since every response on the grid shares them.
            expected = np.fft.rfftfreq(n, d=1.0 / rate)
            for got in (freqs, freqs_alone):
                assert got.tobytes() == expected.tobytes()
                assert not got.flags.writeable


class TestSolveBatch:
    def test_rows_are_one_row_solves(self, solver):
        """Stacked rows, each at its own rate and supply setting, get
        the bits of one-row solves recentered on that supply."""
        rng = np.random.default_rng(11)
        loads = rng.uniform(0.5, 2.0, (5, 48))
        rates = [1.2e9, 0.6e9, 1.2e9, 2.0e9, 0.95e9]
        supplies = [solver.nominal_voltage, 0.9, 1.1, 0.9, 0.7]
        batch = solver.solve_batch(loads, rates, supply_voltages=supplies)
        for load, rate, supply, got in zip(loads, rates, supplies, batch):
            alone = solver.solve(load, rate)
            delta = supply - solver.nominal_voltage
            assert got.nominal_voltage == supply
            assert got.sample_rate_hz == rate
            np.testing.assert_array_equal(
                got.die_voltage,
                alone.die_voltage + delta if delta else alone.die_voltage,
            )
            for field in (
                "die_current",
                "harmonic_frequencies_hz",
                "die_voltage_harmonics",
                "die_current_harmonics",
            ):
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(alone, field)
                )
            np.testing.assert_array_equal(
                got.harmonic_frequencies_hz,
                np.fft.rfftfreq(48, d=1.0 / rate),
            )

    @pytest.mark.parametrize(
        "loads, rates, per_row, message",
        [
            (np.ones(8), [1e9] * 8, {}, "2-D array"),
            (np.ones((2, 1)), [1e9] * 2, {}, "2-D array"),
            (np.ones((0, 8)), [], {}, "2-D array"),
            (np.ones((3, 8)), [1e9], {}, "sample_rates_hz has 1 "),
            (np.ones((3, 8)), [1e9] * 4, {}, "sample_rates_hz has 4 "),
            (np.ones((3, 8)), [1e9] * 3, {"transfers": 1},
             "transfers has 1 "),
            (np.ones((3, 8)), [1e9] * 3, {"supply_voltages": [0.9]},
             "supply_voltages has 1 "),
            (np.ones((1, 8)), [1e9], {"supply_voltages": [0.9, 0.9]},
             "supply_voltages has 2 "),
        ],
        ids=[
            "1-D", "one-sample rows", "no rows", "one rate for three rows",
            "four rates for three rows", "one grid for three rows",
            "one supply for three rows", "two supplies for one row",
        ],
    )
    def test_rejects_bad_shapes(self, solver, loads, rates, per_row, message):
        """A bad trace array, or a per-row sequence without one entry
        per row, raises before any transform: none broadcasts."""
        if "transfers" in per_row:
            per_row = {
                "transfers": solver.transfer_functions(
                    [(8, 1e9)] * per_row["transfers"]
                )
            }
        with pytest.raises(ValueError, match=message):
            solver.solve_batch(loads, rates, **per_row)


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
        wave = np.random.default_rng(6).random(64)
        resp = solver.solve(wave, 1.2e9)
        low = resp.min_voltage
        (shifted,) = solver.solve_batch(
            wave[None], [1.2e9],
            supply_voltages=[resp.nominal_voltage - 0.1],
        )
        assert shifted.min_voltage == float(np.min(shifted.die_voltage))
        assert shifted.min_voltage < low

