"""Unit tests for the calibrated platform PDN presets."""

import numpy as np
import pytest

from repro.pdn.models import (
    AMD_ATHLON_PDN,
    CORTEX_A53_PDN,
    CORTEX_A72_PDN,
    PDNModel,
    PRESETS,
    first_order_resonance_hz,
    preset,
    scaled,
)


class TestPresets:
    def test_registry_contains_all_three_platforms(self):
        assert set(PRESETS) == {
            "cortex-a72",
            "cortex-a53",
            "amd-athlon-ii-x4-645",
        }

    def test_preset_lookup(self):
        assert preset("cortex-a72") is CORTEX_A72_PDN
        with pytest.raises(KeyError, match="unknown"):
            preset("pentium")

    def test_scaled_override(self):
        p = scaled(CORTEX_A72_PDN, r_die=5e-3)
        assert p.r_die == 5e-3
        assert p.l_pkg == CORTEX_A72_PDN.l_pkg


class TestDieCapacitance:
    def test_monotonic_in_powered_cores(self):
        caps = [
            CORTEX_A53_PDN.die_capacitance(n)
            for n in range(1, CORTEX_A53_PDN.num_cores + 1)
        ]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CORTEX_A72_PDN.die_capacitance(0)
        with pytest.raises(ValueError):
            CORTEX_A72_PDN.die_capacitance(3)


class TestCalibratedResonances:
    """The paper's measured first-order resonances (Figs. 8, 13, 16/17)."""

    def test_a72_two_cores_at_67mhz(self):
        m = PDNModel(CORTEX_A72_PDN)
        assert m.measured_resonance_hz(2) == pytest.approx(67e6, rel=0.02)

    def test_a72_one_core_at_83mhz(self):
        m = PDNModel(CORTEX_A72_PDN)
        assert m.measured_resonance_hz(1) == pytest.approx(83e6, rel=0.02)

    def test_a53_four_cores_at_76_5mhz(self):
        m = PDNModel(CORTEX_A53_PDN)
        assert m.measured_resonance_hz(4) == pytest.approx(76.5e6, rel=0.02)

    def test_a53_one_core_at_97mhz(self):
        m = PDNModel(CORTEX_A53_PDN)
        assert m.measured_resonance_hz(1) == pytest.approx(97e6, rel=0.02)

    def test_a53_resonance_monotonic_in_gating(self):
        """Power-gating cores shifts the resonance up (Section 6)."""
        m = PDNModel(CORTEX_A53_PDN)
        freqs = [m.measured_resonance_hz(n) for n in (4, 3, 2, 1)]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_amd_four_cores_at_78mhz(self):
        m = PDNModel(AMD_ATHLON_PDN)
        assert m.measured_resonance_hz(4) == pytest.approx(78e6, rel=0.02)

    def test_analytic_estimate_close_to_network(self):
        m = PDNModel(CORTEX_A72_PDN)
        analytic = m.analytic_resonance_hz(2)
        network = m.measured_resonance_hz(2)
        assert analytic == pytest.approx(network, rel=0.35)

    def test_all_resonances_inside_papers_range(self):
        """Section 8.1: first-order resonances live in 50-200 MHz."""
        for params in PRESETS.values():
            m = PDNModel(params)
            for n in range(1, params.num_cores + 1):
                f = m.measured_resonance_hz(n)
                assert 50e6 <= f <= 200e6


class TestImpedanceStructure:
    """Fig. 1(b): multiple resonance peaks, first-order the highest."""

    @pytest.fixture(scope="class")
    def z_curve(self):
        m = PDNModel(CORTEX_A72_PDN)
        freqs = np.logspace(3.5, 8.7, 500)
        analysis = m.impedance_analysis(freqs, 2)
        return freqs, analysis.impedance_magnitude()

    def test_first_order_peak_is_global_structure_peak(self, z_curve):
        freqs, mag = z_curve
        first = mag[(freqs > 50e6) & (freqs < 200e6)].max()
        below = mag[freqs < 20e6].max()
        assert first >= below

    def test_mid_frequency_peak_exists(self, z_curve):
        """A second-order peak in the ~MHz decade (local maximum)."""
        freqs, mag = z_curve
        band = (freqs > 2e5) & (freqs < 2e7)
        inner = mag[band]
        assert inner.max() > mag[(freqs > 2e7) & (freqs < 4e7)].min()

    def test_impedance_small_at_dc(self, z_curve):
        freqs, mag = z_curve
        assert mag[0] < 0.05


class TestSolverCache:
    def test_solver_is_cached_per_gating_state(self):
        m = PDNModel(CORTEX_A72_PDN)
        assert m.solver(2) is m.solver(2)
        assert m.solver(2) is not m.solver(1)
