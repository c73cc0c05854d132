"""Unit tests for the detailed multi-bank board model."""

import numpy as np
import pytest

from repro.pdn.boards import (
    build_detailed_board_circuit,
    detailed_impedance_analysis,
    impedance_peaks,
)
from repro.pdn.models import PDNModel, CORTEX_A72_PDN


@pytest.fixture(scope="module")
def detailed_z():
    freqs = np.logspace(3, 8.7, 1200)
    analysis = detailed_impedance_analysis(CORTEX_A72_PDN, 2, freqs)
    return freqs, analysis.impedance_magnitude()


class TestDetailedBoard:
    def test_first_order_tank_unchanged(self, detailed_z):
        """Package-and-up copies the preset: same 67 MHz peak height."""
        freqs, zm = detailed_z
        band = (freqs > 50e6) & (freqs < 200e6)
        f1 = freqs[band][np.argmax(zm[band])]
        z1 = zm[band].max()
        simple = PDNModel(CORTEX_A72_PDN)
        assert f1 == pytest.approx(
            simple.measured_resonance_hz(2), rel=0.01
        )
        sf = np.logspace(7.5, 8.5, 400)
        zs = simple.impedance_analysis(sf, 2).impedance_magnitude()
        assert z1 == pytest.approx(zs.max(), rel=0.05)

    def test_third_order_near_10khz(self, detailed_z):
        """Bulk/VRM tank lands in the paper's ~10 kHz decade."""
        freqs, zm = detailed_z
        peaks = impedance_peaks(freqs, zm)
        assert any(3e3 < f < 5e4 for f, _ in peaks)

    def test_second_order_in_1_to_10mhz(self, detailed_z):
        """Package-bank tank lands in the paper's 1-10 MHz decade."""
        freqs, zm = detailed_z
        peaks = impedance_peaks(freqs, zm)
        assert any(1e6 < f < 1e7 for f, _ in peaks)

    def test_at_least_three_resonance_peaks(self, detailed_z):
        freqs, zm = detailed_z
        peaks = impedance_peaks(freqs, zm)
        assert len(peaks) >= 3

    def test_mid_antiresonance_documented_hazard(self, detailed_z):
        """The mid/bulk anti-resonance (hundreds of kHz) exists -- the
        board-design hazard the module docstring warns about."""
        freqs, zm = detailed_z
        peaks = impedance_peaks(freqs, zm)
        assert any(1e5 < f < 1e6 for f, _ in peaks)

    def test_circuit_builds_for_every_gating_state(self):
        for n in (1, 2):
            circuit = build_detailed_board_circuit(CORTEX_A72_PDN, n)
            assert circuit.element("die_cap.c") is not None
