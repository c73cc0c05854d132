"""Unit tests for AC impedance analysis."""

import numpy as np
import pytest

from repro.pdn.impedance import (
    analyze_ac,
    dc_operating_point,
    describe_elements,
    total_series_resistance,
)
from repro.pdn.elements import (
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.pdn.ladder import Ladder, Section
from repro.pdn.netlist import Circuit
from repro.pdn.models import PDNModel, CORTEX_A72_PDN


def rc_ladder() -> Ladder:
    return Ladder(
        "rc",
        VoltageSource("v1", "in", "0", voltage=1.0),
        (
            Section("r1", "out", resistance=10.0),
            Section("c1", "0", capacitance=1e-9),
        ),
    )


class TestAnalyzeAC:
    def test_rejects_empty_frequency_grid(self):
        with pytest.raises(ValueError):
            analyze_ac(rc_ladder(), [])

    @pytest.mark.parametrize("bad", [0.0, -1e6, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_frequency(self, bad):
        """At DC the capacitor is open; the fold would divide by zero."""
        with pytest.raises(ValueError, match="positive and finite"):
            analyze_ac(rc_ladder(), [1e6, bad])

    def test_impedance_shape_matches_grid(self):
        analysis = analyze_ac(rc_ladder(), [1e3, 1e6, 1e9])
        assert analysis.impedance.shape == (3,)
        assert analysis.die_current.shape == (3,)
        assert np.iscomplexobj(analysis.impedance)

    def test_rc_rolloff(self):
        """|Z| of R parallel C falls with frequency."""
        z = analyze_ac(rc_ladder(), [1e3, 1e7, 1e9]).impedance_magnitude()
        assert z[0] > z[1] > z[2]

    def test_voltage_source_is_shorted_in_ac(self):
        """At low frequency the cap is open, so Z -> R (source shorted)
        and the whole load current flows through the resistor."""
        analysis = analyze_ac(rc_ladder(), [1.0])
        assert abs(analysis.impedance[0]) == pytest.approx(10.0, rel=1e-3)
        assert abs(analysis.die_current[0]) == pytest.approx(1.0, rel=1e-3)

    def test_peak_frequency_banded(self):
        m = PDNModel(CORTEX_A72_PDN)
        freqs = np.linspace(10e6, 200e6, 400)
        analysis = m.impedance_analysis(freqs, 2)
        peak = analysis.peak_frequency_hz((50e6, 200e6))
        assert 60e6 < peak < 75e6
        with pytest.raises(ValueError):
            analysis.peak_frequency_hz((1e3, 2e3))


class TestLadder:
    def test_circuit_stamps_sections_in_order(self):
        c = rc_ladder().circuit()
        assert [(e.name, e.node_a, e.node_b) for e in c.elements] == [
            ("v1", "in", "0"),
            ("r1.r", "in", "out"),
            ("c1.c", "out", "0"),
        ]

    @pytest.mark.parametrize(
        "sections, message",
        [
            ((Section("c1", "0", capacitance=1e-9),), "no series section"),
            (
                (
                    Section("r1", "out", resistance=1.0),
                    Section("r2", "out", resistance=1.0),
                ),
                "revisits a node",
            ),
            ((Section("r1", "in", resistance=1.0),), "revisits a node"),
        ],
        ids=["shunt-only", "repeated-node", "back-to-supply"],
    )
    def test_rejects_a_network_that_is_not_a_ladder(self, sections, message):
        with pytest.raises(ValueError, match=message):
            Ladder("bad", VoltageSource("v1", "in", "0", voltage=1.0),
                   sections)

    @pytest.mark.parametrize(
        "values",
        [{}, {"resistance": -1.0}, {"inductance": float("nan")}],
        ids=["empty", "negative", "nan"],
    )
    def test_rejects_bad_section_values(self, values):
        with pytest.raises(ValueError, match="section 's'"):
            Section("s", "0", **values)


class TestDCOperatingPoint:
    def test_divider_operating_point(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", "0", voltage=3.0))
        c.add(Resistor("r1", "in", "mid", resistance=1.0))
        c.add(Resistor("r2", "mid", "0", resistance=2.0))
        op = dc_operating_point(c)
        assert op["in"] == pytest.approx(3.0)
        assert op["mid"] == pytest.approx(2.0)

    def test_constant_load_drops_rail(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", "0", voltage=1.0))
        c.add(Resistor("r1", "in", "die", resistance=0.01))
        c.add(CurrentSource("iload", "die", "0", current=2.0))
        op = dc_operating_point(c)
        assert op["die"] == pytest.approx(1.0 - 0.02)

    def test_pdn_die_sits_at_nominal_minus_ir(self):
        m = PDNModel(CORTEX_A72_PDN)
        circuit = m.build_circuit(2)
        op = dc_operating_point(circuit)
        assert op["die"] == pytest.approx(CORTEX_A72_PDN.nominal_voltage)


class TestSeriesResistance:
    def test_total_series_resistance_positive_and_small(self):
        m = PDNModel(CORTEX_A72_PDN)
        r = total_series_resistance(m.build_circuit(2), "die")
        assert 0.0 < r < 0.05  # a few milliohms


class TestDescribe:
    def test_describe_lists_all_elements(self):
        c = rc_ladder().circuit()
        text = describe_elements(c)
        assert "v1" in text and "r1" in text and "c1" in text
        assert "10 ohm" in text
