"""Unit tests for the Circuit container and MNA assembly."""

import numpy as np
import pytest

from repro.pdn.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.pdn.netlist import Circuit, GROUND
from tests.pdn.mna_reference import ac_matrix_reference


def simple_divider() -> Circuit:
    c = Circuit("divider")
    c.add(VoltageSource("v1", "in", GROUND, voltage=2.0))
    c.add(Resistor("r1", "in", "mid", resistance=1.0))
    c.add(Resistor("r2", "mid", GROUND, resistance=1.0))
    return c


class TestCircuitConstruction:
    def test_duplicate_names_rejected(self):
        c = Circuit()
        c.add(Resistor("r1", "a", "0", resistance=1.0))
        with pytest.raises(ValueError, match="duplicate"):
            c.add(Resistor("r1", "b", "0", resistance=1.0))

    def test_nodes_exclude_ground(self):
        c = simple_divider()
        assert set(c.nodes) == {"in", "mid"}

    def test_element_lookup(self):
        c = simple_divider()
        assert c.element("r1").node_a == "in"
        with pytest.raises(KeyError):
            c.element("nope")

    def test_series_rlc_chain(self):
        c = Circuit()
        c.add_series_rlc(
            "cap", "top", "0", resistance=0.01, inductance=1e-9,
            capacitance=1e-6,
        )
        names = [e.name for e in c.elements]
        assert names == ["cap.r", "cap.l", "cap.c"]
        # internal nodes chain top -> cap.n1 -> cap.n2 -> 0
        assert c.element("cap.r").node_a == "top"
        assert c.element("cap.c").node_b == "0"

    def test_series_rlc_skips_zero_values(self):
        c = Circuit()
        c.add_series_rlc("t", "a", "b", resistance=1.0)
        assert [e.name for e in c.elements] == ["t.r"]

    def test_series_rlc_empty_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError, match="nonzero"):
            c.add_series_rlc("t", "a", "b")


class TestMNALayout:
    def test_layout_counts(self):
        c = simple_divider()
        c.add(Inductor("l1", "mid", GROUND, inductance=1e-9))
        layout = c.layout()
        assert layout.num_nodes == 2
        # voltage source + inductor are branch elements
        assert layout.num_branches == 2
        assert layout.size == 4

    def test_ground_index_is_negative(self):
        layout = simple_divider().layout()
        assert layout.node(GROUND) == -1

    def test_branch_indices_follow_nodes(self):
        c = simple_divider()
        layout = c.layout()
        assert layout.branch("v1") >= layout.num_nodes


class TestDCCorrectness:
    def test_voltage_divider_dc(self):
        c = simple_divider()
        layout = c.layout()
        a = c.dc_matrix()
        b = c.ac_rhs(layout, {}, source_voltages=True)
        x = np.linalg.solve(a, b)
        assert x[layout.node("in")].real == pytest.approx(2.0)
        assert x[layout.node("mid")].real == pytest.approx(1.0)

    def test_inductor_is_dc_short(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", GROUND, voltage=1.0))
        c.add(Inductor("l1", "in", "out", inductance=1e-9))
        c.add(Resistor("r1", "out", GROUND, resistance=2.0))
        layout = c.layout()
        x = np.linalg.solve(
            c.dc_matrix(),
            c.ac_rhs(layout, {}, source_voltages=True),
        )
        assert x[layout.node("out")].real == pytest.approx(1.0)
        # branch current = 1 V / 2 ohm
        assert abs(x[layout.branch("l1")]) == pytest.approx(0.5)

    def test_current_source_injection(self):
        c = Circuit()
        c.add(Resistor("r1", "a", GROUND, resistance=4.0))
        layout = c.layout()
        x = np.linalg.solve(
            c.dc_matrix(), c.ac_rhs(layout, {"a": 1.0})
        )
        assert x[layout.node("a")].real == pytest.approx(4.0)


class TestACCorrectness:
    """The per-frequency MNA matrix that tests/pdn/mna_reference.py
    solves as the AC oracle, against textbook impedances."""

    def test_capacitor_impedance(self):
        c = Circuit()
        c.add(Capacitor("c1", "a", GROUND, capacitance=1e-9))
        layout = c.layout()
        f = 1e6
        x = np.linalg.solve(
            ac_matrix_reference(c, 2 * np.pi * f, layout),
            c.ac_rhs(layout, {"a": 1.0}),
        )
        expected = 1.0 / (2 * np.pi * f * 1e-9)
        assert abs(x[layout.node("a")]) == pytest.approx(expected, rel=1e-9)

    def test_inductor_impedance(self):
        c = Circuit()
        c.add(Inductor("l1", "a", GROUND, inductance=1e-6))
        c.add(Resistor("rshunt", "a", GROUND, resistance=1e9))
        layout = c.layout()
        f = 1e6
        x = np.linalg.solve(
            ac_matrix_reference(c, 2 * np.pi * f, layout),
            c.ac_rhs(layout, {"a": 1.0}),
        )
        expected = 2 * np.pi * f * 1e-6
        assert abs(x[layout.node("a")]) == pytest.approx(expected, rel=1e-3)

    def test_lc_parallel_resonance_peak(self):
        """Parallel LC at 1/(2 pi sqrt(LC)) shows the impedance maximum."""
        c = Circuit()
        c.add(Inductor("l1", "a", GROUND, inductance=1e-9))
        c.add_series_rlc(
            "cb", "a", GROUND, resistance=0.01, capacitance=1e-9
        )
        layout = c.layout()
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-9 * 1e-9))
        mags = []
        for f in (f0 / 2, f0, f0 * 2):
            x = np.linalg.solve(
                ac_matrix_reference(c, 2 * np.pi * f, layout),
                c.ac_rhs(layout, {"a": 1.0}),
            )
            mags.append(abs(x[layout.node("a")]))
        assert mags[1] > mags[0]
        assert mags[1] > mags[2]
