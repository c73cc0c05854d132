"""Property-based tests on the PDN solvers (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.pdn.elements import Capacitor, Inductor, Resistor
from repro.pdn.impedance import AC_BLOCK, analyze_ac
from repro.pdn.models import (
    CORTEX_A72_PDN,
    DIE_NODE,
    SENSE_BRANCH,
    PDNModel,
)
from repro.pdn.netlist import GROUND, Circuit
from repro.platforms import registry
from tests.pdn.mna_reference import (
    ac_matrix_reference,
    analyze_ac_reference,
    assert_same_bits,
    solution_matrix,
    transfer_functions_reference,
)

SOLVER = PDNModel(CORTEX_A72_PDN).solver(2)

loads = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=8, max_value=200),
    elements=st.floats(min_value=0.0, max_value=10.0),
)


@settings(max_examples=40, deadline=None)
@given(wave=loads)
def test_droop_never_negative_for_nonnegative_load(wave):
    """A load that only draws current can only pull the rail down."""
    resp = SOLVER.solve(wave, 1.2e9)
    assert resp.max_droop >= -1e-9


@settings(max_examples=40, deadline=None)
@given(wave=loads)
def test_peak_to_peak_bounds_droop_variation(wave):
    """max droop <= IR(DC) + p2p: the dip can't exceed mean drop plus swing."""
    resp = SOLVER.solve(wave, 1.2e9)
    mean_drop = resp.nominal_voltage - float(np.mean(resp.die_voltage))
    assert resp.max_droop <= mean_drop + resp.peak_to_peak + 1e-12


@settings(max_examples=40, deadline=None)
@given(wave=loads, scale=st.floats(min_value=0.1, max_value=5.0))
def test_linearity_under_scaling(wave, scale):
    """Scaling the load scales the deviation exactly (linear network)."""
    base = SOLVER.solve(wave, 1.2e9)
    scaled = SOLVER.solve(wave * scale, 1.2e9)
    dev_base = base.die_voltage - base.nominal_voltage
    dev_scaled = scaled.die_voltage - scaled.nominal_voltage
    assert np.allclose(dev_scaled, scale * dev_base, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(wave=loads, shift=st.integers(min_value=0, max_value=100))
def test_time_shift_invariance(wave, shift):
    """Rolling a periodic load rolls the response, preserving metrics."""
    a = SOLVER.solve(wave, 1.2e9)
    b = SOLVER.solve(np.roll(wave, shift), 1.2e9)
    assert a.max_droop == pytest.approx(b.max_droop, abs=1e-9)
    assert a.peak_to_peak == pytest.approx(b.peak_to_peak, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(wave=loads, offset=st.floats(min_value=0.0, max_value=5.0))
def test_dc_offset_adds_pure_ir_drop(wave, offset):
    """Adding DC to the load deepens the droop by exactly IR."""
    a = SOLVER.solve(wave, 1.2e9)
    b = SOLVER.solve(wave + offset, 1.2e9)
    z_dc = a.max_droop - (
        a.nominal_voltage - float(np.mean(a.die_voltage))
    )
    ir_delta = b.max_droop - a.max_droop
    assert b.peak_to_peak == pytest.approx(a.peak_to_peak, abs=1e-9)
    assert ir_delta >= -1e-9


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2),
)
def test_mean_die_current_conservation(n):
    """DC current is conserved through the network for any gating state."""
    solver = PDNModel(CORTEX_A72_PDN).solver(n)
    rng = np.random.default_rng(n)
    wave = rng.random(64) * 3.0
    resp = solver.solve(wave, 1.2e9)
    assert float(np.mean(resp.die_current)) == pytest.approx(
        float(np.mean(wave)), rel=1e-6
    )


# ---------------------------------------------------------------------------
# The stamped, blocked AC solve is the per-element, per-frequency loop
# ---------------------------------------------------------------------------

NODES = ("a", "b", "c", "d")

#: Grid sizes on both sides of the solve's block size.
GRID_SIZES = (1, AC_BLOCK - 1, AC_BLOCK, AC_BLOCK + 1, 2 * AC_BLOCK + 3)


def _log_values(low, high):
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0 ** e)


@st.composite
def rlc_circuits(draw):
    """Random R/L/C netlists on up to four nodes; few nodes make
    parallel elements and several capacitors per node common."""
    nodes = list(NODES[: draw(st.integers(min_value=1, max_value=4))])
    terminals = st.sampled_from(nodes + [GROUND])
    circuit = Circuit("random")
    # A leak to ground on every node keeps every A(omega > 0) regular.
    for node in nodes:
        circuit.add(Resistor(
            f"leak.{node}", node, GROUND, resistance=draw(_log_values(-3, 3))
        ))
    for i in range(draw(st.integers(min_value=0, max_value=10))):
        a = draw(terminals)
        b = draw(terminals.filter(lambda n: n != a))
        kind = draw(st.sampled_from("rcl"))
        if kind == "r":
            element = Resistor(
                f"r{i}", a, b, resistance=draw(_log_values(-3, 3))
            )
        elif kind == "c":
            element = Capacitor(
                f"c{i}", a, b, capacitance=draw(_log_values(-12, -3))
            )
        else:
            element = Inductor(
                f"l{i}", a, b, inductance=draw(_log_values(-12, -6))
            )
        circuit.add(element)
    return circuit, draw(st.sampled_from(nodes))


def _assert_matches_reference(circuit, node, freqs):
    layout, expected = analyze_ac_reference(circuit, node, freqs)
    analysis = analyze_ac(circuit, node, freqs)
    assert_same_bits(solution_matrix(analysis, layout), expected)


@settings(max_examples=100, deadline=None)
@given(
    drawn=rlc_circuits(),
    freqs=st.integers(min_value=1, max_value=3 * AC_BLOCK).flatmap(
        lambda size: hnp.arrays(
            np.float64, size, elements=st.floats(min_value=1.0, max_value=1e10)
        )
    ),
)
def test_analyze_ac_is_the_per_frequency_loop_bit_for_bit(drawn, freqs):
    circuit, node = drawn
    _assert_matches_reference(circuit, node, freqs)
    omega = 2.0 * np.pi * freqs[0]
    assert_same_bits(
        circuit.ac_matrix(omega),
        ac_matrix_reference(circuit, omega, circuit.layout()),
    )


def _multi_rank_circuit():
    c = Circuit("parallel-caps")
    c.add(Resistor("r_in", "a", GROUND, resistance=50.0))
    c.add(Capacitor("c1", "a", GROUND, capacitance=1e-9))
    c.add(Capacitor("c2", "a", GROUND, capacitance=2.2e-9))
    c.add(Inductor("l1", "a", "b", inductance=1e-9))
    c.add(Capacitor("c3", "a", "b", capacitance=4.7e-12))
    c.add(Resistor("r_b", "b", GROUND, resistance=0.1))
    c.add(Capacitor("c4", "b", GROUND, capacitance=1e-6))
    return c


def _resistive_circuit():
    c = Circuit("resistive")
    c.add(Resistor("r1", "a", "b", resistance=2.0))
    c.add(Resistor("r2", "b", GROUND, resistance=3.0))
    c.add(Resistor("r3", "a", GROUND, resistance=5.0))
    return c


@pytest.mark.parametrize("size", GRID_SIZES)
@pytest.mark.parametrize(
    "build, ranks", [(_multi_rank_circuit, 3), (_resistive_circuit, 0)]
)
def test_edge_circuits_match_reference(build, ranks, size):
    """Several capacitors on one node use one rank each; a circuit
    with no C or L uses none."""
    circuit = build()
    assert circuit.stamps().reactance.shape[0] == ranks
    _assert_matches_reference(
        circuit, "a", np.logspace(0.0, 9.5, size)
    )


def test_add_after_analysis_restamps():
    circuit = _multi_rank_circuit()
    freqs = np.logspace(3.0, 9.0, AC_BLOCK + 5)
    first = analyze_ac(circuit, "a", freqs)
    stamps = circuit.stamps()
    circuit.add(Inductor("l_late", "b", GROUND, inductance=3e-9))
    assert circuit.stamps() is not stamps
    assert circuit.layout().size == stamps.layout.size + 1
    _assert_matches_reference(circuit, "a", freqs)
    second = analyze_ac(circuit, "a", freqs)
    assert not np.array_equal(first.impedance("a"), second.impedance("a"))


#: (n_samples, sample_rate_hz) grids: 2, 31, 32, 33 and 321 bins.
TF_GRIDS = ((2, 1.0e9), (60, 1.2e9), (62, 2.4e9), (64, 0.9e9),
            (640, 1.6e9))


@pytest.mark.parametrize("platform", registry.platform_keys())
def test_transfer_functions_are_the_two_call_composition(platform):
    """Folding the 1 Hz DC point into the harmonic analysis changes no
    bit of any platform's transfer functions, in any gating state."""
    params = registry.make_cluster(platform).pdn.params
    model = PDNModel(params)
    for cores in range(1, params.num_cores + 1):
        solver = model.solver(cores)
        for n_samples, rate in TF_GRIDS:
            z, h_i = solver.compute_transfer_functions(n_samples, rate)
            z_ref, h_ref = transfer_functions_reference(
                model.build_circuit(cores), DIE_NODE, SENSE_BRANCH,
                n_samples, rate,
            )
            assert_same_bits(z, z_ref)
            assert_same_bits(h_i, h_ref)
