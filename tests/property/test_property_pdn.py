"""Property-based tests on the PDN solvers (hypothesis)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.pdn.elements import Inductor, VoltageSource
from repro.pdn.impedance import analyze_ac, total_series_resistance
from repro.pdn.ladder import Ladder, Section
from repro.pdn.models import CORTEX_A72_PDN, DIE_NODE, PDNModel
from repro.pdn.netlist import GROUND
from repro.platforms import registry
from tests.pdn.mna_reference import (
    ac_matrix_reference,
    analyze_ac_reference,
    assert_same_bits,
    transfer_functions_reference,
)
from tests.pdn.test_oracles import (
    closed_form_die_current,
    closed_form_impedance,
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
# The ladder fold is the MNA solve of the netlist the ladder stamps
# ---------------------------------------------------------------------------

#: Agreement between the fold and the per-frequency MNA solve on random
#: ladders, ``|fold - mna| <= RTOL * |mna| + ATOL``.  A wrong topology
#: (a section folded on the wrong side, the wrong feed current) is off
#: by order one.  The MNA solve itself loses digits on ill-conditioned
#: draws: at 10 GHz, behind a series section of 1 ohm, 100 nH and
#: 50 uF (condition number 1.6e11), it read 6346.0355j ohm where the
#: fold and a 50-digit solve agree on 6346.0172j, and over 12,000
#: draws at the ends of these value ranges its die current was off by
#: up to 2.7e-4 relative where that current is small (in one such case
#: a 60-digit solve put the MNA 2.2e-4 and the fold 3.2e-10 off).  The
#: presets are held to 1e-12 in tests/pdn/test_oracles.py.
RANDOM_LADDER_RTOL = 1e-2
RANDOM_LADDER_ATOL = 1e-12


def _log_values(low, high):
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0 ** e)


@st.composite
def sections(draw, index, shunt):
    """One section with one to three of R, L and C."""
    kinds = draw(
        st.sets(st.sampled_from("rlc"), min_size=1, max_size=3)
    )
    return Section(
        f"s{index}",
        GROUND if shunt else f"n{index}",
        resistance=draw(_log_values(-3, 1)) if "r" in kinds else 0.0,
        inductance=draw(_log_values(-12, -7)) if "l" in kinds else 0.0,
        capacitance=draw(_log_values(-10, -3)) if "c" in kinds else 0.0,
    )


@st.composite
def ladders(draw):
    """Random ladders of up to eight sections: any mix upstream
    (including shunts at the supply, consecutive series sections and
    several shunts on one node), then the die's feed, then zero to two
    shunts at the die.  The feed carries an inductor, as every package
    trace does, so the MNA solve has its current as a branch unknown.
    Returns the ladder and the feed's index."""
    upstream = draw(st.lists(st.booleans(), max_size=5))
    shunts = upstream + [False] + [True] * draw(st.integers(0, 2))
    drawn = [draw(sections(i, shunt)) for i, shunt in enumerate(shunts)]
    feed = len(upstream)
    drawn[feed] = replace(
        drawn[feed], inductance=drawn[feed].inductance or 1e-9
    )
    supply = VoltageSource("vdd", "vrm", GROUND, voltage=1.0)
    return Ladder("random", supply, tuple(drawn)), feed


def _max_rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def _assert_close_to_mna(got, want):
    excess = np.abs(got - want) - RANDOM_LADDER_RTOL * np.abs(want)
    assert float(np.max(excess)) <= RANDOM_LADDER_ATOL


@settings(max_examples=100, deadline=None)
@given(
    drawn=ladders(),
    freqs=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=40),
        elements=st.floats(min_value=1.0, max_value=1e10),
    ),
)
def test_analyze_ac_matches_the_mna_loop_on_random_ladders(drawn, freqs):
    """Z(f) and H_I(f) of the fold match one MNA solve per frequency of
    the stamped netlist, and the stamped DC matrix is the element loop
    at omega = 0 bit for bit."""
    ladder, feed = drawn
    circuit = ladder.circuit()
    die = ladder.sections[feed].to
    layout, solutions = analyze_ac_reference(circuit, die, freqs)
    analysis = analyze_ac(ladder, freqs)
    _assert_close_to_mna(analysis.impedance, solutions[:, layout.node(die)])
    # The reference injects 1 A into the die, against the feed's
    # declared direction.
    branch = layout.branch(f"{ladder.sections[feed].name}.l")
    _assert_close_to_mna(analysis.die_current, -solutions[:, branch])
    assert_same_bits(
        circuit.dc_matrix(),
        ac_matrix_reference(circuit, 0.0, circuit.layout()).real,
    )


def test_add_after_analysis_restamps():
    """Adding an element after a DC analysis replaces the cached stamps."""
    circuit = PDNModel(CORTEX_A72_PDN).build_circuit(2)
    first = total_series_resistance(circuit, DIE_NODE)
    stamps = circuit.stamps()
    circuit.add(Inductor("l_late", DIE_NODE, GROUND, inductance=3e-9))
    assert circuit.stamps() is not stamps
    assert circuit.layout().size == stamps.layout.size + 1
    assert_same_bits(
        circuit.dc_matrix(),
        ac_matrix_reference(circuit, 0.0, circuit.layout()).real,
    )
    # The late inductor shorts the die to ground at DC.
    assert total_series_resistance(circuit, DIE_NODE) < first


#: (n_samples, sample_rate_hz) grids: 2, 31, 32, 33 and 321 bins.
TF_GRIDS = ((2, 1.0e9), (60, 1.2e9), (62, 2.4e9), (64, 0.9e9),
            (640, 1.6e9))

#: Both oracles agree with the fold to within this, on every preset.
TF_REL_TOL = 1e-12


@pytest.mark.parametrize("platform", registry.platform_keys())
def test_transfer_functions_are_the_two_call_composition(platform):
    """Folding the 1 Hz DC point into the harmonic analysis matches the
    two-analysis MNA composition on the ladder's netlist, and the closed
    form, on every gating state."""
    params = registry.make_cluster(platform).pdn.params
    model = PDNModel(params)
    for cores in range(1, params.num_cores + 1):
        solver = model.solver(cores)
        folded = solver.compute_transfer_functions(TF_GRIDS)
        for (n_samples, rate), (stack, _) in zip(TF_GRIDS, folded):
            z, h_i = -stack[0], stack[1]
            z_ref, h_ref = transfer_functions_reference(
                model.ladder(cores).circuit(), DIE_NODE, "pkg_trace.l",
                n_samples, rate,
            )
            assert _max_rel_err(z, z_ref) < TF_REL_TOL
            assert _max_rel_err(h_i, h_ref) < TF_REL_TOL
            freqs = np.fft.rfftfreq(n_samples, d=1.0 / rate)
            freqs[0] = 1.0
            z_cf = closed_form_impedance(params, cores, freqs)
            h_cf = closed_form_die_current(params, cores, freqs)
            assert _max_rel_err(z[1:], z_cf[1:]) < TF_REL_TOL
            assert _max_rel_err(h_i[1:], h_cf[1:]) < TF_REL_TOL
            # Bin 0 is the real DC transfer, read at 1 Hz.
            assert z[0].imag == 0.0 and h_i[0].imag == 0.0
