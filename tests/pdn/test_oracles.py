"""Independent oracles for the PDN solver.

The Fig. 1(a) network is a series-parallel ladder of six RLC sections,
so the impedance the die sees and the share of the load current that
flows through the package trace have closed forms.  They are built here
from ``PDNParameters`` fields only -- no ladder, no netlist, no solve
-- and checked against ``analyze_ac`` and the steady-state solver's
transfer-function grids on every platform and gating state.  The
impedance peak in the first-order band must also land on the
calibrated resonances of DESIGN.md sections 5 and 6.  The detailed
board, which has no closed form here, is checked against the
per-frequency MNA solve of its own netlist.
"""

import numpy as np
import pytest

from repro.pdn.boards import (
    build_detailed_board_circuit,
    detailed_impedance_analysis,
)
from repro.pdn.impedance import analyze_ac
from repro.pdn.models import (
    AMD_ATHLON_PDN,
    CORTEX_A53_PDN,
    CORTEX_A72_PDN,
    DIE_NODE,
    PRESETS,
    PDNModel,
    PDNParameters,
)
from repro.platforms.gpu import GPU_PDN
from tests.pdn.mna_reference import analyze_ac_reference

REL_TOL = 1e-12

STATES = [
    (params, powered)
    for params in (*PRESETS.values(), GPU_PDN)
    for powered in range(1, params.num_cores + 1)
]
STATE_IDS = [f"{params.name}-{powered}c" for params, powered in STATES]

#: (n_samples, sample_rate_hz) harmonic grids, from a degenerate 4-cycle
#: loop to an idle trace's 4096 samples.
GRIDS = [(4, 1.2e9), (9, 950e6), (50, 3.1e9), (4096, 1.2e9)]


def _parallel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b / (a + b)


def _die_cap_and_upstream(
    p: PDNParameters, powered_cores: int, frequencies_hz
):
    """(Z_die_cap, Z_pkg + (Z_pkg_cap || (Z_pcb + (Z_bulk || Z_vrm)))),
    with the ideal supply shorted."""
    jw = 2j * np.pi * np.asarray(frequencies_hz, dtype=float)
    z_vrm = p.r_vrm + jw * p.l_vrm
    z_bulk = p.esr_pcb + jw * p.esl_pcb + 1.0 / (jw * p.c_pcb)
    z_pcb = p.r_pcb + jw * p.l_pcb
    z_pkg_cap = p.esr_pkg + jw * p.esl_pkg + 1.0 / (jw * p.c_pkg)
    z_pkg = p.r_pkg + jw * p.l_pkg
    c_die = p.c_die_base + powered_cores * p.c_die_per_core
    z_die_cap = p.r_die + 1.0 / (jw * c_die)
    return z_die_cap, z_pkg + _parallel(
        z_pkg_cap, z_pcb + _parallel(z_bulk, z_vrm)
    )


def closed_form_impedance(
    p: PDNParameters, powered_cores: int, frequencies_hz
) -> np.ndarray:
    """Z_die(f) = Z_die_cap || Z_upstream."""
    return _parallel(*_die_cap_and_upstream(p, powered_cores, frequencies_hz))


def closed_form_die_current(
    p: PDNParameters, powered_cores: int, frequencies_hz
) -> np.ndarray:
    """H_I(f): the current divider between the die capacitance and the
    package trace, Z_die_cap / (Z_die_cap + Z_upstream)."""
    z_die_cap, z_up = _die_cap_and_upstream(p, powered_cores, frequencies_hz)
    return z_die_cap / (z_die_cap + z_up)


def _max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("params, powered", STATES, ids=STATE_IDS)
def test_analyze_ac_matches_the_closed_form(params, powered):
    grid = np.logspace(3, 9, 601)  # 1 kHz .. 1 GHz
    analysis = analyze_ac(PDNModel(params).ladder(powered), grid)
    assert _max_rel_err(
        analysis.impedance, closed_form_impedance(params, powered, grid)
    ) < REL_TOL
    assert _max_rel_err(
        analysis.die_current, closed_form_die_current(params, powered, grid)
    ) < REL_TOL


@pytest.mark.parametrize("params, powered", STATES, ids=STATE_IDS)
def test_transfer_grids_match_the_closed_form(params, powered):
    solver = PDNModel(params).solver(powered)
    # Every grid from one fold over their concatenated frequencies;
    # each comes as its stack of (-Z, H_I).
    folded = solver.compute_transfer_functions(GRIDS)
    for (n_samples, sample_rate_hz), (stack, _) in zip(GRIDS, folded):
        z, h_i = -stack[0], stack[1]
        harmonics = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)[1:]
        assert _max_rel_err(
            z[1:], closed_form_impedance(params, powered, harmonics)
        ) < REL_TOL
        assert _max_rel_err(
            h_i[1:], closed_form_die_current(params, powered, harmonics)
        ) < REL_TOL
        # Bin 0 is the resistive DC path, and unity for the current,
        # read at 1 Hz.
        for got, oracle in (
            (z[0], closed_form_impedance),
            (h_i[0], closed_form_die_current),
        ):
            dc = oracle(params, powered, [1.0])[0].real
            assert got.imag == 0.0
            assert abs(got.real - dc) < REL_TOL * abs(dc)


#: (preset, powered cores, calibrated first-order resonance).
RESONANCES = [
    (CORTEX_A72_PDN, 2, 67.0e6),
    (CORTEX_A72_PDN, 1, 83.0e6),
    (CORTEX_A53_PDN, 4, 76.5e6),
    (CORTEX_A53_PDN, 1, 97.0e6),
    (AMD_ATHLON_PDN, 4, 78.0e6),
    (GPU_PDN, 8, 55.0e6),
    (GPU_PDN, 1, 90.0e6),
]


@pytest.mark.parametrize(
    "params, powered, resonance_hz",
    RESONANCES,
    ids=[f"{p.name}-{n}c" for p, n, _ in RESONANCES],
)
def test_closed_form_peak_is_the_calibrated_resonance(
    params, powered, resonance_hz
):
    band = np.arange(50.0e6, 200.0e6 + 1.0, 10.0e3)
    magnitude = np.abs(closed_form_impedance(params, powered, band))
    peak_hz = band[int(np.argmax(magnitude))]
    assert abs(peak_hz - resonance_hz) < 0.1e6


#: (preset, powered cores, first-order |Z| peak, first-order |H_I| peak):
#: the package current the EM model radiates peaks below the impedance,
#: by 5.2-5.6% with every core powered and 2.9-3.7% with one.
DIE_CURRENT_PEAKS = [
    (CORTEX_A72_PDN, 2, 67.0e6, 63.3e6),
    (CORTEX_A53_PDN, 4, 76.5e6, 72.2e6),
    (AMD_ATHLON_PDN, 4, 78.0e6, 74.0e6),
    (CORTEX_A72_PDN, 1, 83.0e6, 80.0e6),
    (CORTEX_A53_PDN, 1, 97.0e6, 93.6e6),
    (AMD_ATHLON_PDN, 1, 105.0e6, 102.0e6),
]


@pytest.mark.parametrize(
    "params, powered, z_peak_hz, h_peak_hz",
    DIE_CURRENT_PEAKS,
    ids=[f"{p.name}-{n}c" for p, n, _, _ in DIE_CURRENT_PEAKS],
)
def test_die_current_peaks_below_the_impedance_peak(
    params, powered, z_peak_hz, h_peak_hz
):
    band = np.arange(50.0e6, 200.0e6 + 1.0, 10.0e3)
    analysis = analyze_ac(PDNModel(params).ladder(powered), band)
    for transfer, peak_hz in (
        (closed_form_impedance(params, powered, band), z_peak_hz),
        (closed_form_die_current(params, powered, band), h_peak_hz),
        (analysis.impedance, z_peak_hz),
        (analysis.die_current, h_peak_hz),
    ):
        assert abs(band[int(np.argmax(np.abs(transfer)))] - peak_hz) < 0.1e6


@pytest.mark.parametrize("params, powered", STATES, ids=STATE_IDS)
def test_detailed_board_matches_the_mna_reference(params, powered):
    """Z and H_I of the detailed board against one MNA solve per
    frequency of the netlist its ladder stamps."""
    grid = np.logspace(3, 9, 301)
    analysis = detailed_impedance_analysis(params, powered, grid)
    circuit = build_detailed_board_circuit(params, powered)
    layout, solutions = analyze_ac_reference(circuit, DIE_NODE, grid)
    z_ref = solutions[:, layout.node(DIE_NODE)]
    # The reference injects 1 A into the die, so the package inductor's
    # current, counted from "pkg" to the die, is -H_I.
    h_ref = -solutions[:, layout.branch("pkg_trace.l")]
    assert _max_rel_err(analysis.impedance, z_ref) < REL_TOL
    assert _max_rel_err(analysis.die_current, h_ref) < REL_TOL
