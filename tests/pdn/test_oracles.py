"""Independent oracles for the PDN solver.

The Fig. 1(a) network is a series-parallel ladder of six RLC sections,
so the impedance the die sees has a closed form.  It is built here from
``PDNParameters`` fields only -- no netlist, no MNA stamps, no solve --
and checked against the blocked ``analyze_ac`` and the steady-state
solver's transfer-function grids on every platform and gating state.
Its peak in the first-order band must also land on the calibrated
resonances of DESIGN.md sections 5 and 6.
"""

import numpy as np
import pytest

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

REL_TOL = 1e-9

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


def closed_form_impedance(
    p: PDNParameters, powered_cores: int, frequencies_hz
) -> np.ndarray:
    """Z_die(f) = Z_die_cap || (Z_pkg + (Z_pkg_cap || (Z_pcb +
    (Z_bulk || Z_vrm)))), with the ideal supply shorted."""
    jw = 2j * np.pi * np.asarray(frequencies_hz, dtype=float)
    z_vrm = p.r_vrm + jw * p.l_vrm
    z_bulk = p.esr_pcb + jw * p.esl_pcb + 1.0 / (jw * p.c_pcb)
    z_pcb = p.r_pcb + jw * p.l_pcb
    z_pkg_cap = p.esr_pkg + jw * p.esl_pkg + 1.0 / (jw * p.c_pkg)
    z_pkg = p.r_pkg + jw * p.l_pkg
    c_die = p.c_die_base + powered_cores * p.c_die_per_core
    z_die_cap = p.r_die + 1.0 / (jw * c_die)
    return _parallel(
        z_die_cap,
        z_pkg + _parallel(z_pkg_cap, z_pcb + _parallel(z_bulk, z_vrm)),
    )


def _max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("params, powered", STATES, ids=STATE_IDS)
def test_analyze_ac_matches_the_closed_form(params, powered):
    grid = np.logspace(3, 9, 601)  # 1 kHz .. 1 GHz
    circuit = PDNModel(params).build_circuit(powered)
    z = analyze_ac(circuit, DIE_NODE, grid).impedance(DIE_NODE)
    assert _max_rel_err(z, closed_form_impedance(params, powered, grid)) < (
        REL_TOL
    )


@pytest.mark.parametrize("params, powered", STATES, ids=STATE_IDS)
def test_transfer_grids_match_the_closed_form(params, powered):
    solver = PDNModel(params).solver(powered)
    for n_samples, sample_rate_hz in GRIDS:
        z, _ = solver.compute_transfer_functions(n_samples, sample_rate_hz)
        harmonics = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)[1:]
        assert _max_rel_err(
            z[1:], closed_form_impedance(params, powered, harmonics)
        ) < REL_TOL
        # Bin 0 is the resistive DC path, read at 1 Hz.
        dc = closed_form_impedance(params, powered, [1.0])[0].real
        assert z[0].imag == 0.0
        assert abs(z[0].real - dc) < REL_TOL * abs(dc)


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
