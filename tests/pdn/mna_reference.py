"""Reference MNA assembly and AC solves: one element loop and one
``np.linalg.solve`` per frequency.

This is the oracle for the ladder fold in ``repro.pdn.impedance``,
run on the netlist a ladder stamps.  ``Circuit.dc_matrix`` must equal
``ac_matrix_reference`` at ``omega = 0`` bit for bit;
``transfer_functions_reference`` is the steady-state solver's
transfer-function grid as two analyses, the harmonics and a separate
1 Hz DC point.
"""

from typing import Sequence, Tuple

import numpy as np

from repro.pdn.elements import Capacitor, Inductor, Resistor, VoltageSource
from repro.pdn.netlist import Circuit, MNALayout


def ac_matrix_reference(
    circuit: Circuit, omega: float, layout: MNALayout
) -> np.ndarray:
    """Complex MNA matrix at ``omega``, stamped element by element."""
    n = layout.size
    a = np.zeros((n, n), dtype=complex)

    def stamp_admittance(na: str, nb: str, y: complex) -> None:
        ia, ib = layout.node(na), layout.node(nb)
        if ia >= 0:
            a[ia, ia] += y
        if ib >= 0:
            a[ib, ib] += y
        if ia >= 0 and ib >= 0:
            a[ia, ib] -= y
            a[ib, ia] -= y

    for e in circuit.elements:
        if isinstance(e, Resistor):
            stamp_admittance(e.node_a, e.node_b, 1.0 / e.resistance)
        elif isinstance(e, Capacitor):
            stamp_admittance(e.node_a, e.node_b, 1j * omega * e.capacitance)
        elif isinstance(e, Inductor):
            k = layout.branch(e.name)
            ia, ib = layout.node(e.node_a), layout.node(e.node_b)
            if ia >= 0:
                a[ia, k] += 1.0
                a[k, ia] += 1.0
            if ib >= 0:
                a[ib, k] -= 1.0
                a[k, ib] -= 1.0
            a[k, k] -= 1j * omega * e.inductance
        elif isinstance(e, VoltageSource):
            k = layout.branch(e.name)
            ia, ib = layout.node(e.node_a), layout.node(e.node_b)
            if ia >= 0:
                a[ia, k] += 1.0
                a[k, ia] += 1.0
            if ib >= 0:
                a[ib, k] -= 1.0
                a[k, ib] -= 1.0
        # CurrentSource stamps only the RHS.
    return a


def analyze_ac_reference(
    circuit: Circuit, inject_node: str, frequencies_hz: Sequence[float]
) -> Tuple[MNALayout, np.ndarray]:
    """``(layout, solutions)``: one solve per frequency, ``(F, n)``."""
    layout = circuit.layout()
    rhs = circuit.ac_rhs(layout, {inject_node: 1.0 + 0.0j})
    freqs = np.asarray(frequencies_hz, dtype=float)
    solutions = np.empty((freqs.size, layout.size), dtype=complex)
    for i, f in enumerate(freqs):
        a = ac_matrix_reference(circuit, 2.0 * np.pi * f, layout)
        solutions[i] = np.linalg.solve(a, rhs)
    return layout, solutions


def transfer_functions_reference(
    circuit: Circuit,
    die_node: str,
    sense_branch: str,
    n_samples: int,
    sample_rate_hz: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(Z, H_I)`` on the rfft grid: the harmonics in one analysis,
    then bin 0 from a second analysis at 1 Hz."""
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)
    layout, harmonics = analyze_ac_reference(circuit, die_node, freqs[1:])
    die, sense = layout.node(die_node), layout.branch(sense_branch)
    z = np.concatenate([[0.0 + 0.0j], harmonics[:, die]])
    h_i = np.concatenate([[0.0 + 0.0j], harmonics[:, sense]])
    _, dc = analyze_ac_reference(circuit, die_node, [1.0])
    z[0] = np.real(dc[0, die])
    h_i[0] = np.real(dc[0, sense])
    if h_i[0] < 0.0:
        h_i = -h_i
        h_i[0] = abs(h_i[0])
    return z, h_i


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()
