"""Frequency-domain (AC) analysis of a PDN netlist.

The central quantity is the input impedance :math:`Z(f)` seen by the die
(Fig. 1b of the paper): with all independent sources zeroed, inject a
1 A phasor at the die node and read back the node voltage.  The same
solve also yields the transfer function from load current to any branch
current, which the EM radiation model consumes (the emanating antenna is
fed by the oscillatory component of the die/package current).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.pdn.elements import Capacitor, Inductor, Resistor, VoltageSource
from repro.pdn.netlist import Circuit


@dataclass
class ACAnalysis:
    """Small-signal AC solution of a circuit over a frequency grid.

    Attributes
    ----------
    frequencies_hz:
        The analysis grid.
    node_voltages:
        Mapping node name -> complex response array (volts per ampere of
        injected stimulus).
    branch_currents:
        Mapping branch-element name (inductors, voltage sources) ->
        complex branch current response.
    """

    frequencies_hz: np.ndarray
    node_voltages: Dict[str, np.ndarray]
    branch_currents: Dict[str, np.ndarray]

    def impedance(self, node: str) -> np.ndarray:
        """Complex impedance at ``node`` (stimulus was 1 A into it)."""
        return self.node_voltages[node]

    def impedance_magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.node_voltages[node])

    def peak_frequency_hz(
        self,
        node: str,
        band: Optional[Sequence[float]] = None,
    ) -> float:
        """Frequency of the largest impedance magnitude, optionally in ``band``.

        ``band`` is an inclusive ``(low_hz, high_hz)`` pair.  This locates
        resonance peaks: the first-order resonance is the peak in the
        50-200 MHz band.
        """
        mag = self.impedance_magnitude(node)
        freqs = self.frequencies_hz
        if band is not None:
            mask = points_in_band(freqs, band)
            mag = mag[mask]
            freqs = freqs[mask]
        return float(freqs[int(np.argmax(mag))])


def points_in_band(
    frequencies_hz: np.ndarray, band: Sequence[float]
) -> np.ndarray:
    """Mask of the grid points inside the inclusive ``(low_hz, high_hz)``
    band; raises ``ValueError`` when none is."""
    low, high = band
    mask = (frequencies_hz >= low) & (frequencies_hz <= high)
    if not mask.any():
        raise ValueError(f"no analysis points inside band {band}")
    return mask


#: Frequencies per batched solve.  One ``np.linalg.solve`` call per block
#: amortizes the per-call cost, while the block's ``(AC_BLOCK, n, n)``
#: matrices stay small however long the grid is.
AC_BLOCK = 32


def analyze_ac(
    circuit: Circuit,
    inject_node: str,
    frequencies_hz: Sequence[float],
) -> ACAnalysis:
    """Solve the circuit at each frequency with a 1 A injection.

    Independent voltage sources are shorted (zeroed) as usual for
    small-signal analysis; the current injection enters ``inject_node``
    and returns through ground.  The grid is solved in blocks of
    :data:`AC_BLOCK` frequencies, each as one stacked linear system;
    every frequency's solution is the same bits as a solve of its own
    ``circuit.ac_matrix``.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("frequencies_hz must be a non-empty 1-D sequence")
    stamps = circuit.stamps()
    layout = stamps.layout
    if inject_node != "0" and inject_node not in layout.node_index:
        raise KeyError(f"unknown node {inject_node!r}")

    omegas = 2.0 * np.pi * freqs
    solutions = np.empty((freqs.size, layout.size), dtype=complex)
    rhs = circuit.ac_rhs(layout, {inject_node: 1.0 + 0.0j})[:, None]
    for start in range(0, freqs.size, AC_BLOCK):
        a = stamps.matrices(omegas[start:start + AC_BLOCK])
        b = np.broadcast_to(rhs, (a.shape[0],) + rhs.shape)
        solutions[start:start + a.shape[0]] = np.linalg.solve(a, b)[..., 0]

    node_voltages = {
        name: solutions[:, idx] for name, idx in layout.node_index.items()
    }
    offset = layout.num_nodes
    branch_currents = {
        name: solutions[:, offset + idx]
        for name, idx in layout.branch_index.items()
    }
    return ACAnalysis(
        frequencies_hz=freqs,
        node_voltages=node_voltages,
        branch_currents=branch_currents,
    )


def input_impedance(
    circuit: Circuit,
    node: str,
    frequencies_hz: Sequence[float],
) -> np.ndarray:
    """Convenience wrapper: complex input impedance Z(f) at ``node``."""
    return analyze_ac(circuit, node, frequencies_hz).impedance(node)


def dc_operating_point(circuit: Circuit) -> Dict[str, float]:
    """DC node voltages with all sources at their nominal values.

    Inductors are shorts and capacitors are opens at DC, which the MNA
    stamps handle naturally at ``omega = 0``.  Used to initialize
    transient analyses at the quiescent point.
    """
    layout = circuit.layout()
    a = circuit.ac_matrix(0.0)
    injections: Dict[str, complex] = {}
    for src in circuit.current_sources():
        i0 = src.value_at(0.0)
        injections[src.node_a] = injections.get(src.node_a, 0.0) - i0
        injections[src.node_b] = injections.get(src.node_b, 0.0) + i0
    b = circuit.ac_rhs(layout, injections, source_voltages=True)
    # Capacitors contribute nothing at omega=0; if a node is connected
    # only through capacitors the matrix is singular.  Regularize with a
    # tiny leak conductance to ground on every node.
    a = a + np.diag(
        np.concatenate(
            [np.full(layout.num_nodes, 1e-12), np.zeros(layout.num_branches)]
        )
    )
    x = np.linalg.solve(a, b)
    return {
        name: float(np.real(x[idx])) for name, idx in layout.node_index.items()
    }


def total_series_resistance(circuit: Circuit, from_node: str) -> float:
    """DC (IR) resistance seen from ``from_node`` back to the supply."""
    layout = circuit.layout()
    a = circuit.ac_matrix(0.0)
    a = a + np.diag(
        np.concatenate(
            [np.full(layout.num_nodes, 1e-12), np.zeros(layout.num_branches)]
        )
    )
    b = circuit.ac_rhs(layout, {from_node: 1.0 + 0.0j})
    x = np.linalg.solve(a, b)
    return float(np.real(x[layout.node(from_node)]))


def describe_elements(circuit: Circuit) -> str:
    """Human-readable one-line-per-element netlist dump."""
    lines = []
    for e in circuit.elements:
        if isinstance(e, Resistor):
            value = f"{e.resistance:g} ohm"
        elif isinstance(e, Inductor):
            value = f"{e.inductance:g} H"
        elif isinstance(e, Capacitor):
            value = f"{e.capacitance:g} F"
        elif isinstance(e, VoltageSource):
            value = f"{e.voltage:g} V"
        else:
            value = "source"
        lines.append(f"{e.name:<16} {e.node_a:>8} -> {e.node_b:<8} {value}")
    return "\n".join(lines)
