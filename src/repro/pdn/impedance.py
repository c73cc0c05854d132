"""Frequency-domain (AC) analysis of a PDN ladder.

The central quantity is the input impedance :math:`Z(f)` seen by the die
(Fig. 1b of the paper): with the supply shorted, draw 1 A at the die and
read back the die voltage.  The same fold yields H_I(f), the current
through the die's feed (the package trace) per ampere of load, which
the EM radiation model consumes: the emanating antenna is fed by the
oscillatory component of the die/package current.

The DC helpers at the end of the module solve the MNA netlist of any
:class:`~repro.pdn.netlist.Circuit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.pdn.elements import Capacitor, Inductor, Resistor, VoltageSource
from repro.pdn.ladder import Ladder
from repro.pdn.netlist import Circuit


@dataclass
class ACAnalysis:
    """Small-signal response of a ladder to 1 A drawn at its die.

    Attributes
    ----------
    frequencies_hz:
        The analysis grid.
    impedance:
        Z(f): complex die voltage per ampere of load.
    die_current:
        H_I(f): complex current through the die's feed, the ladder's
        last series section, per ampere of load; 1 at DC.
    """

    frequencies_hz: np.ndarray
    impedance: np.ndarray
    die_current: np.ndarray

    def impedance_magnitude(self) -> np.ndarray:
        return np.abs(self.impedance)

    def peak_frequency_hz(
        self, band: Optional[Sequence[float]] = None
    ) -> float:
        """Frequency of the largest impedance magnitude, optionally in ``band``.

        ``band`` is an inclusive ``(low_hz, high_hz)`` pair.  This locates
        resonance peaks: the first-order resonance is the peak in the
        50-200 MHz band.
        """
        mag = self.impedance_magnitude()
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


def analyze_ac(ladder: Ladder, frequencies_hz: Sequence[float]) -> ACAnalysis:
    """Fold ``ladder`` into Z(f) and H_I(f) over the whole grid.

    Starting from the shorted supply, a series section adds its
    impedance and a shunt section is put in parallel with what lies
    upstream of it.  ``Z_up``, the value after the last series section,
    is the impedance the die sees upstream through its feed; the shunts
    at the die then give ``Z``, and the feed carries ``H_I = Z / Z_up``
    of the load current.  Each section costs a few array operations
    over the grid.  Frequencies must be positive and finite: at DC a
    capacitor is an open circuit.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("frequencies_hz must be a non-empty 1-D sequence")
    if not (0.0 < freqs.min() and freqs.max() < np.inf):
        raise ValueError("frequencies_hz must be positive and finite")
    omega = 2.0 * np.pi * freqs
    r, l, elastance, shunts = ladder.section_values
    reactance = np.multiply.outer(l, omega) - np.divide.outer(elastance, omega)
    z = z_up = np.zeros(freqs.shape, dtype=complex)
    for z_section, shunt in zip(r + 1j * reactance, shunts):
        if shunt:
            z = z * z_section / (z + z_section)
        else:
            z = z_up = z + z_section
    return ACAnalysis(
        frequencies_hz=freqs, impedance=z, die_current=z / z_up
    )


def dc_operating_point(circuit: Circuit) -> Dict[str, float]:
    """DC node voltages with all sources at their nominal values.

    Inductors are shorts and capacitors are opens at DC, which
    :meth:`~repro.pdn.netlist.Circuit.dc_matrix` stamps.  Used to initialize
    transient analyses at the quiescent point.
    """
    layout = circuit.layout()
    a = circuit.dc_matrix()
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
    a = circuit.dc_matrix()
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
