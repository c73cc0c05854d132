"""Netlist container and modified-nodal-analysis (MNA) matrix assembly.

The :class:`Circuit` collects elements and assigns MNA indices:

- one unknown per non-ground node (its voltage), and
- one unknown per *branch element* (inductors and voltage sources),
  whose current is solved explicitly.

The transient solver and the DC helpers share this index layout, so
results can be cross-referenced by element name.  The frequency-domain
analysis does not solve the netlist: it folds the PDN's
:class:`~repro.pdn.ladder.Ladder`, which stamps this circuit.

The DC part of the matrix is stamped once per circuit into
:class:`MNAStamps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.pdn.elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    VoltageSource,
)

GROUND = "0"


@dataclass(frozen=True)
class MNALayout:
    """Index assignment for the MNA unknown vector.

    The unknown vector is ``[node_voltages..., branch_currents...]``:
    node ``n`` is at index ``node_index[n]`` and branch element ``e`` is
    at ``num_nodes + branch_index[e.name]``.
    """

    node_index: Dict[str, int]
    branch_index: Dict[str, int]

    @property
    def num_nodes(self) -> int:
        return len(self.node_index)

    @property
    def num_branches(self) -> int:
        return len(self.branch_index)

    @property
    def size(self) -> int:
        return self.num_nodes + self.num_branches

    def node(self, name: str) -> int:
        """Index of node ``name`` in the unknown vector (-1 for ground)."""
        if name == GROUND:
            return -1
        return self.node_index[name]

    def branch(self, element_name: str) -> int:
        """Index of a branch element's current in the unknown vector."""
        return self.num_nodes + self.branch_index[element_name]


@dataclass(frozen=True)
class MNAStamps:
    """A circuit's MNA layout and its matrix at DC (``omega = 0``).

    ``conductance`` holds the resistor admittances and the +-1 entries
    that tie each branch element's current to its terminals.  At DC an
    inductor is a short and a capacitor an open, so neither adds more.
    """

    layout: MNALayout
    conductance: np.ndarray


class Circuit:
    """A linear RLC circuit assembled incrementally.

    >>> c = Circuit("tank")
    >>> c.add(Resistor("r1", "in", "0", resistance=1.0))
    >>> c.add(Capacitor("c1", "in", "0", capacitance=1e-9))
    >>> sorted(c.nodes)
    ['in']
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._elements: List[Element] = []
        self._names: set = set()
        self._stamps: Optional[MNAStamps] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add ``element``; element names must be unique within a circuit."""
        if element.name in self._names:
            raise ValueError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        self._elements.append(element)
        self._stamps = None
        return element

    def add_series_rlc(
        self,
        prefix: str,
        node_a: str,
        node_b: str,
        resistance: float = 0.0,
        inductance: float = 0.0,
        capacitance: float = 0.0,
    ) -> None:
        """Add a series R-L-C chain between ``node_a`` and ``node_b``.

        Elements with a zero value are omitted; internal nodes are named
        ``<prefix>.n1``, ``<prefix>.n2``.  At least one element must be
        present.  This models a real decoupling capacitor (C + ESR + ESL)
        or a power trace (R + L) in one call.
        """
        stages: List[Tuple[str, float]] = []
        if resistance > 0.0:
            stages.append(("r", resistance))
        if inductance > 0.0:
            stages.append(("l", inductance))
        if capacitance > 0.0:
            stages.append(("c", capacitance))
        if not stages:
            raise ValueError(f"series chain {prefix!r} has no nonzero elements")

        nodes = [node_a]
        nodes.extend(f"{prefix}.n{i}" for i in range(1, len(stages)))
        nodes.append(node_b)
        for (kind, value), a, b in zip(stages, nodes[:-1], nodes[1:]):
            name = f"{prefix}.{kind}"
            if kind == "r":
                self.add(Resistor(name, a, b, resistance=value))
            elif kind == "l":
                self.add(Inductor(name, a, b, inductance=value))
            else:
                self.add(Capacitor(name, a, b, capacitance=value))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def elements(self) -> Tuple[Element, ...]:
        return tuple(self._elements)

    @property
    def nodes(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for e in self._elements:
            for n in (e.node_a, e.node_b):
                if n != GROUND:
                    seen.setdefault(n)
        return tuple(seen)

    def element(self, name: str) -> Element:
        for e in self._elements:
            if e.name == name:
                return e
        raise KeyError(f"no element named {name!r} in circuit {self.name!r}")

    def current_sources(self) -> Tuple[CurrentSource, ...]:
        return tuple(e for e in self._elements if isinstance(e, CurrentSource))

    # ------------------------------------------------------------------
    # MNA assembly
    # ------------------------------------------------------------------
    def layout(self) -> MNALayout:
        """MNA indices of the nodes and branch elements."""
        return self.stamps().layout

    def stamps(self) -> MNAStamps:
        """The DC stamps, computed on first use after the last :meth:`add`."""
        if self._stamps is None:
            self._stamps = self._stamp()
        return self._stamps

    def _stamp(self) -> MNAStamps:
        node_index = {n: i for i, n in enumerate(self.nodes)}
        branch_names = [
            e.name
            for e in self._elements
            if isinstance(e, (Inductor, VoltageSource))
        ]
        branch_index = {n: i for i, n in enumerate(branch_names)}
        layout = MNALayout(node_index=node_index, branch_index=branch_index)
        n = layout.size
        g = np.zeros((n, n))
        for e in self._elements:
            ia, ib = layout.node(e.node_a), layout.node(e.node_b)
            if isinstance(e, Resistor):
                y = 1.0 / e.resistance
                if ia >= 0:
                    g[ia, ia] += y
                if ib >= 0:
                    g[ib, ib] += y
                if ia >= 0 and ib >= 0:
                    g[ia, ib] -= y
                    g[ib, ia] -= y
            elif isinstance(e, (Inductor, VoltageSource)):
                k = layout.branch(e.name)
                if ia >= 0:
                    g[ia, k] += 1.0
                    g[k, ia] += 1.0
                if ib >= 0:
                    g[ib, k] -= 1.0
                    g[k, ib] -= 1.0
            # Capacitors are open at DC; CurrentSource stamps only the RHS.
        # Every later analysis of this circuit shares the array.
        g.flags.writeable = False
        return MNAStamps(layout=layout, conductance=g)

    def dc_matrix(self) -> np.ndarray:
        """A writable copy of the real MNA matrix at DC."""
        return self.stamps().conductance.copy()

    def ac_rhs(
        self,
        layout: MNALayout,
        injections: Dict[str, complex],
        source_voltages: bool = False,
    ) -> np.ndarray:
        """Complex RHS vector.

        ``injections`` maps node name -> phasor current injected *into*
        that node.  When ``source_voltages`` is true, voltage sources
        impose their DC value; otherwise they are zeroed (the convention
        for small-signal impedance analysis).
        """
        b = np.zeros(layout.size, dtype=complex)
        for node, current in injections.items():
            idx = layout.node(node)
            if idx >= 0:
                b[idx] += current
        if source_voltages:
            for e in self._elements:
                if isinstance(e, VoltageSource):
                    b[layout.branch(e.name)] = e.voltage
        return b
