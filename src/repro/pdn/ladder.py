"""Series-parallel ladder description of a power-delivery network.

Every PDN this package models is a ladder (Fig. 1a): walking from the
supply to the die, *series* sections (VRM output, board and package
traces) carry the current one node further, and *shunt* sections
(decoupling banks, the die capacitance) return it to ground from the
node reached so far.  A :class:`Ladder` describes the network once: it
stamps the MNA :class:`~repro.pdn.netlist.Circuit` that the transient
solver and the DC helpers use, and :func:`repro.pdn.impedance.analyze_ac`
folds the same sections into Z(f) and H_I(f), so the two cannot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.pdn.elements import VoltageSource
from repro.pdn.netlist import GROUND, Circuit


@dataclass(frozen=True)
class Section:
    """A series R-L-C chain from the node reached so far to ``to``:
    a shunt when ``to`` is :data:`~repro.pdn.netlist.GROUND`, otherwise
    a series section after which the ladder continues from ``to``.
    Zero values are omitted, as by
    :meth:`~repro.pdn.netlist.Circuit.add_series_rlc`, which stamps the
    elements ``<name>.r``, ``<name>.l`` and ``<name>.c``.
    """

    name: str
    to: str
    resistance: float = 0.0
    inductance: float = 0.0
    capacitance: float = 0.0

    def __post_init__(self) -> None:
        values = (self.resistance, self.inductance, self.capacitance)
        if not (
            all(math.isfinite(v) and v >= 0.0 for v in values) and any(values)
        ):
            raise ValueError(
                f"section {self.name!r} needs finite, non-negative values, "
                f"not all zero"
            )

    @property
    def shunt(self) -> bool:
        return self.to == GROUND


@dataclass(frozen=True)
class Ladder:
    """An ideal supply from ``supply.node_a`` to ground, then sections
    in order.  Each series section leads to a new node; the last one
    feeds the die, and its current is the die current H_I that the EM
    model radiates.
    """

    name: str
    supply: VoltageSource
    sections: Tuple[Section, ...]

    def __post_init__(self) -> None:
        nodes = [self.supply.node_a]
        nodes += [s.to for s in self.sections if not s.shunt]
        if len(nodes) == 1:
            raise ValueError(f"ladder {self.name!r} has no series section")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"ladder {self.name!r} revisits a node")

    @cached_property
    def section_values(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[bool, ...]]:
        """``(R, L, 1/C, shunt)`` of the sections in order, so a section's
        impedance at ``omega`` is ``R + j(omega L - (1/C) / omega)``.
        ``R`` is a column; ``1/C`` is zero where a section has no
        capacitor."""
        r = np.array([[s.resistance] for s in self.sections])
        l = np.array([s.inductance for s in self.sections])
        elastance = np.array([
            1.0 / s.capacitance if s.capacitance else 0.0
            for s in self.sections
        ])
        return r, l, elastance, tuple(s.shunt for s in self.sections)

    def circuit(self) -> Circuit:
        """The MNA netlist: the supply, then each section's elements in
        order."""
        c = Circuit(self.name)
        c.add(self.supply)
        node = self.supply.node_a
        for s in self.sections:
            c.add_series_rlc(
                s.name,
                node,
                s.to,
                resistance=s.resistance,
                inductance=s.inductance,
                capacitance=s.capacitance,
            )
            if not s.shunt:
                node = s.to
        return c
