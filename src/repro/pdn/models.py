"""Calibrated per-platform PDN models.

Each platform in the paper (Table 1) gets a :class:`PDNParameters`
preset whose first-order LC tank (die capacitance against package
inductance) is calibrated to the resonance frequencies the paper
measured:

- Cortex-A72 cluster: 67 MHz with both cores powered, ~83 MHz with one
  (Figs. 7, 8, 11).
- Cortex-A53 cluster: 76.5 MHz with four cores powered, rising to
  ~97 MHz with one (Fig. 13).
- AMD Athlon II X4 645: 78 MHz (Figs. 16, 17).

Die capacitance follows ``C(n) = c_die_base + n * c_die_per_core``: a
power-gated core removes its local decoupling capacitance from the rail
(Section 6 of the paper), shifting the resonance up.  The second- and
third-order tanks (package/PCB decap networks) use representative
values placing them at a few MHz and a few tens of kHz (Fig. 1b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.pdn.elements import VoltageSource
from repro.pdn.impedance import ACAnalysis, analyze_ac
from repro.pdn.ladder import Ladder, Section
from repro.pdn.netlist import GROUND, Circuit
from repro.pdn.steady_state import SteadyStateSolver

DIE_NODE = "die"
PKG_NODE = "pkg"
PCB_NODE = "pcb"
VRM_NODE = "vrm"


@dataclass(frozen=True)
class PDNParameters:
    """Electrical parameters of a die/package/PCB power-delivery network."""

    name: str
    nominal_voltage: float
    num_cores: int
    # First-order tank (die cap vs package inductance).
    c_die_base: float
    c_die_per_core: float
    r_die: float
    l_pkg: float
    r_pkg: float
    # Second-order tank (package/PCB decap vs board trace inductance).
    c_pkg: float
    esr_pkg: float
    esl_pkg: float
    l_pcb: float
    r_pcb: float
    # Third-order tank (bulk capacitance vs VRM inductance).
    c_pcb: float
    esr_pcb: float
    esl_pcb: float
    l_vrm: float
    r_vrm: float

    def die_capacitance(self, powered_cores: int) -> float:
        """Total on-die capacitance with ``powered_cores`` cores powered."""
        if not 1 <= powered_cores <= self.num_cores:
            raise ValueError(
                f"{self.name}: powered_cores must be in 1..{self.num_cores}"
            )
        return self.c_die_base + powered_cores * self.c_die_per_core


def package_sections(
    params: PDNParameters, powered_cores: int
) -> Tuple[Section, ...]:
    """The package bank, package trace and die capacitance, from the
    package node to the die: the first-order tank and its neighbour."""
    p = params
    c_die = p.die_capacitance(powered_cores)
    return (
        Section("pkg_cap", GROUND, p.esr_pkg, p.esl_pkg, p.c_pkg),
        Section("pkg_trace", DIE_NODE, p.r_pkg, p.l_pkg),
        Section("die_cap", GROUND, p.r_die, capacitance=c_die),
    )


def first_order_resonance_hz(
    params: PDNParameters, powered_cores: int
) -> float:
    """Analytic estimate of the first-order resonance frequency.

    ``f = 1 / (2 pi sqrt(L_pkg * C_die))`` -- the tank formed by the die
    capacitance and the package inductance.  The full AC analysis
    shifts this slightly (damping, downstream network); use
    :meth:`PDNModel.measured_resonance_hz` for the exact network value.
    """
    c = params.die_capacitance(powered_cores)
    return 1.0 / (2.0 * math.pi * math.sqrt(params.l_pkg * c))


class PDNModel:
    """A platform PDN: builds circuits and solvers per power-gating state."""

    def __init__(self, params: PDNParameters):
        self.params = params
        self._solvers: Dict[int, SteadyStateSolver] = {}

    @property
    def name(self) -> str:
        return self.params.name

    @property
    def nominal_voltage(self) -> float:
        return self.params.nominal_voltage

    def ladder(self, powered_cores: int) -> Ladder:
        """The Fig. 1(a) network for a power-gating state, from the VRM
        to the die."""
        p = self.params
        return Ladder(
            f"{p.name}-pdn-{powered_cores}c",
            VoltageSource("vdd", VRM_NODE, GROUND, voltage=p.nominal_voltage),
            (
                Section("vrm_out", PCB_NODE, p.r_vrm, p.l_vrm),
                Section("bulk_cap", GROUND, p.esr_pcb, p.esl_pcb, p.c_pcb),
                Section("pcb_trace", PKG_NODE, p.r_pcb, p.l_pcb),
                *package_sections(p, powered_cores),
            ),
        )

    def build_circuit(self, powered_cores: int) -> Circuit:
        """The MNA netlist of :meth:`ladder`."""
        return self.ladder(powered_cores).circuit()

    def solver(self, powered_cores: int) -> SteadyStateSolver:
        """Cached periodic steady-state solver for a power-gating state."""
        solver = self._solvers.get(powered_cores)
        if solver is None:
            solver = SteadyStateSolver(self.ladder(powered_cores))
            self._solvers[powered_cores] = solver
        return solver

    def impedance_analysis(
        self, frequencies_hz: Sequence[float], powered_cores: int
    ) -> ACAnalysis:
        """AC analysis (impedance seen by the die) for Fig. 1(b) style plots."""
        return analyze_ac(self.ladder(powered_cores), frequencies_hz)

    def analytic_resonance_hz(self, powered_cores: int) -> float:
        return first_order_resonance_hz(self.params, powered_cores)

    def measured_resonance_hz(
        self,
        powered_cores: int,
        band: Sequence[float] = (50e6, 200e6),
        points: int = 601,
    ) -> float:
        """First-order resonance located on the full network's Z(f) peak."""
        freqs = np.linspace(band[0], band[1], points)
        analysis = self.impedance_analysis(freqs, powered_cores)
        return analysis.peak_frequency_hz()


# ---------------------------------------------------------------------------
# Calibrated presets (see module docstring for the target frequencies)
# ---------------------------------------------------------------------------

_DOWNSTREAM = dict(
    c_pkg=10.0e-6,
    esr_pkg=2.0e-3,
    esl_pkg=10.0e-12,
    l_pcb=0.5e-9,
    r_pcb=1.0e-3,
    c_pcb=1.0e-3,
    esr_pcb=15.0e-3,
    esl_pcb=2.0e-9,
    l_vrm=120.0e-9,
    r_vrm=1.0e-3,
)

CORTEX_A72_PDN = PDNParameters(
    name="cortex-a72",
    nominal_voltage=1.0,
    num_cores=2,
    c_die_base=68.04e-9,
    c_die_per_core=81.52e-9,
    r_die=2.0e-3,
    l_pkg=15.0e-12,
    r_pkg=1.0e-3,
    **_DOWNSTREAM,
)

CORTEX_A53_PDN = PDNParameters(
    name="cortex-a53",
    nominal_voltage=1.0,
    num_cores=4,
    c_die_base=86.51e-9,
    c_die_per_core=22.51e-9,
    r_die=2.5e-3,
    l_pkg=15.0e-12,
    r_pkg=1.2e-3,
    **_DOWNSTREAM,
)

AMD_ATHLON_PDN = PDNParameters(
    name="amd-athlon-ii-x4-645",
    nominal_voltage=1.4,
    num_cores=4,
    c_die_base=105.37e-9,
    c_die_per_core=40.49e-9,
    r_die=1.2e-3,
    l_pkg=6.0e-12,
    r_pkg=0.4e-3,
    **_DOWNSTREAM,
)

PRESETS: Dict[str, PDNParameters] = {
    p.name: p for p in (CORTEX_A72_PDN, CORTEX_A53_PDN, AMD_ATHLON_PDN)
}


def preset(name: str) -> PDNParameters:
    """Look up a calibrated PDN preset by platform name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown PDN preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def scaled(params: PDNParameters, **overrides: float) -> PDNParameters:
    """Return a copy of ``params`` with fields replaced (for ablations)."""
    return replace(params, **overrides)
