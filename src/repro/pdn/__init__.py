"""Power-delivery-network (PDN) circuit simulation substrate.

The paper models the PDN of a die/package/PCB system as a distributed RLC
network (Fig. 1a) and characterizes it with HSPICE plus physical
measurements.  This package provides the equivalent in pure Python:

- :mod:`repro.pdn.elements` / :mod:`repro.pdn.netlist` -- a small
  modified-nodal-analysis (MNA) circuit builder supporting R, L, C,
  voltage sources and (time-varying) current sources.
- :mod:`repro.pdn.ladder` -- the PDN as an ordered ladder of series and
  shunt R-L-C sections, described once; it stamps the MNA netlist.
- :mod:`repro.pdn.impedance` -- AC analysis that folds a ladder into the
  input impedance :math:`Z(f)` seen by the die (Fig. 1b) and the die
  current transfer :math:`H_I(f)`, plus DC helpers on the netlist.
- :mod:`repro.pdn.transient` -- trapezoidal time-domain integration for
  step and pulsed current excitations (Figs. 1c and 2).
- :mod:`repro.pdn.steady_state` -- exact periodic steady-state solver
  (harmonic decomposition against the AC transfer functions) used as
  the fast path for GA fitness evaluation.
- :mod:`repro.pdn.models` -- per-platform PDN presets calibrated so that
  the first-order resonance frequencies match the paper's measurements.
"""

from repro.pdn.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.pdn.netlist import Circuit, GROUND
from repro.pdn.ladder import Ladder, Section
from repro.pdn.impedance import ACAnalysis, analyze_ac
from repro.pdn.transient import TransientResult, TransientSolver
from repro.pdn.steady_state import PeriodicResponse, SteadyStateSolver
from repro.pdn.models import PDNModel, PDNParameters, first_order_resonance_hz

__all__ = [
    "Resistor",
    "Inductor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Circuit",
    "GROUND",
    "Ladder",
    "Section",
    "ACAnalysis",
    "analyze_ac",
    "TransientSolver",
    "TransientResult",
    "SteadyStateSolver",
    "PeriodicResponse",
    "PDNModel",
    "PDNParameters",
    "first_order_resonance_hz",
]
