"""Detailed multi-bank board model (opt-in).

The platform presets in :mod:`repro.pdn.models` use a single package
bank and a single bulk bank -- enough for every evaluated experiment,
but it compresses the second/third-order impedance peaks toward
0.5-0.8 MHz (EXPERIMENTS.md, deviation 3).  This module builds a
richer board for studies that care about the low-frequency decades:

- the package bank (low-ESL ceramics) exactly as in the preset, so the
  **first-order tank is bit-identical** to the calibrated model;
- a mid-frequency ceramic bank (4.7 uF) behind the socket trace,
  forming the second-order tank in the paper's 1-10 MHz decade;
- a bulk electrolytic (1500 uF, 25 mOhm ESR) behind the power planes
  and a realistic VRM output inductance, putting the third-order tank
  at ~10 kHz as in Fig. 1(b).

The richer board also exposes a classic board-design hazard the simple
model hides: the anti-resonance between the mid bank and the bulk bank
(a few hundred kHz) can peak *above* the first-order tank -- one more
reason real PDN sign-off sweeps the whole spectrum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pdn.elements import VoltageSource
from repro.pdn.impedance import ACAnalysis, analyze_ac
from repro.pdn.ladder import Ladder, Section
from repro.pdn.models import (
    PKG_NODE,
    VRM_NODE,
    PDNParameters,
    package_sections,
)
from repro.pdn.netlist import GROUND, Circuit

MID_NODE = "mid"
BULK_NODE = "bulk"


def detailed_board_ladder(
    params: PDNParameters,
    powered_cores: int,
    mid_c: float = 4.7e-6,
    mid_esr: float = 10.0e-3,
    mid_esl: float = 2.0e-9,
    bulk_c: float = 1500.0e-6,
    bulk_esr: float = 15.0e-3,
    bulk_esl: float = 5.0e-9,
    l_vrm: float = 400.0e-9,
    plane_r: float = 0.5e-3,
    plane_l: float = 2.0e-9,
) -> Ladder:
    """The detailed die/package/board network as a ladder.

    Everything from the package node to the die copies the calibrated
    preset verbatim; only the board side is elaborated.
    """
    p = params
    return Ladder(
        f"{p.name}-detailed-{powered_cores}c",
        VoltageSource("vdd", VRM_NODE, GROUND, voltage=p.nominal_voltage),
        (
            Section("vrm_out", BULK_NODE, 0.5e-3, l_vrm),
            Section("bulk_cap", GROUND, bulk_esr, bulk_esl, bulk_c),
            Section("plane", MID_NODE, plane_r, plane_l),
            Section("mid_cap", GROUND, mid_esr, mid_esl, mid_c),
            Section("pcb_trace", PKG_NODE, 4.0e-3, 1.0e-9),
            *package_sections(p, powered_cores),
        ),
    )


def build_detailed_board_circuit(
    params: PDNParameters, powered_cores: int, **board_kwargs
) -> Circuit:
    """The MNA netlist of :func:`detailed_board_ladder`."""
    ladder = detailed_board_ladder(params, powered_cores, **board_kwargs)
    return ladder.circuit()


def detailed_impedance_analysis(
    params: PDNParameters,
    powered_cores: int,
    frequencies_hz: Sequence[float],
    **board_kwargs,
) -> ACAnalysis:
    """AC analysis of the detailed board, seen from the die."""
    ladder = detailed_board_ladder(params, powered_cores, **board_kwargs)
    return analyze_ac(ladder, frequencies_hz)


def impedance_peaks(
    frequencies_hz: np.ndarray, magnitude: np.ndarray
) -> list:
    """(frequency, |Z|) of every local impedance maximum, ascending."""
    f = np.asarray(frequencies_hz, dtype=float)
    z = np.asarray(magnitude, dtype=float)
    peaks = [
        (float(f[i]), float(z[i]))
        for i in range(1, z.size - 1)
        if z[i] > z[i - 1] and z[i] > z[i + 1]
    ]
    return sorted(peaks)
