"""Experimental platform models (Table 1 of the paper).

- :mod:`repro.platforms.base` -- the :class:`Cluster` abstraction: a
  group of identical cores on one voltage domain with clock, voltage
  and power-gating controls, wired to its PDN model.
- :mod:`repro.platforms.juno` -- ARM Juno R2: Cortex-A72 (dual core,
  OC-DSO + SCL) and Cortex-A53 (quad core, no voltage visibility)
  clusters behind an SCP-style control interface.
- :mod:`repro.platforms.amd` -- AMD Athlon II X4 645 desktop with
  Overdrive-style voltage/frequency control and Kelvin sense pads.
- :mod:`repro.platforms.registry` -- the Table 1 platform matrix.
- :mod:`repro.platforms.target` -- the workstation/target split of
  Section 3.2 (compile/run/kill protocol over a transport).
"""

from repro.platforms.base import (
    Cluster,
    ClusterSpec,
    NoiseVisibility,
)
from repro.platforms.gpu import GPUCard, make_gpu_card
from repro.platforms.juno import JunoBoard, make_juno_board
from repro.platforms.amd import AMDDesktop, make_amd_desktop
from repro.platforms.registry import PLATFORM_TABLE, PlatformInfo
from repro.platforms.target import SimulatedTarget, Workstation

__all__ = [
    "Cluster",
    "ClusterSpec",
    "NoiseVisibility",
    "JunoBoard",
    "make_juno_board",
    "GPUCard",
    "make_gpu_card",
    "AMDDesktop",
    "make_amd_desktop",
    "PLATFORM_TABLE",
    "PlatformInfo",
    "SimulatedTarget",
    "Workstation",
]
