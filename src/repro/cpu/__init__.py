"""Cycle-level CPU models that turn instruction loops into current traces.

The paper's methodology only consumes one property of the CPU under
test: the *shape of the supply-current waveform* that a given
instruction loop produces.  This package provides that substrate:

- :mod:`repro.cpu.isa` -- instruction/operand model with per-class
  latency, execution-unit and switching-energy attributes.
- :mod:`repro.cpu.arm` / :mod:`repro.cpu.x86` -- concrete instruction
  tables following Section 3.3's instruction-mix recipe (short/long
  latency integer, float, SIMD, memory, dummy branches; x86 memory
  operands instead of explicit loads/stores).
- :mod:`repro.cpu.pipeline` -- in-order dual-issue (Cortex-A53-like)
  and out-of-order (Cortex-A72 / Athlon-like) issue models.
- :mod:`repro.cpu.program` -- loop programs: the payload the GA evolves.
- :mod:`repro.cpu.current` -- issue schedule -> per-cycle current trace.
- :mod:`repro.cpu.multicore` -- per-core traces combined onto the rail.
"""

from repro.cpu.isa import (
    Instruction,
    InstructionClass,
    InstructionSpec,
    InstructionSet,
    RegisterFile,
)
from repro.cpu.arm import ARM_ISA
from repro.cpu.x86 import X86_ISA
from repro.cpu.pipeline import (
    InOrderPipeline,
    OutOfOrderPipeline,
    Pipeline,
    Schedule,
)
from repro.cpu.program import LoopProgram
from repro.cpu.current import CurrentModel
from repro.cpu.multicore import ClusterExecution

__all__ = [
    "Instruction",
    "InstructionClass",
    "InstructionSpec",
    "InstructionSet",
    "RegisterFile",
    "ARM_ISA",
    "X86_ISA",
    "Pipeline",
    "InOrderPipeline",
    "OutOfOrderPipeline",
    "Schedule",
    "LoopProgram",
    "CurrentModel",
    "ClusterExecution",
]
