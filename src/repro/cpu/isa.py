"""Instruction-set model: specs, operands and concrete instructions.

Instruction attributes follow what the GA optimization needs (Section
3.3 of the paper): a diverse pool spanning single-cycle and multi-cycle
latencies, integer/float/SIMD units and memory accesses.  Each spec
carries a *switching energy* used by the current model: high-IPC bursts
of cheap instructions draw large current, long non-pipelined operations
(DIV, FSQRT) stall issue and let current collapse -- exactly the
high/low alternation a dI/dt virus exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple


class _IdentityEnum(enum.Enum):
    """An enum whose members hash by identity.

    Members are singletons compared by identity, so the identity hash
    agrees with equality; it is computed in C, where ``enum.Enum``'s
    own ``__hash__`` hashes the member name in Python on every dict or
    set lookup, which the program packer and the scheduler make per
    instruction.
    """

    __hash__ = object.__hash__


class InstructionClass(_IdentityEnum):
    """Instruction-type taxonomy used in Table 2's mix breakdown."""

    BRANCH = "branch"
    INT_SHORT = "sl_int"
    INT_LONG = "ll_int"
    INT_SHORT_MEM = "sl_int_mem"  # x86 only: integer op with memory operand
    INT_LONG_MEM = "ll_int_mem"  # x86 only
    FLOAT = "float"
    SIMD = "simd"
    MEM = "mem"  # ARM only: explicit load/store


class ExecutionUnit(_IdentityEnum):
    """Functional units instructions contend for."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FPU = "fpu"
    FDIV = "fdiv"
    SIMD = "simd"
    LSU = "lsu"
    BRANCH = "branch"


class RegisterFile(_IdentityEnum):
    """Register namespaces; operands never cross namespaces."""

    INT = "int"
    FP = "fp"
    VEC = "vec"


@dataclass(frozen=True)
class InstructionSpec:
    """Static description of one opcode.

    Attributes
    ----------
    mnemonic:
        Assembly mnemonic, unique within an instruction set.
    iclass:
        Taxonomy bucket (drives Table 2 mix accounting).
    unit:
        Functional unit the instruction occupies.
    latency:
        Cycles from issue until the result is available.
    recip_throughput:
        Cycles the unit stays blocked per instruction (1 for fully
        pipelined units; equal to ``latency`` for non-pipelined DIV and
        SQRT, which is what creates low-current windows).
    energy:
        Switching energy per execution in arbitrary charge units;
        converted to amperes by :class:`repro.cpu.current.CurrentModel`.
    regfile:
        Register namespace of the operands.
    num_sources:
        Register source operands (memory forms also reference an
        address operand, tracked separately).
    touches_memory:
        Whether the instruction engages the load/store unit and L1
        (cache hits only -- the paper deliberately avoids misses).
    """

    mnemonic: str
    iclass: InstructionClass
    unit: ExecutionUnit
    latency: int
    recip_throughput: int
    energy: float
    regfile: RegisterFile = RegisterFile.INT
    num_sources: int = 2
    has_dest: bool = True
    touches_memory: bool = False

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError(f"{self.mnemonic}: latency must be >= 1")
        if not 1 <= self.recip_throughput <= self.latency:
            raise ValueError(
                f"{self.mnemonic}: recip_throughput must be in 1..latency"
            )
        if self.energy < 0.0:
            raise ValueError(f"{self.mnemonic}: energy must be >= 0")


@dataclass(frozen=True)
class Instruction:
    """A concrete instruction: an opcode with register/memory operands.

    This is the GA *gene*.  ``sources`` and ``dest`` are register
    numbers inside ``spec.regfile``; ``address`` is an abstract L1 slot
    index for memory forms (always a hit, per Section 3.3).
    """

    spec: InstructionSpec
    dest: Optional[int] = None
    sources: Tuple[int, ...] = ()
    address: Optional[int] = None

    # The gene cache :mod:`repro.cpu.program` keeps on the frozen
    # instance: its genome entry, or its checked and packed record.  A
    # class-level default, so reading it never builds the instance
    # ``__dict__``, and one attribute, which the instance stores
    # inline; a second one would give every gene its own dict.
    _gene = None

    def __post_init__(self) -> None:
        if self.spec.has_dest and self.dest is None:
            raise ValueError(f"{self.spec.mnemonic}: missing dest register")
        if len(self.sources) != self.spec.num_sources:
            raise ValueError(
                f"{self.spec.mnemonic}: expected {self.spec.num_sources} "
                f"sources, got {len(self.sources)}"
            )
        if self.spec.touches_memory and self.address is None:
            raise ValueError(f"{self.spec.mnemonic}: missing memory address")

    def __reduce__(self):
        # The fields alone: the gene cache never travels.
        return Instruction, (self.spec, self.dest, self.sources, self.address)

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    def assembly(self) -> str:
        """Render a readable assembly-like line."""
        prefix = {
            RegisterFile.INT: "r",
            RegisterFile.FP: "f",
            RegisterFile.VEC: "v",
        }[self.spec.regfile]
        parts = []
        if self.spec.has_dest:
            parts.append(f"{prefix}{self.dest}")
        parts.extend(f"{prefix}{s}" for s in self.sources)
        if self.spec.touches_memory:
            parts.append(f"[mem+{self.address}]")
        return f"{self.spec.mnemonic} " + ", ".join(parts)


@dataclass(frozen=True)
class InstructionSet:
    """A named collection of instruction specs plus register resources.

    ``registers`` maps each register file to the number of architectural
    registers the GA may use (the pre-initialized pool from the loop
    template, Section 3.3).
    """

    name: str
    specs: Tuple[InstructionSpec, ...]
    registers: Dict[RegisterFile, int] = field(
        default_factory=lambda: {
            RegisterFile.INT: 16,
            RegisterFile.FP: 16,
            RegisterFile.VEC: 16,
        }
    )
    memory_slots: int = 64

    def __post_init__(self) -> None:
        seen = set()
        for s in self.specs:
            if s.mnemonic in seen:
                raise ValueError(f"duplicate mnemonic {s.mnemonic!r}")
            seen.add(s.mnemonic)

    def spec(self, mnemonic: str) -> InstructionSpec:
        for s in self.specs:
            if s.mnemonic == mnemonic:
                return s
        raise KeyError(f"{self.name}: unknown mnemonic {mnemonic!r}")

    def by_class(self, iclass: InstructionClass) -> Tuple[InstructionSpec, ...]:
        return tuple(s for s in self.specs if s.iclass == iclass)

    def classes(self) -> Tuple[InstructionClass, ...]:
        ordered: Dict[InstructionClass, None] = {}
        for s in self.specs:
            ordered.setdefault(s.iclass)
        return tuple(ordered)

    def subset(self, mnemonics: Sequence[str]) -> "InstructionSet":
        """Restrict the pool to the given mnemonics (user XML spec)."""
        chosen = tuple(self.spec(m) for m in mnemonics)
        return InstructionSet(
            name=f"{self.name}-subset",
            specs=chosen,
            registers=dict(self.registers),
            memory_slots=self.memory_slots,
        )
