"""Loop programs: the unit of work the GA evolves and CPUs execute.

A :class:`LoopProgram` is a fixed-length loop body of concrete
instructions (the paper uses 50) plus the implicit loop back-edge.  The
surrounding template (pre-initialized registers, steering code) is
abstracted away: registers are assumed initialized, and memory operands
always hit L1 (Section 3.3 -- cache misses are deliberately avoided for
determinism).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.isa import (
    Instruction,
    InstructionClass,
    InstructionSet,
    InstructionSpec,
    RegisterFile,
)


class Genome(tuple):
    """A loop body's ``(mnemonic, dest, sources, address)`` entries, as
    a tuple that computes its hash once.

    It compares and hashes exactly like the plain tuple of the same
    entries, so it finds, and is found by, plain-tuple keys (a GA
    checkpoint restores plain tuples), and ``json.dumps`` writes the
    same text.  The hash is never pickled: string hashes differ per
    process, so an unpickled genome hashes afresh.
    """

    def __new__(cls, entries) -> "Genome":
        genome = super().__new__(cls, entries)
        genome._hash = tuple.__hash__(genome)
        return genome

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Genome, (tuple(self),)


@dataclass(frozen=True)
class LoopProgram:
    """An instruction loop bound to the instruction set it draws from."""

    isa: InstructionSet
    body: Tuple[Instruction, ...]
    name: str = "loop"

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("loop body must contain at least one instruction")
        limits = self.isa.registers
        slots = self.isa.memory_slots
        for i, instr in enumerate(self.body):
            spec = instr.spec
            limit = limits[spec.regfile]
            regs = instr.sources
            if spec.has_dest:
                regs = (*regs, instr.dest)
            for r in regs:
                if not 0 <= r < limit:
                    raise ValueError(
                        f"instruction {i} ({instr.mnemonic}) uses register "
                        f"{r} outside 0..{limit - 1}"
                    )
            if spec.touches_memory and not 0 <= instr.address < slots:
                raise ValueError(
                    f"instruction {i} ({instr.mnemonic}) uses memory slot "
                    f"{instr.address} outside 0..{slots - 1}"
                )

    def __len__(self) -> int:
        return len(self.body)

    def instruction_mix(self) -> Dict[InstructionClass, float]:
        """Fraction of the loop body in each instruction class (Table 2)."""
        counts = Counter(instr.spec.iclass for instr in self.body)
        n = len(self.body)
        return {cls: counts.get(cls, 0) / n for cls in InstructionClass}

    def assembly(self) -> str:
        """Readable assembly listing of the loop body."""
        lines = [f"{self.name}:"]
        lines.extend(f"    {instr.assembly()}" for instr in self.body)
        lines.append(f"    b {self.name}")
        return "\n".join(lines)

    def genome(self) -> "Genome":
        """Hashable representation for fitness memoization.

        The :class:`Genome` is built once and cached on the (immutable)
        instance, and it hashes once, so the GA memo, the session's
        execution keys and :meth:`Cluster.run
        <repro.platforms.base.Cluster.run>`'s memo look a program up in
        O(1) instead of re-walking the loop body every call.
        """
        cached = self.__dict__.get("_genome")
        if cached is None:
            cached = Genome(
                (i.mnemonic, i.dest, i.sources, i.address)
                for i in self.body
            )
            object.__setattr__(self, "_genome", cached)
        return cached

    def static_arrays(self) -> "ProgramStatics":
        """Packed per-instruction lists for the scheduler.

        Walks the loop body once and caches the result on the instance;
        the scheduler indexes these flat lists instead of doing
        per-dynamic-instruction attribute lookups.
        """
        cached = self.__dict__.get("_statics")
        if cached is None:
            cached = ProgramStatics(self)
            object.__setattr__(self, "_statics", cached)
        return cached


class ProgramStatics:
    """Per-program packed lists consumed by the scheduler.

    Registers are packed into one dense namespace (INT, then FP, then
    VEC) so the scheduler scoreboard is a flat list instead of a dict
    keyed by ``(regfile, reg)``.  The current model's charge packets
    come from :func:`charge_packets`, once per batch of schedules.
    """

    __slots__ = (
        "units",
        "latency",
        "recip",
        "sources",
        "dest",
        "touches_memory",
        "address",
        "num_registers",
    )

    def __init__(self, program: "LoopProgram"):
        offsets: Dict[RegisterFile, int] = {}
        total = 0
        for rf in RegisterFile:
            offsets[rf] = total
            total += program.isa.registers.get(rf, 0)
        self.num_registers = total

        units, latency, recip, sources, dest = [], [], [], [], []
        touches_memory, address = [], []
        for instr in program.body:
            spec = instr.spec
            base = offsets[spec.regfile]
            units.append(spec.unit)
            latency.append(spec.latency)
            recip.append(spec.recip_throughput)
            # The first register file packs at offset 0, where the
            # instruction's own source tuple already holds the indices.
            sources.append(
                tuple([base + s for s in instr.sources])
                if base
                else instr.sources
            )
            dest.append(base + instr.dest if spec.has_dest else -1)
            touches_memory.append(spec.touches_memory)
            address.append(instr.address if spec.touches_memory else -1)
        self.units = tuple(units)
        self.latency = latency
        self.recip = recip
        self.sources = tuple(sources)
        self.dest = dest
        self.touches_memory = tuple(touches_memory)
        self.address = address


def charge_packets(
    programs: Sequence[LoopProgram],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(recip, per_cycle_energy, deposit_offsets)`` of the programs'
    concatenated loop bodies, one entry per instruction for the first
    two and one per charge-packet cycle for the last.

    Every instruction deposits ``energy / recip_throughput`` in each
    of its ``recip_throughput`` cycles after issue; the deposit offsets
    are the concatenated ``[0..recip)`` ranges, so
    ``np.repeat(issue, recip) + deposit_offsets`` is every cycle each
    packet covers.
    """
    specs = [instr.spec for program in programs for instr in program.body]
    recip = np.array([s.recip_throughput for s in specs], dtype=np.int64)
    energy = np.array([s.energy for s in specs], dtype=float)
    ends = np.cumsum(recip)
    offsets = np.arange(ends[-1]) - np.repeat(ends - recip, recip)
    return recip, energy / recip, offsets


def random_instruction(
    spec: InstructionSpec,
    isa: InstructionSet,
    rng: np.random.Generator,
) -> Instruction:
    """Draw random (valid) operands for ``spec`` from the ISA's resources."""
    n_regs = isa.registers[spec.regfile]
    dest = int(rng.integers(n_regs)) if spec.has_dest else None
    sources = tuple(int(rng.integers(n_regs)) for _ in range(spec.num_sources))
    address = (
        int(rng.integers(isa.memory_slots)) if spec.touches_memory else None
    )
    return Instruction(spec=spec, dest=dest, sources=sources, address=address)


def random_program(
    isa: InstructionSet,
    length: int,
    rng: np.random.Generator,
    name: str = "random",
    pool: Optional[Sequence[InstructionSpec]] = None,
) -> LoopProgram:
    """A uniformly random loop program (the GA's initial individuals)."""
    specs = tuple(pool) if pool is not None else isa.specs
    body = tuple(
        random_instruction(specs[int(rng.integers(len(specs)))], isa, rng)
        for _ in range(length)
    )
    return LoopProgram(isa=isa, body=body, name=name)


def program_from_mnemonics(
    isa: InstructionSet,
    mnemonics: Sequence[str],
    rng: Optional[np.random.Generator] = None,
    name: str = "manual",
) -> LoopProgram:
    """Build a loop from mnemonics with simple sequential operand choice.

    Operands default to a rotating register assignment (deterministic
    when no ``rng`` is given), which is convenient for hand-written
    loops like the high/low-current sweep loop of Section 5.3.
    """
    body = []
    counters: Dict[RegisterFile, int] = {rf: 0 for rf in RegisterFile}
    mem_counter = 0
    for m in mnemonics:
        spec = isa.spec(m)
        n_regs = isa.registers[spec.regfile]
        if rng is None:
            base = counters[spec.regfile]
            dest = base % n_regs if spec.has_dest else None
            sources = tuple(
                (base + 1 + k) % n_regs for k in range(spec.num_sources)
            )
            counters[spec.regfile] = (base + 1) % n_regs
            address = (
                mem_counter % isa.memory_slots if spec.touches_memory else None
            )
            if spec.touches_memory:
                mem_counter += 1
            body.append(
                Instruction(
                    spec=spec, dest=dest, sources=sources, address=address
                )
            )
        else:
            body.append(random_instruction(spec, isa, rng))
    return LoopProgram(isa=isa, body=tuple(body), name=name)
