"""Loop programs: the unit of work the GA evolves and CPUs execute.

A :class:`LoopProgram` is a fixed-length loop body of concrete
instructions (the paper uses 50) plus the implicit loop back-edge.  The
surrounding template (pre-initialized registers, steering code) is
abstracted away: registers are assumed initialized, and memory operands
always hit L1 (Section 3.3 -- cache misses are deliberately avoided for
determinism).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.isa import (
    ExecutionUnit,
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


#: Register files in packing order: INT, then FP, then VEC.
_REGISTER_FILES = tuple(RegisterFile)


class _Layout:
    """What checking and packing a gene read of an instruction set.

    ``limits`` holds each register file's count (a file the set does
    not declare has none), and ``offsets`` each file's start in the
    scheduler's dense register namespace (INT, then FP, then VEC), so
    the scoreboard is a flat list instead of a dict keyed by
    ``(regfile, reg)``.  :func:`_layout_of` builds one layout per
    distinct ``(counts, memory_slots)``, so a gene's record is matched
    to a program's instruction set by identity.
    """

    __slots__ = ("limits", "memory_slots", "offsets", "num_registers")

    def __init__(
        self, counts: Tuple[Optional[int], ...], memory_slots: int
    ) -> None:
        self.limits = {
            rf: n for rf, n in zip(_REGISTER_FILES, counts) if n is not None
        }
        self.memory_slots = memory_slots
        self.offsets: Dict[RegisterFile, int] = {}
        total = 0
        for rf, n in zip(_REGISTER_FILES, counts):
            self.offsets[rf] = total
            total += n or 0
        self.num_registers = total


@functools.lru_cache(maxsize=64)
def _interned_layout(
    counts: Tuple[Optional[int], ...], memory_slots: int
) -> _Layout:
    return _Layout(counts, memory_slots)


def _layout_of(isa: InstructionSet) -> _Layout:
    return _interned_layout(
        tuple(map(isa.registers.get, _REGISTER_FILES)), isa.memory_slots
    )


class _GeneRecord(NamedTuple):
    """A gene checked, keyed and packed under one layout.

    The first seven fields are its scheduler row, with registers in
    the layout's dense namespace (``-1`` for no dest or address), and
    ``entry`` is its genome entry.  One flat tuple, so a program's rows
    gather into columns in one ``zip``.
    """

    sources: Tuple[int, ...]
    latency: int
    recip: int
    touches_memory: bool
    address: int
    dest: int
    unit: ExecutionUnit
    entry: tuple
    layout: _Layout


def _pack(instr: Instruction, layout: _Layout) -> _GeneRecord:
    """Record ``instr`` under ``layout``, which a program built from it
    was checked against, keeping the genome entry it may hold."""
    spec = instr.spec
    gene = instr._gene
    if gene is None:
        entry = (spec.mnemonic, instr.dest, instr.sources, instr.address)
    elif gene.__class__ is _GeneRecord:
        entry = gene.entry
    else:
        entry = gene
    base = layout.offsets[spec.regfile]
    touches = spec.touches_memory
    record = _GeneRecord(
        # The first register file packs at offset 0, where the
        # instruction's own source tuple already holds the indices.
        tuple([base + s for s in instr.sources]) if base else instr.sources,
        spec.latency,
        spec.recip_throughput,
        touches,
        instr.address if touches else -1,
        base + instr.dest if spec.has_dest else -1,
        spec.unit,
        entry,
        layout,
    )
    object.__setattr__(instr, "_gene", record)
    return record


def _gene_records(
    body: Sequence[Instruction], layout: _Layout
) -> List[_GeneRecord]:
    """Every gene's record under ``layout``, packing those without one."""
    records = []
    for instr in body:
        record = instr._gene
        if record.__class__ is not _GeneRecord or record.layout is not layout:
            record = _pack(instr, layout)
        records.append(record)
    return records


@dataclass(frozen=True)
class LoopProgram:
    """An instruction loop bound to the instruction set it draws from.

    Each gene (:class:`~repro.cpu.isa.Instruction`) caches, in its one
    ``_gene`` attribute, what every program built from it would derive
    again: its genome entry once a program holding it is keyed, and
    once one is scheduled a record of the layout it was checked
    against, the entry and its scheduler row.  Crossover children,
    mutants and a steady schedule's ``body * period`` program reuse
    their parents' genes, so they check, key and pack only the genes
    no scheduled program held.  Checking alone writes nothing, so a
    program that is only keyed costs its genome and nothing more.
    Neither the genes' caches nor the program's genome are pickled.
    """

    isa: InstructionSet
    body: Tuple[Instruction, ...]
    name: str = "loop"

    # The genome, set once on the frozen instance; a class-level
    # default, so reading it never builds the instance ``__dict__``.
    _genome = None

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("loop body must contain at least one instruction")
        layout = _layout_of(self.isa)
        limits = layout.limits
        slots = layout.memory_slots
        for i, instr in enumerate(self.body):
            gene = instr._gene
            if gene.__class__ is _GeneRecord and gene.layout is layout:
                continue
            spec = instr.spec
            limit = limits.get(spec.regfile)
            if limit is None:
                raise ValueError(
                    f"instruction {i} ({spec.mnemonic}) uses the "
                    f"{spec.regfile.value!r} register file, which "
                    f"{self.isa.name} does not declare"
                )
            regs = instr.sources
            if spec.has_dest:
                regs = (*regs, instr.dest)
            for r in regs:
                if not 0 <= r < limit:
                    raise ValueError(
                        f"instruction {i} ({spec.mnemonic}) uses register "
                        f"{r} outside 0..{limit - 1}"
                    )
            if spec.touches_memory and not 0 <= instr.address < slots:
                raise ValueError(
                    f"instruction {i} ({spec.mnemonic}) uses memory slot "
                    f"{instr.address} outside 0..{slots - 1}"
                )

    def __getstate__(self) -> dict:
        # The genome stays behind, as the genes' caches do: an
        # unpickled program keys and packs afresh.
        return {"isa": self.isa, "body": self.body, "name": self.name}

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
        O(1) instead of re-walking the loop body every call.  Its
        entries are the tuples the genes cache, so programs sharing
        genes share entries.
        """
        cached = self._genome
        if cached is None:
            entries = []
            for instr in self.body:
                gene = instr._gene
                if gene is None:
                    gene = (
                        instr.spec.mnemonic,
                        instr.dest,
                        instr.sources,
                        instr.address,
                    )
                    object.__setattr__(instr, "_gene", gene)
                elif gene.__class__ is _GeneRecord:
                    gene = gene.entry
                entries.append(gene)
            cached = Genome(entries)
            object.__setattr__(self, "_genome", cached)
        return cached


class ProgramStatics:
    """Per-program packed lists consumed by the scheduler.

    Registers are packed into one dense namespace (INT, then FP, then
    VEC) so the scheduler scoreboard is a flat list instead of a dict
    keyed by ``(regfile, reg)``.  Each field gathers one column of the
    genes' scheduler rows, packing the genes that have no record for
    this instruction set; that costs a few microseconds once the genes
    are packed, so the statics are built per schedule rather than kept
    on the program, which then holds no more than its genome.  The
    current model's charge packets come from :func:`charge_packets`,
    once per batch of schedules.
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
        layout = _layout_of(program.isa)
        self.num_registers = layout.num_registers
        (
            self.sources,
            latency,
            recip,
            self.touches_memory,
            address,
            dest,
            self.units,
            *_,
        ) = zip(*_gene_records(program.body, layout))
        self.latency = list(latency)
        self.recip = list(recip)
        self.dest = list(dest)
        self.address = list(address)


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
