"""Unit tests for loop programs."""

import numpy as np
import pytest

from repro.cpu.arm import ARM_ISA
from repro.cpu.isa import (
    Instruction,
    InstructionClass,
    InstructionSet,
    RegisterFile,
)
from repro.cpu.program import (
    LoopProgram,
    ProgramStatics,
    program_from_mnemonics,
    random_instruction,
    random_program,
)
from repro.cpu.x86 import X86_ISA
from repro.platforms.gpu import GPU_ISA
from tests.cpu.statics_reference import program_statics_reference


class TestLoopProgramValidation:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            LoopProgram(isa=ARM_ISA, body=())

    def test_register_bounds_enforced(self):
        bad = Instruction(spec=ARM_ISA.spec("add"), dest=99, sources=(0, 1))
        with pytest.raises(ValueError, match="register"):
            LoopProgram(isa=ARM_ISA, body=(bad,))

    def test_sources_checked_before_dest(self):
        bad = Instruction(spec=ARM_ISA.spec("add"), dest=99, sources=(0, 77))
        with pytest.raises(ValueError, match="instruction 0 .* register 77"):
            LoopProgram(isa=ARM_ISA, body=(bad,))

    def test_memory_bounds_enforced(self):
        bad = Instruction(
            spec=ARM_ISA.spec("ldr"), dest=0, sources=(), address=9999
        )
        with pytest.raises(ValueError, match="memory slot"):
            LoopProgram(isa=ARM_ISA, body=(bad,))

    def test_len_is_body_length(self):
        p = program_from_mnemonics(ARM_ISA, ["add", "sub", "mul"])
        assert len(p) == 3


class TestInstructionMix:
    def test_mix_sums_to_one(self):
        p = random_program(ARM_ISA, 50, np.random.default_rng(0))
        mix = p.instruction_mix()
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_mix_counts_classes(self):
        p = program_from_mnemonics(ARM_ISA, ["add"] * 3 + ["fadd"])
        mix = p.instruction_mix()
        assert mix[InstructionClass.INT_SHORT] == pytest.approx(0.75)
        assert mix[InstructionClass.FLOAT] == pytest.approx(0.25)


class TestAssemblyAndGenome:
    def test_assembly_contains_loop_and_backedge(self):
        p = program_from_mnemonics(ARM_ISA, ["add", "mul"], name="myloop")
        text = p.assembly()
        assert text.startswith("myloop:")
        assert text.endswith("b myloop")

    def test_genome_is_hashable_and_stable(self):
        p = program_from_mnemonics(ARM_ISA, ["add", "mul"])
        assert hash(p.genome()) == hash(p.genome())

    def test_genome_is_computed_once(self):
        """Repeat calls return the cached tuple (the GA hits genome()
        several times per individual per generation)."""
        p = program_from_mnemonics(ARM_ISA, ["add", "mul"])
        assert p.genome() is p.genome()

    def test_different_programs_have_different_genomes(self):
        a = program_from_mnemonics(ARM_ISA, ["add", "mul"])
        b = program_from_mnemonics(ARM_ISA, ["mul", "add"])
        assert a.genome() != b.genome()


class TestRandomGeneration:
    def test_random_program_is_valid_and_deterministic(self):
        a = random_program(ARM_ISA, 50, np.random.default_rng(7))
        b = random_program(ARM_ISA, 50, np.random.default_rng(7))
        assert a.genome() == b.genome()
        assert len(a) == 50

    def test_random_program_respects_pool(self):
        pool = (ARM_ISA.spec("add"), ARM_ISA.spec("mul"))
        p = random_program(ARM_ISA, 30, np.random.default_rng(1), pool=pool)
        assert {i.mnemonic for i in p.body} <= {"add", "mul"}

    def test_random_instruction_valid_operands(self):
        rng = np.random.default_rng(3)
        for spec in ARM_ISA.specs:
            instr = random_instruction(spec, ARM_ISA, rng)
            # constructing a one-instruction program validates bounds
            LoopProgram(isa=ARM_ISA, body=(instr,))


class TestFromMnemonics:
    def test_deterministic_without_rng(self):
        a = program_from_mnemonics(ARM_ISA, ["add", "ldr", "fadd"])
        b = program_from_mnemonics(ARM_ISA, ["add", "ldr", "fadd"])
        assert a.genome() == b.genome()

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(KeyError):
            program_from_mnemonics(ARM_ISA, ["nope"])


#: The platforms' instruction sets (a72 and a53 share ``ARM_ISA``),
#: plus a pool without vector registers and with uneven register
#: counts, so the FP and VEC offsets differ from the platforms'.
PACKING_ISAS = (
    ARM_ISA,
    X86_ISA,
    GPU_ISA,
    InstructionSet(
        name="no-vec",
        specs=tuple(
            s for s in ARM_ISA.specs if s.regfile is not RegisterFile.VEC
        ),
        registers={RegisterFile.INT: 5, RegisterFile.FP: 3},
        memory_slots=7,
    ),
)


def same_container(a, b) -> bool:
    """Equal value and container type, recursively; arrays equal bit
    for bit with the same dtype and shape."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_container, a, b))
    return a == b


class TestProgramStatics:
    @pytest.mark.parametrize("isa", PACKING_ISAS, ids=lambda isa: isa.name)
    def test_fields_match_reference_packing(self, isa):
        regfiles, memory_ops = set(), 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            length = int(rng.integers(1, 80))
            program = random_program(isa, length, rng)
            statics = ProgramStatics(program)
            expected = program_statics_reference(program)
            assert set(expected) == set(ProgramStatics.__slots__)
            for name, value in expected.items():
                assert same_container(getattr(statics, name), value), name
            regfiles |= {i.spec.regfile for i in program.body}
            memory_ops += sum(i.spec.touches_memory for i in program.body)
        # Every register file the ISA has, and memory operands, occur.
        assert regfiles == set(isa.registers)
        assert memory_ops > 0
