"""Unit tests for the instruction-set model."""

import pickle

import pytest

from repro.cpu.arm import ARM_ISA
from repro.cpu.isa import (
    ExecutionUnit,
    Instruction,
    InstructionClass,
    InstructionSet,
    InstructionSpec,
    RegisterFile,
)
from repro.cpu.x86 import X86_ISA


class TestInstructionSpec:
    def test_latency_must_be_positive(self):
        with pytest.raises(ValueError, match="latency"):
            InstructionSpec(
                mnemonic="bad",
                iclass=InstructionClass.INT_SHORT,
                unit=ExecutionUnit.ALU,
                latency=0,
                recip_throughput=1,
                energy=1.0,
            )

    def test_throughput_bounded_by_latency(self):
        with pytest.raises(ValueError, match="recip_throughput"):
            InstructionSpec(
                mnemonic="bad",
                iclass=InstructionClass.INT_SHORT,
                unit=ExecutionUnit.ALU,
                latency=2,
                recip_throughput=3,
                energy=1.0,
            )

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError, match="energy"):
            InstructionSpec(
                mnemonic="bad",
                iclass=InstructionClass.INT_SHORT,
                unit=ExecutionUnit.ALU,
                latency=1,
                recip_throughput=1,
                energy=-1.0,
            )


class TestInstruction:
    def test_requires_dest_when_spec_has_one(self):
        spec = ARM_ISA.spec("add")
        with pytest.raises(ValueError, match="dest"):
            Instruction(spec=spec, dest=None, sources=(1, 2))

    def test_source_count_enforced(self):
        spec = ARM_ISA.spec("add")
        with pytest.raises(ValueError, match="sources"):
            Instruction(spec=spec, dest=0, sources=(1,))

    def test_memory_ops_need_address(self):
        spec = ARM_ISA.spec("ldr")
        with pytest.raises(ValueError, match="address"):
            Instruction(spec=spec, dest=0, sources=())

    def test_assembly_rendering(self):
        add = Instruction(spec=ARM_ISA.spec("add"), dest=1, sources=(2, 3))
        assert add.assembly() == "add r1, r2, r3"
        ldr = Instruction(
            spec=ARM_ISA.spec("ldr"), dest=4, sources=(), address=7
        )
        assert "[mem+7]" in ldr.assembly()
        fadd = Instruction(spec=ARM_ISA.spec("fadd"), dest=0, sources=(1, 2))
        assert fadd.assembly().startswith("fadd f0")


@pytest.mark.parametrize(
    "enum_cls", [InstructionClass, ExecutionUnit, RegisterFile]
)
class TestEnumIdentity:
    """Members are singletons: they compare and hash by identity."""

    def test_hash_is_identity(self, enum_cls):
        for member in enum_cls:
            assert hash(member) == object.__hash__(member)

    def test_pickle_returns_the_member(self, enum_cls):
        for member in enum_cls:
            assert pickle.loads(pickle.dumps(member)) is member
            assert enum_cls(member.value) is member


class TestInstructionSet:
    def test_duplicate_mnemonics_rejected(self):
        spec = ARM_ISA.spec("add")
        with pytest.raises(ValueError, match="duplicate"):
            InstructionSet(name="dup", specs=(spec, spec))

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(KeyError, match="unknown"):
            ARM_ISA.spec("vmax")

    def test_by_class_partitions_specs(self):
        total = sum(
            len(ARM_ISA.by_class(cls)) for cls in InstructionClass
        )
        assert total == len(ARM_ISA.specs)

    def test_subset_restricts_pool(self):
        sub = ARM_ISA.subset(["add", "mul"])
        assert [s.mnemonic for s in sub.specs] == ["add", "mul"]
        assert sub.registers == ARM_ISA.registers


class TestISATables:
    """Section 3.3's diversity requirements on both pools."""

    @pytest.mark.parametrize("isa", [ARM_ISA, X86_ISA], ids=["arm", "x86"])
    def test_pool_has_short_and_long_latency(self, isa):
        latencies = [s.latency for s in isa.specs]
        assert min(latencies) == 1
        assert max(latencies) >= 8

    @pytest.mark.parametrize("isa", [ARM_ISA, X86_ISA], ids=["arm", "x86"])
    def test_pool_has_float_and_simd(self, isa):
        assert isa.by_class(InstructionClass.FLOAT)
        assert isa.by_class(InstructionClass.SIMD)

    def test_arm_has_explicit_memory_ops(self):
        assert ARM_ISA.by_class(InstructionClass.MEM)
        assert not ARM_ISA.by_class(InstructionClass.INT_SHORT_MEM)

    def test_x86_uses_memory_operand_forms(self):
        assert X86_ISA.by_class(InstructionClass.INT_SHORT_MEM)
        assert not X86_ISA.by_class(InstructionClass.MEM)

    @pytest.mark.parametrize("isa", [ARM_ISA, X86_ISA], ids=["arm", "x86"])
    def test_branches_are_dummy_unconditional(self, isa):
        for spec in isa.by_class(InstructionClass.BRANCH):
            assert not spec.has_dest
            assert spec.num_sources == 0

    @pytest.mark.parametrize("isa", [ARM_ISA, X86_ISA], ids=["arm", "x86"])
    def test_nonpipelined_ops_create_stalls(self, isa):
        """DIV/SQRT must block their unit (low-current windows)."""
        stalling = [
            s for s in isa.specs if s.recip_throughput == s.latency > 1
        ]
        assert stalling, "pool needs at least one non-pipelined op"

    def test_fsqrt_present_for_stalling(self):
        """Section 8.3: viruses use FSQRT to stall FP units."""
        assert ARM_ISA.spec("fsqrt").recip_throughput > 8
