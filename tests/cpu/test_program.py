"""Unit tests for loop programs."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro

from repro.cpu.arm import ARM_ISA
from repro.cpu.isa import (
    Instruction,
    InstructionClass,
    InstructionSet,
    RegisterFile,
)
from repro.cpu.pipeline import InOrderPipeline
from repro.cpu.program import (
    Genome,
    LoopProgram,
    ProgramStatics,
    program_from_mnemonics,
    random_instruction,
    random_program,
)
from repro.cpu.x86 import X86_ISA
from repro.ga.operators import mutate, one_point_crossover
from repro.platforms import registry
from repro.platforms.gpu import GPU_ISA
from tests.cpu.pipeline_reference import execute_reference
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


class _CountedHash:
    """An entry that counts how often it is hashed."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


#: Hashes a pickled genome read from stdin in a fresh process, next to
#: that process's hash of the plain tuple of its entries.
_UNPICKLE_AND_HASH = (
    "import pickle, sys; "
    "g = pickle.loads(sys.stdin.buffer.read()); "
    "print(type(g).__name__, hash(g), hash(tuple(g)))"
)


class TestGenomeKey:
    """The genome is a tuple that hashes once, and is interchangeable
    with the plain tuple of its entries as a key."""

    @pytest.fixture
    def program(self):
        return random_program(ARM_ISA, 120, np.random.default_rng(5))

    def test_equals_and_hashes_like_the_plain_tuple(self, program):
        genome = program.genome()
        plain = tuple(genome)
        assert type(genome) is Genome and type(plain) is tuple
        assert genome == plain and plain == genome
        assert not genome != plain
        assert hash(genome) == hash(plain)
        assert genome == tuple(
            (i.mnemonic, i.dest, i.sources, i.address) for i in program.body
        )

    def test_hash_is_computed_once(self):
        entry = _CountedHash()
        genome = Genome([("add", 0, (1, 2), None), entry])
        first = hash(genome)
        assert entry.calls == 1
        for _ in range(3):
            assert hash(genome) == first
        assert entry.calls == 1
        # The plain tuple hashes its entries afresh, to the same value.
        assert hash(tuple(genome)) == first
        assert entry.calls == 2

    def test_finds_and_is_found_by_plain_tuple_keys(self, program):
        """A GA checkpoint restores its memo with plain-tuple keys."""
        genome = program.genome()
        plain = tuple(genome)
        restored = {plain: "evaluation"}
        assert genome in restored and restored[genome] == "evaluation"
        memo = {genome: "evaluation"}
        assert plain in memo and memo[plain] == "evaluation"
        memo[plain] = "replaced"
        assert len(memo) == 1

    def test_json_text_is_the_plain_tuples(self, program):
        genome = program.genome()
        assert json.dumps(genome) == json.dumps(tuple(genome))
        assert repr(genome) == repr(tuple(genome))

    def test_unpickled_genome_hashes_like_the_processs_plain_tuple(
        self, program
    ):
        """String hashes differ per process, so the hash must not
        travel with the pickle: in a process with another hash seed,
        the unpickled genome hashes like that process's tuple."""
        data = pickle.dumps(program.genome())
        src = os.path.dirname(os.path.dirname(repro.__file__))
        hashes = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _UNPICKLE_AND_HASH],
                input=data,
                capture_output=True,
                check=True,
                env=env,
            ).stdout.split()
            assert out[0] == b"Genome"
            assert out[1] == out[2]
            hashes.append(out[1])
        # The seeds give different string hashes: a pickled hash would
        # be wrong in at least one of the two processes.
        assert hashes[0] != hashes[1]

    def test_a_pickled_program_unpickles_a_genome(self, program):
        genome = program.genome()
        clone = pickle.loads(pickle.dumps(program))
        assert type(clone.genome()) is Genome
        assert clone.genome() == genome
        assert hash(clone.genome()) == hash(genome)


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


def with_resources(name, registers, memory_slots=64):
    """``ARM_ISA``'s specs with other register counts or slots."""
    return InstructionSet(
        name=name,
        specs=ARM_ISA.specs,
        registers=registers,
        memory_slots=memory_slots,
    )


def assert_packs_like_reference(program):
    statics = ProgramStatics(program)
    for name, value in program_statics_reference(program).items():
        assert same_container(getattr(statics, name), value), name


def plain_genome(program):
    return tuple(
        (i.mnemonic, i.dest, i.sources, i.address) for i in program.body
    )


#: Unpickles programs read from stdin, schedules each on a72 and prints
#: a digest of every schedule's offsets and cycles.
_UNPICKLE_AND_SCHEDULE = (
    "import hashlib, pickle, sys; "
    "from repro.platforms import registry; "
    "pipeline = registry.make_cluster('a72').pipeline; "
    "digest = hashlib.sha256(); "
    "[digest.update(s.issue_offsets.tobytes() + str(s.cycles).encode()) "
    " for s in (pipeline.steady_schedule(p) "
    "           for p in pickle.loads(sys.stdin.buffer.read()))]; "
    "print(digest.hexdigest())"
)


class TestGeneCache:
    """Each gene is checked, keyed and packed once per register layout,
    and programs built from checked genes reuse that work."""

    def test_a_checked_gene_is_refused_by_a_smaller_instruction_set(self):
        add = Instruction(spec=ARM_ISA.spec("add"), dest=9, sources=(1, 2))
        ldr = Instruction(
            spec=ARM_ISA.spec("ldr"), dest=0, sources=(), address=40
        )
        program = LoopProgram(isa=ARM_ISA, body=(add, ldr))
        program.genome()
        InOrderPipeline().steady_schedule(program)
        fp_vec = {RegisterFile.FP: 16, RegisterFile.VEC: 16}
        fewer_registers = with_resources(
            "fewer-registers", {RegisterFile.INT: 8, **fp_vec}
        )
        with pytest.raises(
            ValueError,
            match=r"^instruction 0 \(add\) uses register 9 outside 0\.\.7$",
        ):
            LoopProgram(isa=fewer_registers, body=(add, ldr))
        fewer_slots = with_resources(
            "fewer-slots", dict(ARM_ISA.registers), memory_slots=32
        )
        with pytest.raises(
            ValueError,
            match=r"^instruction 1 \(ldr\) uses memory slot 40 outside "
            r"0\.\.31$",
        ):
            LoopProgram(isa=fewer_slots, body=(add, ldr))
        with pytest.raises(
            ValueError,
            match=r"^instruction 0 \(add\) uses the 'int' register file, "
            r"which no-int does not declare$",
        ):
            LoopProgram(isa=with_resources("no-int", fp_vec), body=(add,))
        # The refusals leave the genes' records for the first set.
        again = LoopProgram(isa=ARM_ISA, body=(add, ldr))
        assert_packs_like_reference(again)
        assert again.genome() == program.genome()

    def test_a_missing_register_file_is_named(self):
        vmul = Instruction(spec=ARM_ISA.spec("vmul"), dest=1, sources=(2, 3))
        no_vec = with_resources(
            "no-vec-regs", {RegisterFile.INT: 16, RegisterFile.FP: 16}
        )
        with pytest.raises(ValueError, match="'vec' register file"):
            LoopProgram(isa=no_vec, body=(vmul,))

    def test_the_same_genes_pack_per_instruction_set(self):
        """``no-vec`` packs FP registers at offset 5 and ``ARM_ISA`` at
        16: programs sharing genes pack them for their own set, in any
        order."""
        no_vec = PACKING_ISAS[-1]
        pipeline = InOrderPipeline()
        body = random_program(no_vec, 60, np.random.default_rng(8)).body
        assert {i.spec.regfile for i in body} == set(no_vec.registers)
        for isa in (no_vec, ARM_ISA, ARM_ISA, no_vec, ARM_ISA):
            program = LoopProgram(isa=isa, body=body)
            assert_packs_like_reference(program)
            assert np.array_equal(
                pipeline.execute(program, 16),
                execute_reference(pipeline, program, 16),
            )
        assert (
            ProgramStatics(LoopProgram(isa=no_vec, body=body)).sources
            != ProgramStatics(LoopProgram(isa=ARM_ISA, body=body)).sources
        )

    @pytest.mark.parametrize("isa", PACKING_ISAS, ids=lambda isa: isa.name)
    def test_bred_children_pack_and_key_like_the_reference(self, isa):
        """Children of keyed and of scheduled parents, and their own
        children, read in either order (genome first or statics
        first)."""
        rng = np.random.default_rng(21)
        pipeline = InOrderPipeline()
        generation = [random_program(isa, 40, rng) for _ in range(8)]
        for _ in range(3):
            for k, program in enumerate(generation):
                if k % 2:
                    program.genome()
                if k % 3:
                    pipeline.steady_schedule(program)
            children = []
            for a, b in zip(generation[::2], generation[1::2]):
                c, d = one_point_crossover(a, b, rng)
                children += [c, d, mutate(c, rng, 0.2), mutate(d, rng, 0.2)]
            for k, child in enumerate(children):
                if k % 2:
                    assert_packs_like_reference(child)
                assert child.genome() == plain_genome(child)
                assert type(child.genome()) is Genome
                assert_packs_like_reference(child)
                assert all(
                    entry is gene._gene.entry
                    for entry, gene in zip(child.genome(), child.body)
                )
            generation = children[::2]

    def test_threads_sharing_genes_get_their_own_layout(self):
        """Threads keying and packing shared genes under two instruction
        sets, with a short switch interval: a crossed or lost write may
        cost a re-pack, never a wrong row or key (the service runs
        chains on a worker thread)."""
        no_vec = PACKING_ISAS[-1]
        body = random_program(no_vec, 60, np.random.default_rng(4)).body
        plain = tuple(
            (i.mnemonic, i.dest, i.sources, i.address) for i in body
        )
        expected = {
            isa.name: program_statics_reference(
                LoopProgram(isa=isa, body=body)
            )
            for isa in (no_vec, ARM_ISA)
        }
        errors = []

        def work(isa):
            try:
                for _ in range(100):
                    program = LoopProgram(isa=isa, body=body)
                    assert program.genome() == plain
                    statics = ProgramStatics(program)
                    for name, value in expected[isa.name].items():
                        assert same_container(getattr(statics, name), value)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(isa,))
            for isa in (no_vec, ARM_ISA) * 3
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_caches_never_pickle(self):
        """A 32-genome a72 shard, as the GA ships to a worker, pickles
        to the same bytes fresh, keyed and scheduled, smaller than the
        68,527 bytes its keyed form took when programs pickled their
        genome; unpickled in another process, it schedules to the same
        bits."""
        cluster = registry.make_cluster("a72")
        rng = np.random.default_rng(3)
        shard = [random_program(cluster.spec.isa, 50, rng) for _ in range(32)]
        fresh = pickle.dumps(shard)
        for program in shard:
            program.genome()
        assert pickle.dumps(shard) == fresh
        digest = hashlib.sha256()
        for program in shard:
            schedule = cluster.pipeline.steady_schedule(program)
            digest.update(
                schedule.issue_offsets.tobytes()
                + str(schedule.cycles).encode()
            )
        assert pickle.dumps(shard) == fresh
        assert len(fresh) < 68_527
        for name in (b"Genome", b"_GeneRecord", b"_Layout", b"_gene"):
            assert name not in fresh
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", _UNPICKLE_AND_SCHEDULE],
            input=fresh,
            capture_output=True,
            check=True,
            env=dict(os.environ, PYTHONHASHSEED="7", PYTHONPATH=src),
        ).stdout.decode().strip()
        assert out == digest.hexdigest()
