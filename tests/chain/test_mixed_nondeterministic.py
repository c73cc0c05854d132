"""Mixed-program and cache-nondeterministic items through the chain.

The heterogeneous-mix and cache-nondeterministic execution modes go
through the same chain as single-program items, with bit-equivalence
against the pre-chain ``Cluster.run_mixed`` / ``run_nondeterministic``
bodies in ``tests/chain/legacy_reference.py`` and exact RNG-stream
determinism (the chain consumes ``memory_rng`` in the same order the
per-call loop did).
"""

import numpy as np
import pytest

from repro.chain import ChainItem, ChainRequest, SignalPath
from repro.cpu.cache import CacheModel
from repro.cpu.isa import InstructionSet
from repro.cpu.program import program_from_mnemonics, random_program
from repro.em.radiation import DieRadiator
from repro.ga.fitness import ClusterFitness, EMAmplitudeFitness
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.workloads.loops import high_low_program

from tests.chain.legacy_reference import (
    reference_run_mixed,
    reference_run_nondeterministic,
)


def response_only_path():
    return SignalPath.em_chain(DieRadiator(), SpectrumAnalyzer())


def run_response_only(cluster, items):
    request = ChainRequest(
        cluster=cluster,
        items=items,
        want_amplitude=False,
        want_trace=False,
    )
    return response_only_path().run(request)


def memory_heavy_program(cluster, seed=1):
    wide = InstructionSet(
        name=f"{cluster.spec.isa.name}-wide",
        specs=cluster.spec.isa.specs,
        registers=dict(cluster.spec.isa.registers),
        memory_slots=256,
    )
    return random_program(
        wide, 24, np.random.default_rng(seed),
        pool=(wide.spec("ldr"), wide.spec("add")),
    )


class TestMixedThroughChain:
    def _programs(self, cluster):
        isa = cluster.spec.isa
        return [
            high_low_program(isa),
            program_from_mnemonics(isa, ["add"] * 6),
        ]

    def test_mixed_item_matches_run_mixed(self, a53):
        programs = self._programs(a53)
        legacy = reference_run_mixed(a53, programs)
        result = run_response_only(
            a53, [ChainItem(programs=programs)]
        )
        item = result.items[0]
        assert np.array_equal(
            item.response.die_voltage, legacy.die_voltage
        )
        assert np.array_equal(
            item.response.die_current, legacy.die_current
        )
        assert item.execution.active_cores == len(programs)

    def test_mixed_item_validates_program_count(self, a53):
        too_many = [high_low_program(a53.spec.isa)] * (
            a53.powered_cores + 1
        )
        with pytest.raises(ValueError, match="programs"):
            run_response_only(a53, [ChainItem(programs=too_many)])

    def test_mixed_batch_matches_sequential_legacy(self, a53):
        programs = self._programs(a53)
        legacy = [
            reference_run_mixed(a53, programs),
            reference_run_mixed(a53, list(reversed(programs))),
        ]
        result = run_response_only(
            a53,
            [
                ChainItem(programs=programs),
                ChainItem(programs=list(reversed(programs))),
            ],
        )
        for item, expected in zip(result.items, legacy):
            assert np.array_equal(
                item.response.die_voltage, expected.die_voltage
            )


class TestNondeterministicThroughChain:
    def test_nondet_item_matches_run_nondeterministic(self, a72):
        program = memory_heavy_program(a72)
        cache = CacheModel(l1_slots=64)

        legacy_rng = np.random.default_rng(42)
        legacy = reference_run_nondeterministic(
            a72, program, cache_model=cache, memory_rng=legacy_rng
        )

        chain_rng = np.random.default_rng(42)
        result = run_response_only(
            a72,
            [
                ChainItem(
                    program=program,
                    cache_model=cache,
                    memory_rng=chain_rng,
                )
            ],
        )
        item = result.items[0]
        assert np.array_equal(
            item.response.die_voltage, legacy.response.die_voltage
        )
        assert item.ipc == legacy.ipc
        assert item.loop_frequency_hz == legacy.loop_frequency_hz
        assert item.execution.active_cores == legacy.active_cores
        for window, expected in zip(item.execution.schedules, legacy.windows):
            assert window.cycles == expected.cycles
            np.testing.assert_array_equal(window.issue, expected.issue)
        # RNG-stream determinism: both paths drew the same number of
        # variates in the same order.
        assert (
            chain_rng.bit_generator.state == legacy_rng.bit_generator.state
        )

    def test_nondet_batch_preserves_memory_rng_stream(self, a72):
        """A batch of N items consumes memory_rng exactly like N
        sequential legacy calls (per-stream order is preserved even
        though stages are batched)."""
        program = memory_heavy_program(a72)
        cache = CacheModel(l1_slots=64)

        legacy_rng = np.random.default_rng(7)
        legacy = [
            reference_run_nondeterministic(
                a72, program, cache_model=cache, memory_rng=legacy_rng
            )
            for _ in range(3)
        ]

        chain_rng = np.random.default_rng(7)
        result = run_response_only(
            a72,
            [
                ChainItem(
                    program=program,
                    cache_model=cache,
                    memory_rng=chain_rng,
                )
                for _ in range(3)
            ],
        )
        for item, expected in zip(result.items, legacy):
            assert np.array_equal(
                item.response.die_voltage, expected.response.die_voltage
            )
        assert (
            chain_rng.bit_generator.state == legacy_rng.bit_generator.state
        )

    def test_nondet_fitness_batch_matches_sequential_calls(self, a72):
        """EMAmplitudeFitness.evaluate_batch == one-at-a-time calls,
        including both analyzer and memory RNG end states."""
        program = memory_heavy_program(a72)
        programs = [program, memory_heavy_program(a72, seed=2)]
        cache = CacheModel(l1_slots=64)

        serial = EMAmplitudeFitness(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(10)),
            samples=3,
            cache_model=cache,
            memory_rng=np.random.default_rng(11),
        )
        expected = [serial(a72, p) for p in programs]

        batched = EMAmplitudeFitness(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(10)),
            samples=3,
            cache_model=cache,
            memory_rng=np.random.default_rng(11),
        )
        got = batched.evaluate_batch(a72, programs)

        assert got == expected
        assert (
            batched.analyzer.rng.bit_generator.state
            == serial.analyzer.rng.bit_generator.state
        )
        assert (
            batched.memory_rng.bit_generator.state
            == serial.memory_rng.bit_generator.state
        )

    def test_cluster_fitness_batch_delegates(self, a72):
        fitness = ClusterFitness(
            EMAmplitudeFitness(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(4)),
                samples=2,
            ),
            a72,
        )
        program = high_low_program(a72.spec.isa)
        evaluations = fitness.evaluate_batch([program, program])
        assert len(evaluations) == 2
        assert all(e.score > 0.0 for e in evaluations)
