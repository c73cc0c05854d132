"""Unit tests for the GA engine (synthetic fitness, no hardware model)."""

import numpy as np
import pytest

from repro.cpu.arm import ARM_ISA
from repro.cpu.isa import InstructionClass
from repro.cpu.program import random_program
from repro.ga.engine import GAConfig, GAEngine, GAResult, GenerationRecord
from repro.ga.fitness import FitnessEvaluation


def make_fitness(score_fn):
    """Wrap a program->float function into the evaluation record."""

    calls = {"count": 0}

    def fitness(program):
        calls["count"] += 1
        return FitnessEvaluation(
            score=score_fn(program),
            dominant_frequency_hz=0.0,
            max_droop_v=0.0,
            peak_to_peak_v=0.0,
            ipc=1.0,
            loop_frequency_hz=1.0,
        )

    return fitness, calls


def count_class(program, iclass):
    return sum(1 for i in program.body if i.spec.iclass is iclass)


class TestConfigValidation:
    def test_bad_population(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=1)

    def test_bad_mutation_rate(self):
        with pytest.raises(ValueError):
            GAConfig(mutation_rate=2.0)

    def test_bad_elitism(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=10, elitism=10)


class TestOptimization:
    def test_ga_maximizes_simple_objective(self):
        """The GA should discover loops dominated by SIMD instructions."""
        fitness, _ = make_fitness(
            lambda p: count_class(p, InstructionClass.SIMD)
        )
        config = GAConfig(
            population_size=20, generations=20, loop_length=30, seed=1
        )
        result = GAEngine(fitness, config).run(ARM_ISA)
        first = result.history[0].best.score
        last = result.history[-1].best.score
        assert last > first
        assert last >= 0.5 * 30  # most of the loop became SIMD

    def test_history_monotonic_with_elitism(self):
        fitness, _ = make_fitness(
            lambda p: count_class(p, InstructionClass.FLOAT)
        )
        config = GAConfig(
            population_size=16, generations=15, loop_length=20,
            elitism=2, seed=3,
        )
        result = GAEngine(fitness, config).run(ARM_ISA)
        scores = result.score_series()
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_deterministic_under_seed(self):
        fitness_a, _ = make_fitness(lambda p: len(set(p.genome())))
        fitness_b, _ = make_fitness(lambda p: len(set(p.genome())))
        config = GAConfig(
            population_size=10, generations=5, loop_length=15, seed=11
        )
        ra = GAEngine(fitness_a, config).run(ARM_ISA)
        rb = GAEngine(fitness_b, config).run(ARM_ISA)
        assert ra.best_program.genome() == rb.best_program.genome()

    def test_different_seeds_differ(self):
        fitness, _ = make_fitness(lambda p: hash(p.genome()) % 1000)
        ra = GAEngine(
            fitness, GAConfig(population_size=10, generations=3, seed=1)
        ).run(ARM_ISA)
        rb = GAEngine(
            fitness, GAConfig(population_size=10, generations=3, seed=2)
        ).run(ARM_ISA)
        assert ra.best_program.genome() != rb.best_program.genome()


class TestMemoization:
    def test_cache_avoids_reevaluation(self):
        fitness, calls = make_fitness(
            lambda p: count_class(p, InstructionClass.SIMD)
        )
        config = GAConfig(
            population_size=16, generations=10, loop_length=20, seed=5
        )
        engine = GAEngine(fitness, config)
        result = engine.run(ARM_ISA)
        # elitist clones and converged duplicates hit the cache
        assert calls["count"] < 16 * 10
        assert calls["count"] == result.evaluations
        assert engine.cache_size == result.evaluations


class TestInitialPopulation:
    def test_resume_from_population(self):
        fitness, _ = make_fitness(lambda p: 1.0)
        config = GAConfig(
            population_size=8, generations=2, loop_length=10, seed=7
        )
        from repro.cpu.program import random_program

        rng = np.random.default_rng(0)
        seedpop = [random_program(ARM_ISA, 10, rng) for _ in range(8)]
        result = GAEngine(fitness, config).run(
            ARM_ISA, initial_population=seedpop
        )
        assert result.history[0].best_program in seedpop

    def test_wrong_population_size_rejected(self):
        fitness, _ = make_fitness(lambda p: 1.0)
        config = GAConfig(population_size=8, generations=2)
        from repro.cpu.program import random_program

        seedpop = [
            random_program(ARM_ISA, 50, np.random.default_rng(0))
        ]
        with pytest.raises(ValueError):
            GAEngine(fitness, config).run(
                ARM_ISA, initial_population=seedpop
            )


class TestProgressAndSeries:
    def test_progress_callback_called_per_generation(self):
        fitness, _ = make_fitness(lambda p: 1.0)
        config = GAConfig(population_size=8, generations=6, seed=2)
        seen = []
        GAEngine(fitness, config).run(
            ARM_ISA, progress=lambda rec: seen.append(rec.generation)
        )
        assert seen == list(range(6))

    def test_series_lengths(self):
        fitness, _ = make_fitness(lambda p: 2.0)
        config = GAConfig(population_size=8, generations=4, seed=2)
        result = GAEngine(fitness, config).run(ARM_ISA)
        assert result.score_series().shape == (4,)
        assert result.droop_series().shape == (4,)
        assert result.dominant_frequency_series().shape == (4,)


class TestMemoizeFlag:
    def test_memoize_off_reevaluates_clones(self):
        calls = {"count": 0}

        def fitness(program):
            calls["count"] += 1
            return FitnessEvaluation(
                score=1.0,
                dominant_frequency_hz=0.0,
                max_droop_v=0.0,
                peak_to_peak_v=0.0,
                ipc=1.0,
                loop_frequency_hz=1.0,
            )

        config = GAConfig(
            population_size=10, generations=6, loop_length=10, seed=8,
            elitism=2,
        )
        engine = GAEngine(fitness, config, memoize=False)
        engine.run(ARM_ISA)
        # every individual of every generation was measured afresh
        assert calls["count"] == 10 * 6
        assert engine.cache_size == 0


def _record(generation, score, name="prog"):
    """A minimal GenerationRecord for tie-break unit tests."""
    program = random_program(
        ARM_ISA, 1, np.random.default_rng(0), name=name
    )
    return GenerationRecord(
        generation=generation,
        best_program=program,
        best=FitnessEvaluation(
            score=score,
            dominant_frequency_hz=1e8,
            max_droop_v=0.01,
            peak_to_peak_v=0.02,
            ipc=1.0,
            loop_frequency_hz=1e7,
        ),
        mean_score=score,
    )


class TestBestTieBreaks:
    def test_ga_result_best_breaks_ties_to_earliest_generation(self):
        history = [
            _record(0, 0.5),
            _record(1, 0.9),
            _record(2, 0.9),
        ]
        result = GAResult(
            config=GAConfig(
                population_size=12, generations=6, loop_length=5, seed=42
            ),
            history=history,
            evaluations=0,
        )
        assert result.best.generation == 1
