"""The generational GA loop (Fig. 3's flow).

Seed a random population, measure every individual, select parents by
tournament, cross over, mutate, repeat.  Fitness evaluations are
memoized on the individual's genome because converged populations
contain many clones -- the same economy a real setup gets by caching
measurement results per binary.

Long campaigns are observable and resumable: ``GAEngine.run`` emits
structured events (generation boundaries, scores, cache statistics,
per-kernel timings) to an :class:`repro.obs.events.EventLog`, and can
periodically serialize its complete state -- population, GA RNG state,
measurement-chain RNG state, memo cache and history -- as a
:class:`GACheckpoint`.  Resuming from a checkpoint continues the
campaign bit-identically to an uninterrupted run (pinned by
``tests/ga/test_checkpoint.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cpu.isa import InstructionSpec
from repro.cpu.program import LoopProgram, random_program
from repro.ga.fitness import FitnessEvaluation
from repro.ga.operators import (
    mutate,
    one_point_crossover,
    tournament_selection,
)
from repro.ga.parallel import ParallelEvaluator
from repro.faults.plan import FaultInjector
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.obs.events import NULL_LOG, EventLog
from repro.obs.timing import collect_kernel_timings


@dataclass(frozen=True)
class GAConfig:
    """GA hyperparameters; defaults follow the paper's recipe.

    ``workers`` fans the fitness evaluations of each generation out
    across processes (see :mod:`repro.ga.parallel`); the default of 1
    keeps the serial path and its seed-for-seed behavior.
    """

    population_size: int = 50
    generations: int = 60
    loop_length: int = 50
    mutation_rate: float = 0.03
    tournament_size: int = 3
    elitism: int = 1
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.loop_length < 1:
            raise ValueError("loop_length must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("elitism must be < population_size")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def check_checkpoint_every(checkpoint_every: int) -> None:
    """Reject a checkpoint interval below one generation."""
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")


@dataclass
class GenerationRecord:
    """Best-individual summary of one generation (the Fig. 7 series)."""

    generation: int
    best_program: LoopProgram
    best: FitnessEvaluation
    mean_score: float


@dataclass
class GACheckpoint:
    """Complete mid-campaign GA state.

    ``generation`` is the index of the next generation to evaluate;
    ``population`` is that generation's individuals; ``rng_state`` is
    the GA generator's bit-generator state *after* producing them, and
    ``fitness_state`` captures the measurement chain's RNG (see
    ``fitness_state()`` on the fitness callables) so fresh evaluations
    after a resume draw the same noise an uninterrupted run would.
    """

    config: GAConfig
    generation: int
    population: List[LoopProgram]
    rng_state: dict
    cache: Dict[Tuple, FitnessEvaluation]
    history: List[GenerationRecord]
    evaluations: int
    fitness_state: Optional[dict] = None


@dataclass
class GAResult:
    """Outcome of a GA run."""

    config: GAConfig
    history: List[GenerationRecord]
    evaluations: int

    @property
    def best(self) -> GenerationRecord:
        # Score ties break toward the earliest generation, so resumed
        # and multi-worker runs report the same champion regardless of
        # how the history was assembled.
        return max(
            self.history, key=lambda r: (r.best.score, -r.generation)
        )

    @property
    def best_program(self) -> LoopProgram:
        return self.best.best_program

    def score_series(self) -> np.ndarray:
        return np.array([r.best.score for r in self.history])

    def droop_series(self) -> np.ndarray:
        return np.array([r.best.max_droop_v for r in self.history])

    def dominant_frequency_series(self) -> np.ndarray:
        return np.array(
            [r.best.dominant_frequency_hz for r in self.history]
        )

    def to_json(self) -> str:
        from repro.io.serialization import ga_result_to_dict

        import json

        return json.dumps(ga_result_to_dict(self))

    @classmethod
    def from_json(cls, text: str) -> "GAResult":
        from repro.io.serialization import ga_result_from_dict

        import json

        return ga_result_from_dict(json.loads(text))


class GAEngine:
    """Drives the optimization against a fitness callable.

    ``fitness`` maps a :class:`LoopProgram` to a
    :class:`FitnessEvaluation`; it encapsulates the whole measurement
    chain (target execution plus instrument).
    """

    def __init__(
        self,
        fitness: Callable[[LoopProgram], FitnessEvaluation],
        config: GAConfig = GAConfig(),
        pool: Optional[Sequence[InstructionSpec]] = None,
        memoize: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        """``memoize=False`` disables the per-genome fitness cache --
        required when the fitness signal is nondeterministic (e.g. the
        cache-miss ablation), where re-measuring a clone legitimately
        yields a different score.

        ``retry_policy`` / ``fault_injector`` are resilience knobs (see
        :mod:`repro.faults`): the policy retries transient measurement
        faults and checkpoint writes with bit-identical state rewind,
        the injector schedules deterministic faults for chaos testing.
        They are deliberately *not* part of :class:`GAConfig`, so
        checkpoints taken under chaos resume cleanly without them.
        """
        self._fitness = fitness
        self.config = config
        self._pool = tuple(pool) if pool is not None else None
        self._memoize = memoize
        self._retry_policy = retry_policy
        self._fault_injector = fault_injector
        self._cache: Dict[Tuple, FitnessEvaluation] = {}

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def _evaluate(self, program: LoopProgram) -> FitnessEvaluation:
        if not self._memoize:
            return self._fitness(program)
        key = program.genome()
        hit = self._cache.get(key)
        if hit is None:
            hit = self._fitness(program)
            self._cache[key] = hit
        return hit

    def _evaluate_generation(
        self,
        population: Sequence[LoopProgram],
        evaluator: ParallelEvaluator,
    ) -> Tuple[List[FitnessEvaluation], int]:
        """Evaluate a whole generation as one batch.

        With memoization on, the generation is deduped by genome
        against the memo cache, only unseen genomes are dispatched to
        ``evaluator`` (first occurrence wins), and the results are
        merged back so clones read from the cache.  Returns the
        per-individual evaluations (population order) and the number of
        fresh fitness measurements.
        """
        if not self._memoize:
            evals = evaluator.evaluate(population)
            return evals, len(evals)
        genomes = [p.genome() for p in population]
        pending: Dict[Tuple, LoopProgram] = {}
        for program, genome in zip(population, genomes):
            if genome not in self._cache and genome not in pending:
                pending[genome] = program
        if pending:
            fresh = evaluator.evaluate(list(pending.values()))
            for genome, evaluation in zip(pending, fresh):
                self._cache[genome] = evaluation
        return [self._cache[g] for g in genomes], len(pending)

    def _initial_population(
        self, isa, rng: np.random.Generator
    ) -> List[LoopProgram]:
        return [
            random_program(
                isa,
                self.config.loop_length,
                rng,
                name=f"ind{i}",
                pool=self._pool,
            )
            for i in range(self.config.population_size)
        ]

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def _capture_fitness_state(self) -> Optional[dict]:
        capture = getattr(self._fitness, "fitness_state", None)
        return capture() if capture is not None else None

    def _restore_fitness_state(self, state: Optional[dict]) -> None:
        if state is None:
            return
        restore = getattr(self._fitness, "restore_fitness_state", None)
        if restore is not None:
            restore(state)

    def _check_resume_config(self, resumed: GAConfig) -> None:
        """Search hyperparameters must match; ``generations`` may be
        extended and ``workers`` re-chosen on resume."""
        ours = replace(self.config, generations=1, workers=1)
        theirs = replace(resumed, generations=1, workers=1)
        if ours != theirs:
            raise ValueError(
                "checkpoint config does not match engine config: "
                f"{resumed} vs {self.config}"
            )

    def _make_checkpoint(
        self,
        generation: int,
        population: Sequence[LoopProgram],
        rng: np.random.Generator,
        history: Sequence[GenerationRecord],
        evaluations: int,
    ) -> GACheckpoint:
        return GACheckpoint(
            config=self.config,
            generation=generation,
            population=list(population),
            rng_state=rng.bit_generator.state,
            cache=dict(self._cache),
            history=list(history),
            evaluations=evaluations,
            fitness_state=self._capture_fitness_state(),
        )

    def _save_checkpoint_resilient(
        self,
        checkpoint: GACheckpoint,
        checkpoint_path: Union[str, Path],
        log: EventLog,
    ) -> Path:
        """Write a checkpoint, retrying transient IO faults if a
        :class:`RetryPolicy` is attached (writes are atomic, so a
        failed attempt leaves the previous checkpoint intact)."""
        from repro.io.serialization import save_checkpoint

        def write() -> Path:
            return save_checkpoint(
                checkpoint,
                checkpoint_path,
                injector=self._fault_injector,
            )

        if self._retry_policy is None:
            return write()
        return call_with_retry(
            write,
            self._retry_policy,
            event_log=log,
            scope="checkpoint-save",
        )

    def _prepare_population(
        self,
        isa,
        rng: np.random.Generator,
        initial_population: Optional[Sequence[LoopProgram]],
        resume: Optional[GACheckpoint],
    ) -> Tuple[List[LoopProgram], List[GenerationRecord], int, int]:
        """(population, history, evaluations, start_gen) honoring
        ``resume`` / ``initial_population``; ``rng`` is mutated to the
        resumed state."""
        if resume is not None:
            if initial_population is not None:
                raise ValueError(
                    "pass either resume or initial_population, not both"
                )
            self._check_resume_config(resume.config)
            rng.bit_generator.state = resume.rng_state
            if self._memoize:
                self._cache.update(resume.cache)
            self._restore_fitness_state(resume.fitness_state)
            return (
                list(resume.population),
                list(resume.history),
                resume.evaluations,
                resume.generation,
            )
        if initial_population is not None:
            population = list(initial_population)
            if len(population) != self.config.population_size:
                raise ValueError(
                    "initial population size does not match config"
                )
            return population, [], 0, 0
        return self._initial_population(isa, rng), [], 0, 0

    def run(
        self,
        isa,
        initial_population: Optional[Sequence[LoopProgram]] = None,
        progress: Optional[Callable[[GenerationRecord], None]] = None,
        event_log: Optional[EventLog] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 5,
        resume: Optional[GACheckpoint] = None,
        evaluator: Optional[ParallelEvaluator] = None,
    ) -> GAResult:
        """Run the full optimization and return per-generation history.

        ``initial_population`` allows seeding from a previous run
        (Section 3.1a); otherwise a fresh random seed population is
        drawn.

        ``event_log`` receives structured telemetry (``ga_run_start``,
        ``generation_start``/``generation_end`` with scores, cache and
        dispatch statistics plus per-kernel timings, ``checkpoint_saved``,
        ``ga_run_end``).  ``checkpoint_path`` enables periodic state
        serialization every ``checkpoint_every`` completed generations;
        ``resume`` restores a :class:`GACheckpoint` (see
        :func:`repro.io.serialization.load_checkpoint`) and continues
        bit-identically to the uninterrupted run.

        ``evaluator`` lets the caller supply (and keep ownership of) a
        pre-warmed :class:`~repro.ga.parallel.ParallelEvaluator` whose
        persistent worker pool survives this run -- benchmarks use it
        to keep pool/session warm-up out of the timed region.  Without
        one, the engine builds its own from ``config.workers`` and
        closes it when the run ends.
        """
        cfg = self.config
        log = event_log if event_log is not None else NULL_LOG
        check_checkpoint_every(checkpoint_every)
        rng = np.random.default_rng(cfg.seed)
        population, history, evaluations, start_gen = (
            self._prepare_population(isa, rng, initial_population, resume)
        )

        log.emit(
            "ga_run_start",
            config=self._config_dict(),
            resumed_from_generation=start_gen if resume else None,
            cache_size=len(self._cache),
        )
        owns_evaluator = evaluator is None
        if owns_evaluator:
            evaluator = ParallelEvaluator(
                self._fitness,
                cfg.workers,
                retry_policy=self._retry_policy,
                fault_injector=self._fault_injector,
                event_log=log,
            )
        # Start the persistent pool (workers warm their sessions) up
        # front so the first generation is not charged for it.
        evaluator.warm_up()
        try:
            for gen in range(start_gen, cfg.generations):
                log.emit(
                    "generation_start",
                    generation=gen,
                    population_size=len(population),
                )
                with collect_kernel_timings() as timings:
                    evals, fresh = self._evaluate_generation(
                        population, evaluator
                    )
                evaluations += fresh
                scores = [e.score for e in evals]
                best_idx = int(np.argmax(scores))
                record = GenerationRecord(
                    generation=gen,
                    best_program=population[best_idx],
                    best=evals[best_idx],
                    mean_score=float(np.mean(scores)),
                )
                history.append(record)
                log.emit(
                    "generation_end",
                    generation=gen,
                    best_score=record.best.score,
                    mean_score=record.mean_score,
                    best_droop_v=record.best.max_droop_v,
                    dominant_frequency_hz=(
                        record.best.dominant_frequency_hz
                    ),
                    best_ipc=record.best.ipc,
                    fresh_evaluations=fresh,
                    cache_hits=len(population) - fresh,
                    cache_size=len(self._cache),
                    dispatched_workers=(
                        evaluator.workers if evaluator.parallel else 1
                    ),
                    quarantined=len(evaluator.quarantined) or None,
                    kernel_timings=timings.snapshot() or None,
                    worker_cache_stats=evaluator.worker_stats() or None,
                )
                if progress is not None:
                    progress(record)
                # The last generation is not bred: a finished campaign
                # needs no successor population.
                if gen == cfg.generations - 1:
                    break
                population = self._next_generation(
                    population, scores, rng, best_idx
                )
                if checkpoint_path is not None and (
                    (gen + 1) % checkpoint_every == 0
                ):
                    saved = self._save_checkpoint_resilient(
                        self._make_checkpoint(
                            gen + 1, population, rng, history, evaluations
                        ),
                        checkpoint_path,
                        log,
                    )
                    log.emit(
                        "checkpoint_saved",
                        generation=gen + 1,
                        path=str(saved),
                        cache_size=len(self._cache),
                    )
        finally:
            if owns_evaluator:
                evaluator.close()
        result = GAResult(
            config=cfg, history=history, evaluations=evaluations
        )
        best = result.best
        log.emit(
            "ga_run_end",
            generations=len(history),
            evaluations=evaluations,
            best_generation=best.generation,
            best_score=best.best.score,
        )
        return result

    def _config_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self.config)

    def _next_generation(
        self,
        population: Sequence[LoopProgram],
        scores: Sequence[float],
        rng: np.random.Generator,
        best_idx: int,
    ) -> List[LoopProgram]:
        cfg = self.config
        ranked = sorted(
            range(len(population)), key=lambda i: scores[i], reverse=True
        )
        next_pop: List[LoopProgram] = [
            population[i] for i in ranked[: cfg.elitism]
        ]
        while len(next_pop) < cfg.population_size:
            parent_a = tournament_selection(
                population, scores, rng, cfg.tournament_size
            )
            parent_b = tournament_selection(
                population, scores, rng, cfg.tournament_size
            )
            child_a, child_b = one_point_crossover(parent_a, parent_b, rng)
            next_pop.append(
                mutate(child_a, rng, cfg.mutation_rate, self._pool)
            )
            if len(next_pop) < cfg.population_size:
                next_pop.append(
                    mutate(child_b, rng, cfg.mutation_rate, self._pool)
                )
        return next_pop
