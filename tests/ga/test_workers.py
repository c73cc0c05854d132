"""Persistent warm-cache GA workers: determinism, transport, recovery.

The contract pinned here is that moving dispatch onto long-lived
warm-cache worker processes (``repro.ga.parallel``) changes *nothing*
observable but wall-clock: ``workers=4`` histories stay byte-identical
to ``workers=1`` across multi-generation runs, through mid-run
checkpoint/resume and under injected worker crashes with respawn, and
results cross the process boundary unchanged in type and value.
"""

import json
import multiprocessing
import os
import pickle
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.cpu.arm import ARM_ISA
from repro.cpu.program import random_program
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.faults.plan import NULL_INJECTOR
from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import FitnessEvaluation
from repro.ga.parallel import ParallelEvaluator, PersistentWorkerPool
from repro.io.serialization import load_checkpoint
from repro.obs.events import EventLog, MemorySink

from tests.ga.test_parallel import PureFitness

POLICY = RetryPolicy(max_retries=2, base_delay_s=0.0)

CONFIG = GAConfig(
    population_size=12, generations=6, loop_length=20, seed=4
)


def _programs(count=6, length=12, seed=3):
    rng = np.random.default_rng(seed)
    return [
        random_program(ARM_ISA, length, rng, name=f"w{i}")
        for i in range(count)
    ]


def _evaluation(score):
    return FitnessEvaluation(
        score=score,
        dominant_frequency_hz=0.0,
        max_droop_v=0.0,
        peak_to_peak_v=0.0,
        ipc=1.0,
        loop_frequency_hz=1.0,
    )


class IntScoreFitness:
    """Scores with an ``int``, so a lossy result transport would show
    up as a changed type."""

    def __call__(self, program):
        evaluation = _evaluation(0.0)
        evaluation.score = len(program.body)
        return evaluation


class _ProcessLocalScore(float):
    """A score that refuses to be pickled."""

    def __reduce__(self):
        raise pickle.PicklingError("score cannot leave its process")


class UnpicklableResultFitness:
    """A picklable fitness whose results cannot be pickled."""

    def __call__(self, program):
        return _evaluation(_ProcessLocalScore(len(program.body)))


def _within(timeout_s, fn):
    """Return ``fn()`` run on a thread, failing instead of hanging when
    it takes longer than ``timeout_s``."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        pytest.fail(f"no result after {timeout_s}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def history_bytes(result) -> bytes:
    """A ``GAResult``'s history as canonical bytes (config excluded,
    so runs that differ only in ``workers`` can be compared)."""
    return json.dumps(
        [
            [
                rec.generation,
                rec.mean_score,
                rec.best.__dict__,
                rec.best_program.genome(),
            ]
            for rec in result.history
        ],
        sort_keys=True,
    ).encode()


def _assert_byte_identical(a, b):
    assert history_bytes(a) == history_bytes(b)
    assert a.evaluations == b.evaluations


# ---------------------------------------------------------------------------
# the pool itself
# ---------------------------------------------------------------------------
class TestPersistentPool:
    def test_dispatch_matches_serial_and_emits_warmup(self):
        programs = _programs(count=8)
        fitness = PureFitness()
        expected = [fitness(p).score for p in programs]
        sink = MemorySink()
        payload = pickle.dumps((PureFitness(), NULL_INJECTOR, None))
        with PersistentWorkerPool(
            payload, workers=2, event_log=EventLog([sink])
        ) as pool:
            pool.start()
            outcomes = pool.dispatch(
                {0: programs[:4], 1: programs[4:]}
            )
        assert [o.kind for o in outcomes.values()] == ["ok", "ok"]
        got = [
            e.score
            for i in (0, 1)
            for e in outcomes[i].results
        ]
        assert got == expected
        warmups = sink.events("worker_warmup")
        assert len(warmups) == 2
        assert {w["worker"] for w in warmups} == {0, 1}
        for w in warmups:
            assert w["respawned"] is False
            assert w["warmup_s"] >= 0.0
            assert w["pid"]

    def test_pool_survives_many_generations_of_dispatch(self):
        fitness = PureFitness()
        payload = pickle.dumps((PureFitness(), NULL_INJECTOR, None))
        with PersistentWorkerPool(payload, workers=2) as pool:
            for gen in range(4):
                programs = _programs(count=6, seed=100 + gen)
                outcomes = pool.dispatch(
                    {0: programs[:3], 1: programs[3:]}
                )
                got = [
                    e.score
                    for i in (0, 1)
                    for e in outcomes[i].results
                ]
                assert got == [fitness(p).score for p in programs]
            assert pool.respawns == 0

    def test_exotic_results_keep_their_type_and_value(self):
        programs = _programs(count=4)
        payload = pickle.dumps((IntScoreFitness(), NULL_INJECTOR, None))
        with PersistentWorkerPool(payload, workers=2) as pool:
            outcomes = pool.dispatch({0: programs[:2], 1: programs[2:]})
        got = [e for i in (0, 1) for e in outcomes[i].results]
        assert got == [IntScoreFitness()(p) for p in programs]
        assert all(type(e) is FitnessEvaluation for e in got)
        assert all(type(e.score) is int for e in got)

    def test_unpicklable_results_crash_until_serial(self):
        """A worker that cannot pickle its results exits, so every
        shard takes the crash path until the evaluator degrades to
        serial.  Results handed to the queue unpickled would instead be
        dropped by its feeder thread and leave the parent waiting, hence
        the timeout."""
        programs = _programs(count=4)
        restarts = 1
        sink = MemorySink()

        def run():
            with ParallelEvaluator(
                UnpicklableResultFitness(),
                workers=2,
                event_log=EventLog([sink]),
                max_pool_restarts=restarts,
            ) as evaluator:
                return evaluator.evaluate(programs), evaluator.degraded

        results, degraded = _within(60.0, run)
        assert degraded
        assert [e.score for e in results] == [
            float(len(p.body)) for p in programs
        ]
        recovery = [
            r["event"]
            for r in sink.records
            if r["event"] in ("worker_crash", "degraded_to_serial")
        ]
        assert recovery == (
            ["worker_crash"] * (restarts + 1) + ["degraded_to_serial"]
        )


class DieOnceFitness:
    """Hard-kills the first worker process that evaluates; pure after.

    A filesystem marker (``O_EXCL``) makes exactly one worker die, so
    the test exercises real process death -> respawn with warm-up
    replay -> successful re-dispatch, without degrading the pool.
    """

    def __init__(self, marker: str):
        self.marker = marker

    def __call__(self, program):
        if multiprocessing.parent_process() is not None:
            try:
                fd = os.open(
                    self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os._exit(1)
        return _evaluation(float(len(program.body)))


class TestCrashRespawn:
    def test_real_death_respawns_with_warmup_replay(self, tmp_path):
        programs = _programs(count=6)
        expected = [float(len(p.body)) for p in programs]
        sink = MemorySink()
        with ParallelEvaluator(
            DieOnceFitness(str(tmp_path / "died")),
            workers=2,
            retry_policy=POLICY,
            event_log=EventLog([sink]),
        ) as evaluator:
            got = [e.score for e in evaluator.evaluate(programs)]
        assert got == expected
        assert evaluator.pool_crashes == 1
        assert not evaluator.degraded
        # The dead worker was replaced and re-ran its warm-up.
        respawned = [
            w for w in sink.events("worker_warmup") if w["respawned"]
        ]
        assert len(respawned) == 1
        crashes = sink.events("worker_crash")
        assert crashes and "died mid-shard" in crashes[0]["error"]

    def test_injected_crash_run_matches_workers_1(self):
        """Fault-plan worker crashes + respawn machinery must not
        perturb the history relative to a serial fault-free run."""
        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="worker.shard",
                        kind="worker_crash",
                        at_visit=0,
                        times=1,
                    ),
                )
            )
        )
        serial = GAEngine(PureFitness(), CONFIG).run(ARM_ISA)
        chaotic = GAEngine(
            PureFitness(),
            replace(CONFIG, workers=4),
            retry_policy=POLICY,
            fault_injector=injector,
        ).run(ARM_ISA)
        _assert_byte_identical(serial, chaotic)


# ---------------------------------------------------------------------------
# engine-level bit-identity
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_workers_4_resume_mid_run_matches_workers_1(self, tmp_path):
        """workers=4 with a mid-run kill + resume reproduces the
        serial uninterrupted history byte for byte."""
        serial = GAEngine(PureFitness(), CONFIG).run(ARM_ISA)

        parallel_cfg = replace(CONFIG, workers=4)
        ckpt = tmp_path / "workers.ckpt.json"
        GAEngine(
            PureFitness(), replace(parallel_cfg, generations=3)
        ).run(ARM_ISA, checkpoint_path=ckpt, checkpoint_every=1)
        resumed = GAEngine(PureFitness(), parallel_cfg).run(
            ARM_ISA, resume=load_checkpoint(ckpt)
        )
        _assert_byte_identical(serial, resumed)


# ---------------------------------------------------------------------------
# warm-up hooks
# ---------------------------------------------------------------------------
class TestWarmUpHooks:
    def test_session_warm_up_primes_cluster_state(self):
        from repro.chain import SimulationSession
        from repro.platforms.juno import make_juno_board

        cluster = make_juno_board().a72
        session = SimulationSession()
        stats = session.warm_up(cluster=cluster)
        assert stats["invalidations"] == 0
        # The snapshot is memoized: same object back, no version bump.
        assert session.cluster_state(cluster) is session.cluster_state(
            cluster
        )

    def test_fitness_warm_up_does_not_perturb_scores(self):
        from repro.ga.fitness import ClusterFitness, EMAmplitudeFitness
        from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
        from repro.platforms.juno import make_juno_board

        def make(seed):
            return ClusterFitness(
                EMAmplitudeFitness(
                    analyzer=SpectrumAnalyzer(
                        rng=np.random.default_rng(seed)
                    ),
                    samples=3,
                ),
                make_juno_board().a72,
            )

        program = _programs(count=1)[0]
        cold, warmed = make(9), make(9)
        stats = warmed.warm_up()
        assert isinstance(stats, dict)
        # Warming is RNG-free: same program, same analyzer noise, same
        # score as the never-warmed twin.
        assert warmed(program) == cold(program)
        after = warmed.session_stats()
        assert after is not None and after["execute_misses"] >= 1

    def test_generation_end_carries_worker_cache_stats(self):
        from repro.ga.fitness import ClusterFitness, EMAmplitudeFitness
        from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
        from repro.platforms.juno import make_juno_board

        fitness = ClusterFitness(
            EMAmplitudeFitness(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(3)),
                samples=2,
            ),
            make_juno_board().a72,
        )
        sink = MemorySink()
        GAEngine(
            fitness,
            GAConfig(
                population_size=4,
                generations=2,
                loop_length=5,
                seed=1,
                workers=2,
            ),
        ).run(ARM_ISA, event_log=EventLog([sink]))
        warmups = sink.events("worker_warmup")
        assert len(warmups) == 2
        # Workers warmed their sessions before the first shard.
        assert all(
            isinstance(w["cache_stats"], dict) for w in warmups
        )
        gen_ends = sink.events("generation_end")
        assert gen_ends
        stats = gen_ends[-1]["worker_cache_stats"]
        assert stats and all(
            "execute_misses" in s for s in stats.values()
        )
