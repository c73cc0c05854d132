"""Chaos tests for the measurement chain: injected stage faults.

The load-bearing claim: a transient fault retried to success leaves the
campaign *bit-identical* to a fault-free one, because the retry wrapper
rewinds the fitness RNG state (analyzer noise and cache-miss memory
stream) before every re-attempt.
"""

import threading

import numpy as np
import pytest

from repro.chain import (
    ChainItem,
    ChainRequest,
    CurrentStage,
    ExecuteStage,
    PDNStage,
    PropagateStage,
    RadiateStage,
    ReceiveStage,
    SignalPath,
    SimulationSession,
)
from repro.core.characterizer import EMCharacterizer
from repro.cpu.cache import CacheModel
from repro.cpu.isa import InstructionSet
from repro.cpu.program import random_program
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TransientFault,
)
from repro.ga.fitness import ClusterFitness, EMAmplitudeFitness
from repro.ga.parallel import ParallelEvaluator
from repro.instruments.spectrum_analyzer import ReadoutPlan, SpectrumAnalyzer
from repro.obs.events import EventLog, MemorySink
from repro.obs.timing import collect_kernel_timings

POLICY = RetryPolicy(max_retries=2, base_delay_s=0.0)


def _wide_isa(cluster):
    return InstructionSet(
        name="armv8-wide",
        specs=cluster.spec.isa.specs,
        registers=dict(cluster.spec.isa.registers),
        memory_slots=256,
    )


def _memory_programs(cluster, count=3, length=16):
    isa = _wide_isa(cluster)
    rng = np.random.default_rng(21)
    return [
        random_program(
            isa, length, rng, name=f"mem{i}",
            pool=(isa.spec("ldr"), isa.spec("add")),
        )
        for i in range(count)
    ]


def _fitness(cluster, injector=None, samples=3):
    """A fitness whose score consumes two RNG streams per batch."""
    return ClusterFitness(
        EMAmplitudeFitness(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(2)),
            samples=samples,
            cache_model=CacheModel(l1_slots=64),
            memory_rng=np.random.default_rng(3),
            fault_injector=injector,
        ),
        cluster,
    )


class TestFaultPropagation:
    def test_chain_fault_propagates_without_policy(self, a72):
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="chain.pdn", at_visit=0),))
        )
        characterizer = EMCharacterizer(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(0)),
            samples=3,
            fault_injector=injector,
        )
        programs = _memory_programs(a72, count=1)
        with pytest.raises(TransientFault) as excinfo:
            characterizer.measure(a72, programs[0])
        assert excinfo.value.site == "chain.pdn"
        assert injector.fired_at("chain.pdn")

    def test_disarmed_injector_changes_nothing(self, a72):
        programs = _memory_programs(a72)
        plain = ParallelEvaluator(_fitness(a72), workers=1)
        armed_but_empty = ParallelEvaluator(
            _fitness(a72, FaultInjector()),
            workers=1,
            retry_policy=POLICY,
        )
        scores_a = [e.score for e in plain.evaluate(programs)]
        scores_b = [e.score for e in armed_but_empty.evaluate(programs)]
        assert scores_a == scores_b


class TestBitIdenticalRetry:
    def test_retried_batches_match_fault_free_run(self, a72):
        programs = _memory_programs(a72)
        baseline = ParallelEvaluator(_fitness(a72), workers=1)
        expected = [
            [e.score for e in baseline.evaluate(programs)]
            for _ in range(3)
        ]
        # chain.current fires on the 2nd batch, *after* the execute
        # stage consumed cache-miss RNG draws -- exactly the case where
        # a naive retry would shift every later measurement.
        injector = FaultInjector(
            FaultPlan(
                specs=(FaultSpec(site="chain.current", at_visit=1),)
            )
        )
        sink = MemorySink()
        chaotic = ParallelEvaluator(
            _fitness(a72, injector),
            workers=1,
            retry_policy=POLICY,
            event_log=EventLog([sink]),
        )
        observed = [
            [e.score for e in chaotic.evaluate(programs)]
            for _ in range(3)
        ]
        assert injector.fired_at("chain.current")
        assert observed == expected
        assert len(sink.events("fault_injected")) == 1
        assert len(sink.events("retry_attempt")) == 1

    @pytest.mark.parametrize("site", ["chain.propagate", "chain.receive"])
    def test_multi_block_readout_retries_bit_identically(self, a72, site):
        """At 30 samples the readout of 3 programs spans 2 draw blocks,
        so every attempt starts a draw thread.  A fault before the
        readout stops and joins it before the retry, and the retried
        batches score like the fault-free run."""
        programs = _memory_programs(a72)
        baseline = ParallelEvaluator(_fitness(a72, samples=30), workers=1)
        expected = [
            [e.score for e in baseline.evaluate(programs)]
            for _ in range(3)
        ]
        baseline_threads = threading.active_count()
        threads_at_faults = []

        class ThreadCountSink(MemorySink):
            def emit(self, record):
                if record["event"] == "fault_injected":
                    threads_at_faults.append(threading.active_count())
                super().emit(record)

        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(site=site, at_visit=1, times=2),))
        )
        chaotic = ParallelEvaluator(
            _fitness(a72, injector, samples=30),
            workers=1,
            retry_policy=POLICY,
            event_log=EventLog([ThreadCountSink()]),
        )
        with collect_kernel_timings() as timings:
            observed = [
                [e.score for e in chaotic.evaluate(programs)]
                for _ in range(3)
            ]
        assert injector.fired_at(site)
        assert observed == expected
        # Every successful attempt read its blocks from a draw thread.
        assert timings.calls["analyzer.draw_wait"] == 3 * 2
        assert threads_at_faults == [baseline_threads] * 2
        assert threading.active_count() == baseline_threads

    def test_repeated_faults_within_budget_still_identical(self, a72):
        programs = _memory_programs(a72)
        baseline = ParallelEvaluator(_fitness(a72), workers=1)
        expected = [e.score for e in baseline.evaluate(programs)]
        # Two consecutive failures on the same batch: both retries of
        # the budget are spent, the third attempt succeeds.
        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(site="chain.receive", at_visit=0, times=2),
                )
            )
        )
        chaotic = ParallelEvaluator(
            _fitness(a72, injector), workers=1, retry_policy=POLICY
        )
        assert [e.score for e in chaotic.evaluate(programs)] == expected

    def test_event_payloads_identify_the_fault(self, a72):
        programs = _memory_programs(a72, count=2)
        injector = FaultInjector(
            FaultPlan(
                specs=(FaultSpec(site="chain.radiate", at_visit=0),)
            )
        )
        sink = MemorySink()
        evaluator = ParallelEvaluator(
            _fitness(a72, injector),
            workers=1,
            retry_policy=POLICY,
            event_log=EventLog([sink]),
        )
        evaluator.evaluate(programs)
        (fault,) = sink.events("fault_injected")
        assert fault["site"] == "chain.radiate"
        assert fault["kind"] == "transient"
        assert fault["scope"] == "batch"
        (retry,) = sink.events("retry_attempt")
        assert retry["site"] == "chain.radiate"
        assert retry["delay_s"] == 0.0


class _DrawsFromAnalyzer:
    """A stage that draws from the analyzer RNG, which only the receive
    stage may do."""

    name = "stray"
    drains = ()

    def __init__(self, rng):
        self.rng = rng

    def run(self, batch) -> None:
        self.rng.standard_normal()


class TestDrawAheadCommit:
    def test_stray_draw_before_receive_refuses_the_commit(self, a72):
        """With the audit ledger off, a draw from the analyzer RNG by a
        stage before receive is not overwritten by the drawn-ahead
        readout's end state: the commit raises instead."""
        analyzer = SpectrumAnalyzer(rng=np.random.default_rng(5))
        radiator = EMCharacterizer().radiator
        path = SignalPath(
            [
                ExecuteStage(),
                CurrentStage(),
                PDNStage(),
                RadiateStage(radiator),
                PropagateStage(analyzer),
                _DrawsFromAnalyzer(analyzer.rng),
                ReceiveStage(analyzer),
            ],
            session=SimulationSession(),
        )
        assert path.session.audit is None
        request = ChainRequest(
            cluster=a72,
            items=[ChainItem(program=p) for p in _memory_programs(a72)],
            samples=30,
            want_trace=False,
        )
        stray = np.random.default_rng(5)
        stray.standard_normal()
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="drawn ahead"):
            path.run(request)
        assert (
            analyzer.rng.bit_generator.state == stray.bit_generator.state
        )
        assert threading.active_count() == threads

    def test_draw_thread_error_reaches_the_reader(self, a72, monkeypatch):
        """An exception in the draw thread is re-raised by the run, the
        thread is joined, and the analyzer RNG is left where it was."""

        class DrawError(Exception):
            pass

        draw = ReadoutPlan.draw

        def failing_draw(plan, rng):
            blocks = draw(plan, rng)
            yield next(blocks)
            raise DrawError("second block")

        monkeypatch.setattr(ReadoutPlan, "draw", failing_draw)
        characterizer = EMCharacterizer(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(5)),
            samples=30,
        )
        before = characterizer.analyzer.rng.bit_generator.state
        threads = threading.active_count()
        with pytest.raises(DrawError, match="second block"):
            characterizer.measure_batch(a72, _memory_programs(a72))
        assert characterizer.analyzer.rng.bit_generator.state == before
        assert threading.active_count() == threads
