"""Bit-equivalence pins: the chain shims vs the historical per-call path.

The batched chain must make the same floating-point operations and the
same RNG draws in the same order as the code it replaced.  Each test
keeps a reference copy of the pre-chain implementation (built from the
pre-chain cluster run in ``tests/chain/legacy_reference.py`` and the
per-call primitives ``DieRadiator.emission``,
``SpectrumAnalyzer.max_amplitude`` / ``sweep``) and asserts exact
equality -- not approx -- against the rerouted public API.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest

from repro import EMCharacterizer, make_juno_board
from repro.chain import ChainItem, ChainRequest, OperatingPoint
from repro.core.resonance import ResonanceSweep
from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import (
    ClusterFitness,
    EMAmplitudeFitness,
    FitnessEvaluation,
    _common_metrics,
)
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.obs.context import RunContext
from repro.obs.events import EventLog, MemorySink
from repro.obs.timing import active_kernel_timings, collect_kernel_timings
from repro.pdn.steady_state import SteadyStateSolver
from repro.workloads.loops import high_low_program

from tests.chain.legacy_reference import reference_run


def fresh_characterizer(seed=1234, samples=4) -> EMCharacterizer:
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(seed)),
        samples=samples,
    )


def legacy_measure(
    characterizer: EMCharacterizer,
    cluster,
    program,
    active_cores=None,
    samples=None,
):
    """The pre-chain ``EMCharacterizer.measure`` body, verbatim."""
    run = reference_run(cluster, program, active_cores=active_cores)
    emission = characterizer.radiator.emission(run.response)
    amplitude = characterizer.analyzer.max_amplitude(
        emission,
        band=characterizer.band,
        samples=samples or characterizer.samples,
    )
    trace = characterizer.analyzer.sweep(emission)
    peak_freq, _ = trace.peak(characterizer.band)
    return amplitude, peak_freq, trace, run


@dataclass
class LegacyEMAmplitudeFitness:
    """The pre-chain ``EMAmplitudeFitness.__call__`` body, verbatim."""

    analyzer: SpectrumAnalyzer
    radiator: object
    band: Tuple[float, float]
    samples: int
    active_cores: Optional[int] = None

    def __call__(self, cluster, program) -> FitnessEvaluation:
        run = reference_run(cluster, program, active_cores=self.active_cores)
        emission = self.radiator.emission(run.response)
        score = self.analyzer.max_amplitude(
            emission, band=self.band, samples=self.samples
        )
        dominant, droop, p2p, ipc = _common_metrics(run, self.band)
        banded = emission.band(*self.band)
        peak_freq, _ = banded.peak()
        return FitnessEvaluation(
            score=score,
            dominant_frequency_hz=peak_freq or dominant,
            max_droop_v=droop,
            peak_to_peak_v=p2p,
            ipc=ipc,
            loop_frequency_hz=run.loop_frequency_hz,
        )


class TestMeasureEquivalence:
    @pytest.mark.parametrize(
        "band, message",
        [
            ((200.0e6, 50.0e6), "inverted band"),
            ((float("nan"), 80.0e6), "finite"),
            ((300.0e6, 400.0e6), "no bins inside band"),
        ],
        ids=["inverted", "nan", "outside-span"],
    )
    def test_trace_request_refuses_bad_band_before_drawing(
        self, a53, band, message
    ):
        """A trace-only request refuses its band before the receive
        stage draws any item's sweep or counts any dwell time."""
        characterizer = fresh_characterizer(seed=5)
        analyzer = characterizer.analyzer
        state = analyzer.rng.bit_generator.state
        program = high_low_program(a53.spec.isa)
        request = ChainRequest(
            cluster=a53,
            items=[ChainItem(program=program) for _ in range(3)],
            band=band,
            want_amplitude=False,
            want_trace=True,
        )
        with pytest.raises(ValueError, match=message):
            characterizer.chain_path().run(request)
        assert analyzer.rng.bit_generator.state == state
        assert analyzer.total_measurement_time_s == 0.0

    def test_single_measure_bit_identical(self, a53):
        program = high_low_program(a53.spec.isa)
        legacy = fresh_characterizer(seed=77)
        amp, peak, trace, run = legacy_measure(legacy, a53, program)

        chained = fresh_characterizer(seed=77)
        m = chained.measure(a53, program)

        assert m.amplitude_w == amp
        assert m.peak_frequency_hz == peak
        assert np.array_equal(m.trace.power_dbm, trace.power_dbm)
        assert np.array_equal(
            m.run.response.die_voltage, run.response.die_voltage
        )
        assert m.run.loop_frequency_hz == run.loop_frequency_hz

    def test_batched_measures_match_sequential_legacy(self, a53, rng):
        from repro.cpu.program import random_program

        programs = [
            random_program(a53.spec.isa, 6, rng) for _ in range(3)
        ]
        legacy = fresh_characterizer(seed=9)
        expected = [legacy_measure(legacy, a53, p) for p in programs]

        chained = fresh_characterizer(seed=9)
        measurements = chained.measure_batch(a53, programs)

        for m, (amp, peak, trace, run) in zip(measurements, expected):
            assert m.amplitude_w == amp
            assert m.peak_frequency_hz == peak
            assert np.array_equal(m.trace.power_dbm, trace.power_dbm)
            assert np.array_equal(
                m.run.response.die_voltage, run.response.die_voltage
            )

    def test_analyzer_rng_stream_matches_legacy(self, a53):
        """After N measurements both analyzer RNGs sit at the same state."""
        program = high_low_program(a53.spec.isa)
        legacy = fresh_characterizer(seed=5)
        chained = fresh_characterizer(seed=5)
        for _ in range(2):
            legacy_measure(legacy, a53, program)
        chained.measure_batch(a53, [program, program])
        assert (
            legacy.analyzer.rng.bit_generator.state
            == chained.analyzer.rng.bit_generator.state
        )


class TestSweepEquivalence:
    def _clocks(self, cluster):
        return list(cluster.spec.allowed_clocks_hz())[:5]

    def test_sweep_bit_identical_to_legacy_loop(self, a53):
        clocks = self._clocks(a53)
        program = high_low_program(a53.spec.isa)

        legacy = fresh_characterizer(seed=21)
        expected = []
        saved = a53.clock_hz
        for clock in clocks:
            a53.set_clock(clock)
            amp, peak, trace, run = legacy_measure(
                legacy, a53, program, samples=2
            )
            expected.append((clock, run.loop_frequency_hz, amp))
        a53.set_clock(saved)

        chained = fresh_characterizer(seed=21)
        sweep = ResonanceSweep(chained, samples_per_point=2)
        result = sweep.run(RunContext(cluster=a53), clocks_hz=clocks)

        assert [
            (p.clock_hz, p.loop_frequency_hz, p.amplitude_w)
            for p in result.points
        ] == expected

    @pytest.mark.parametrize(
        "entry_point", ["sweep", "measure_batch", "evaluate_batch"]
    )
    def test_sweep_never_mutates_the_cluster(
        self, a53, monkeypatch, entry_point
    ):
        """No chain entry point calls a cluster setter, not even to
        restore what it changed: every setter raises during the call."""
        program = high_low_program(a53.spec.isa)
        clocks = self._clocks(a53)

        def forbidden(*args, **kwargs):
            raise AssertionError("a chain run mutated the cluster")

        with monkeypatch.context() as patch:
            for name in ("set_clock", "set_voltage", "power_gate", "reset"):
                patch.setattr(a53, name, forbidden)
            if entry_point == "sweep":
                sweep = ResonanceSweep(
                    fresh_characterizer(), samples_per_point=2
                )
                sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
            elif entry_point == "measure_batch":
                points = [
                    OperatingPoint(clock_hz=clocks[-1]),
                    OperatingPoint(voltage=0.9),
                    OperatingPoint(powered_cores=1),
                ]
                fresh_characterizer().measure_batch(
                    a53,
                    [],
                    items=[
                        ChainItem(program=program, operating_point=point)
                        for point in points
                    ],
                )
            else:
                fitness = EMAmplitudeFitness(
                    analyzer=SpectrumAnalyzer(
                        rng=np.random.default_rng(3)
                    ),
                    samples=2,
                )
                fitness.evaluate_batch(a53, [program, program])
        assert a53.state() == (
            a53.spec.nominal_clock_hz,
            a53.spec.nominal_voltage,
            a53.spec.num_cores,
        )

    def test_one_tf_analysis_per_distinct_cluster_state(self):
        # A fresh board: its solvers count this test's analyses only.
        a53 = make_juno_board().a53
        clocks = self._clocks(a53)
        characterizer = fresh_characterizer()
        solver = a53.pdn.solver(a53.powered_cores)
        analyses_before = solver.tf_analyses
        sweep = ResonanceSweep(characterizer, samples_per_point=2)
        sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
        # One AC analysis per distinct clock point, no more.
        assert solver.tf_analyses - analyses_before == len(clocks)
        stats = characterizer.session.stats
        assert stats.tf_misses == len(clocks)
        assert stats.tf_hits == 0
        # The schedule is clock-independent: one execution, K-1 reuses.
        assert stats.execute_misses == 1
        assert stats.execute_hits == len(clocks) - 1

        # A second sweep over the same states is all cache hits.
        sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
        assert solver.tf_analyses - analyses_before == len(clocks)
        assert stats.tf_hits == len(clocks)
        assert stats.execute_hits == 2 * len(clocks) - 1

    def test_stage_timings_reach_the_event_log(self, a53):
        sink = MemorySink()
        sweep = ResonanceSweep(fresh_characterizer(), samples_per_point=2)
        sweep.run(
            RunContext(cluster=a53, event_log=EventLog([sink])),
            clocks_hz=self._clocks(a53),
        )
        stage_names = [
            "execute", "current", "pdn", "radiate", "propagate", "receive",
        ]
        (chain_run,) = sink.events("chain_run")
        assert list(chain_run["stage_times_s"]) == stage_names
        (sweep_end,) = sink.events("sweep_end")
        assert list(sweep_end["stage_times_s"]) == stage_names
        assert sweep_end["cache_stats"]["tf_misses"] == len(
            self._clocks(a53)
        )


class TestGAGenerationEquivalence:
    def _config(self):
        return GAConfig(
            population_size=6, generations=2, loop_length=5, seed=11
        )

    def test_ga_history_bit_identical_to_legacy_fitness(self, a53):
        band = (50.0e6, 200.0e6)
        legacy_fitness = ClusterFitness(
            LegacyEMAmplitudeFitness(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(33)),
                radiator=EMCharacterizer().radiator,
                band=band,
                samples=3,
            ),
            a53,
        )
        legacy = GAEngine(legacy_fitness, config=self._config()).run(
            a53.spec.isa
        )

        chained_fitness = ClusterFitness(
            EMAmplitudeFitness(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(33)),
                band=band,
                samples=3,
            ),
            a53,
        )
        chained = GAEngine(chained_fitness, config=self._config()).run(
            a53.spec.isa
        )

        assert chained.evaluations == legacy.evaluations
        for rec_new, rec_old in zip(chained.history, legacy.history):
            assert rec_new.generation == rec_old.generation
            assert rec_new.best_program.genome() == (
                rec_old.best_program.genome()
            )
            assert rec_new.best == rec_old.best
            assert rec_new.mean_score == rec_old.mean_score

    def test_generation_end_records_chain_stage_timings(self, a53):
        sink = MemorySink()
        fitness = ClusterFitness(
            EMAmplitudeFitness(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(2)),
                samples=2,
            ),
            a53,
        )
        GAEngine(fitness, config=self._config()).run(
            a53.spec.isa, event_log=EventLog([sink])
        )
        records = sink.events("generation_end")
        assert records
        for record in records:
            timings = record["kernel_timings"]
            assert "chain.execute" in timings
            assert "chain.receive" in timings
            # The analyzer's batch kernels time themselves.
            assert "analyzer.propagate" in timings
            assert "analyzer.readout" in timings

    def test_generation_end_times_the_draw_waits(self, a53):
        """At 30 samples a readout holds two items per draw block, so a
        generation with three or more fresh genomes reads its noise
        from a draw thread and times each block's wait; a one-block
        readout draws in place and records no wait."""
        sink = MemorySink()
        fitness = ClusterFitness(
            EMAmplitudeFitness(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(2)),
                samples=30,
            ),
            a53,
        )
        GAEngine(fitness, config=self._config()).run(
            a53.spec.isa, event_log=EventLog([sink])
        )
        records = sink.events("generation_end")
        assert records[0]["fresh_evaluations"] == 6
        for record in records:
            blocks = -(-record["fresh_evaluations"] // 2)
            waits = record["kernel_timings"].get("analyzer.draw_wait")
            if blocks >= 2:
                assert waits["calls"] == blocks
            else:
                assert waits is None
        with collect_kernel_timings() as timings:
            fresh_characterizer(samples=30).measure_batch(
                a53, [high_low_program(a53.spec.isa)] * 2
            )
        assert "analyzer.readout" in timings.calls
        assert "analyzer.draw_wait" not in timings.calls

    def test_generation_end_times_each_ac_analysis(self, monkeypatch):
        """Every counted analysis is folded inside a timed ``pdn.ac``
        call: each fold runs under the generation's collector, the
        folds are the ``pdn.ac`` calls, and their grids add up to
        ``tf_analyses``."""
        # A fresh board: its solvers count this test's analyses only.
        a53 = make_juno_board().a53
        solver = a53.pdn.solver(a53.powered_cores)
        analyses_before = solver.tf_analyses
        folds = []
        fold = SteadyStateSolver.compute_transfer_functions

        def spy(self, grids):
            folds.append((len(grids), active_kernel_timings() is not None))
            return fold(self, grids)

        monkeypatch.setattr(
            SteadyStateSolver, "compute_transfer_functions", spy
        )
        sink = MemorySink()
        fitness = ClusterFitness(
            EMAmplitudeFitness(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(2)),
                samples=2,
            ),
            a53,
        )
        GAEngine(fitness, config=self._config()).run(
            a53.spec.isa, event_log=EventLog([sink])
        )
        calls = sum(
            record["kernel_timings"].get("pdn.ac", {}).get("calls", 0)
            for record in sink.events("generation_end")
        )
        assert calls > 0
        assert calls == len(folds)
        assert all(timed for _, timed in folds)
        assert sum(grids for grids, _ in folds) == (
            solver.tf_analyses - analyses_before
        )
        # A generation's fresh genomes share a fold.
        assert max(grids for grids, _ in folds) > 1
