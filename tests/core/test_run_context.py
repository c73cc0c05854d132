"""The unified experiment API: ``.run(ctx)`` across all entry points.

Every experiment -- EM characterization, resonance sweep, virus
generation -- takes the same :class:`repro.obs.RunContext` and returns
a result that round-trips through ``to_json``/``from_json``.
"""

import json

import numpy as np
import pytest

from repro.core.characterizer import EMCharacterizer
from repro.core.resonance import ResonanceSweep, SweepResult
from repro.core.results import (
    RESULT_SCHEMA_VERSION,
    GARunSummary,
    MeasurementResult,
)
from repro.core.virusgen import VirusGenerator
from repro.ga.engine import GAConfig
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.obs.context import RunContext
from repro.obs.events import EventLog, MemorySink


def make_characterizer(seed=1234, samples=3):
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(seed)),
        samples=samples,
    )


class TestRunContext:
    def test_defaults(self, a53):
        ctx = RunContext(cluster=a53)
        assert ctx.seed == 0
        assert ctx.workers == 1
        assert ctx.active_cores is None
        assert not ctx.event_log.enabled
        assert ctx.cluster_name == a53.name

    def test_rejects_bad_workers(self, a53):
        with pytest.raises(ValueError, match="workers"):
            RunContext(cluster=a53, workers=0)


class TestCharacterizerRun:
    def test_returns_measurement_result(self, a53):
        sink = MemorySink()
        ctx = RunContext(cluster=a53, event_log=EventLog([sink]))
        result = make_characterizer().run(ctx)
        assert isinstance(result, MeasurementResult)
        assert result.cluster_name == a53.name
        assert result.amplitude_w > 0.0
        assert len(sink.events("em_measurement_start")) == 1
        assert len(sink.events("em_measurement_end")) == 1

    def test_round_trips_json(self, a53):
        result = make_characterizer().run(RunContext(cluster=a53))
        again = MeasurementResult.from_json(result.to_json())
        assert again.cluster_name == result.cluster_name
        assert again.amplitude_w == result.amplitude_w
        np.testing.assert_array_equal(
            again.frequencies_hz, result.frequencies_hz
        )
        np.testing.assert_array_equal(
            again.power_dbm, result.power_dbm
        )


class TestSweepRun:
    def _clocks(self, a53):
        allowed = sorted(a53.spec.allowed_clocks_hz())
        return allowed[-3:]

    def test_returns_sweep_result_with_events(self, a53):
        sink = MemorySink()
        ctx = RunContext(cluster=a53, event_log=EventLog([sink]))
        sweep = ResonanceSweep(make_characterizer(), samples_per_point=2)
        result = sweep.run(ctx, clocks_hz=self._clocks(a53))
        assert isinstance(result, SweepResult)
        assert result.resonance_hz() > 0.0
        assert len(sink.events("sweep_start")) == 1
        points = sink.events("sweep_point")
        assert len(points) == len(result.points)
        assert len(sink.events("sweep_end")) == 1

    def test_round_trips_json(self, a53):
        sweep = ResonanceSweep(make_characterizer(), samples_per_point=2)
        result = sweep.run(
            RunContext(cluster=a53), clocks_hz=self._clocks(a53)
        )
        again = SweepResult.from_json(result.to_json())
        assert again.cluster_name == result.cluster_name
        assert len(again.points) == len(result.points)
        assert again.resonance_hz() == result.resonance_hz()

    def test_bare_cluster_raises_type_error(self, a53):
        sweep = ResonanceSweep(make_characterizer(), samples_per_point=2)
        with pytest.raises(TypeError, match="RunContext"):
            sweep.run(a53, clocks_hz=self._clocks(a53))


class TestVirusGeneratorRun:
    def test_runs_under_context(self, a53):
        sink = MemorySink()
        ctx = RunContext(
            cluster=a53, seed=7, event_log=EventLog([sink])
        )
        generator = VirusGenerator(
            a53,
            make_characterizer(),
            config=GAConfig(
                population_size=4, generations=2, loop_length=4
            ),
        )
        summary = generator.run(ctx)
        assert isinstance(summary, GARunSummary)
        # context seed overrides the config's
        assert summary.ga_result.config.seed == 7
        assert len(sink.events("virus_run_start")) == 1
        assert len(sink.events("ga_run_start")) == 1
        assert len(sink.events("generation_end")) == 2
        assert len(sink.events("virus_run_end")) == 1

    def test_summary_round_trips_json(self, a53):
        ctx = RunContext(cluster=a53, seed=7)
        generator = VirusGenerator(
            a53,
            make_characterizer(),
            config=GAConfig(
                population_size=4, generations=2, loop_length=4
            ),
        )
        summary = generator.run(ctx)
        again = GARunSummary.from_json(summary.to_json())
        assert again.cluster_name == summary.cluster_name
        assert again.virus.genome() == summary.virus.genome()
        assert again.max_droop_v == summary.max_droop_v
        assert (
            again.ga_result.score_series().tolist()
            == summary.ga_result.score_series().tolist()
        )


class TestJsonResultSchema:
    def test_kind_tag_and_version_checked(self, a53):
        result = make_characterizer().run(RunContext(cluster=a53))
        text = result.to_json()
        assert f'"result_version": {RESULT_SCHEMA_VERSION}' in text
        with pytest.raises(ValueError, match="kind"):
            SweepResult.from_json(text)  # wrong result type

    def test_json_is_the_dumped_payload(self, a53):
        result = make_characterizer().run(RunContext(cluster=a53))
        payload = result.to_payload()
        assert list(payload)[:2] == ["result_version", "kind"]
        assert payload["kind"] == MeasurementResult.kind
        assert result.to_json() == json.dumps(payload)
        assert result.to_json(indent=2) == json.dumps(payload, indent=2)
