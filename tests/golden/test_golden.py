"""Golden-file regression suite: pinned end-to-end numbers.

Each test drives a fully seeded scenario through the real measurement
chain and compares against a committed JSON data file to 1e-12 relative
tolerance (strict enough to catch any modeling change, loose enough to
survive FMA-contraction differences across platforms).

To refresh after an *intentional* physics/model change::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

then review the diff of ``tests/golden/*.json`` like any other code
change -- an unexplained delta is a regression, not noise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.characterizer import EMCharacterizer
from repro.core.resonance import ResonanceSweep
from repro.cpu.program import random_program
from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import ClusterFitness, EMAmplitudeFitness
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.obs.context import RunContext

GOLDEN_DIR = Path(__file__).parent

REL_TOL = 1e-12


def _characterizer():
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(1234)),
        samples=5,
    )


def check_golden(name, produced, update):
    """Compare ``produced`` (a jsonable dict) against the golden file,
    or rewrite the file under ``--update-golden``."""
    path = GOLDEN_DIR / f"{name}.json"
    # Round-trip through JSON so both sides have identical types.
    produced = json.loads(json.dumps(produced))
    if update:
        path.write_text(
            json.dumps(produced, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"golden file {path.name} regenerated")
    if not path.exists():
        raise AssertionError(
            f"missing golden file {path.name}; generate it with "
            "--update-golden"
        )
    expected = json.loads(path.read_text(encoding="utf-8"))
    _assert_close(expected, produced, where=name)


def _assert_close(expected, produced, where):
    assert type(expected) is type(produced), (
        f"{where}: type changed {type(expected).__name__} -> "
        f"{type(produced).__name__}"
    )
    if isinstance(expected, dict):
        assert sorted(expected) == sorted(produced), (
            f"{where}: keys changed"
        )
        for key in expected:
            _assert_close(
                expected[key], produced[key], f"{where}.{key}"
            )
    elif isinstance(expected, list):
        assert len(expected) == len(produced), (
            f"{where}: length {len(expected)} -> {len(produced)}"
        )
        for i, (e, p) in enumerate(zip(expected, produced)):
            _assert_close(e, p, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert produced == pytest.approx(expected, rel=REL_TOL), (
            f"{where}: {expected!r} -> {produced!r}"
        )
    else:
        assert expected == produced, (
            f"{where}: {expected!r} -> {produced!r}"
        )


class TestSweepGolden:
    def test_a53_sweep_curve(self, a53, update_golden):
        clocks = list(a53.spec.allowed_clocks_hz())[:6]
        sweep = ResonanceSweep(_characterizer(), samples_per_point=5)
        result = sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
        check_golden(
            "a53_sweep_curve", result.to_dict(), update_golden
        )


class TestCharacterizerGolden:
    def test_a72_amplitudes(self, a72, update_golden):
        rng = np.random.default_rng(77)
        programs = [
            random_program(a72.spec.isa, 12, rng, name=f"g{i}")
            for i in range(3)
        ]
        measurements = _characterizer().measure_batch(a72, programs)
        produced = {
            "cluster": a72.name,
            "programs": [p.name for p in programs],
            "amplitudes_w": [m.amplitude_w for m in measurements],
            "peak_frequencies_hz": [
                m.peak_frequency_hz for m in measurements
            ],
            "loop_frequencies_hz": [
                m.loop_frequency_hz for m in measurements
            ],
        }
        check_golden("a72_amplitudes", produced, update_golden)


class TestGAGolden:
    def test_a53_three_generation_history(self, a53, update_golden):
        characterizer = _characterizer()
        fitness = ClusterFitness(
            EMAmplitudeFitness(
                analyzer=characterizer.analyzer,
                radiator=characterizer.radiator,
                samples=3,
                session=characterizer.session,
            ),
            a53,
        )
        config = GAConfig(
            population_size=6, generations=3, loop_length=5, seed=7
        )
        result = GAEngine(fitness, config).run(a53.spec.isa)
        produced = {
            "evaluations": result.evaluations,
            "history": [
                {
                    "generation": r.generation,
                    "best_score": r.best.score,
                    "mean_score": r.mean_score,
                    "dominant_frequency_hz": (
                        r.best.dominant_frequency_hz
                    ),
                    "best_genome_len": len(r.best_program.genome()),
                }
                for r in result.history
            ],
            "best_generation": result.best.generation,
        }
        check_golden("a53_ga_history", produced, update_golden)
