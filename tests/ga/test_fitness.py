"""Unit tests for the fitness measurement chains."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cpu.program import program_from_mnemonics
from repro.ga.fitness import (
    EMAmplitudeFitness,
    MaxDroopFitness,
    PeakToPeakFitness,
)
from repro.instruments.oscilloscope import Oscilloscope
from repro.instruments.probes import DifferentialProbe
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer


@pytest.fixture
def hilo(a72):
    return program_from_mnemonics(
        a72.spec.isa, ["add"] * 8 + ["sdiv"], name="hilo"
    )


@pytest.fixture
def quiet_loop(a72):
    """A steady loop with little dI/dt: independent adds only."""
    return program_from_mnemonics(a72.spec.isa, ["add"] * 9, name="flat")


class TestEMAmplitudeFitness:
    def test_returns_evaluation_fields(self, a72, hilo):
        fit = EMAmplitudeFitness(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(0)),
            samples=5,
        )
        ev = fit(a72, hilo)
        assert ev.score > 0.0
        assert 50e6 <= ev.dominant_frequency_hz <= 200e6
        assert ev.max_droop_v > 0.0
        assert ev.ipc > 0.0
        assert float(ev) == ev.score

    def test_hilo_beats_flat_loop(self, a72, hilo, quiet_loop):
        """Alternating current scores higher EM amplitude than flat."""
        fit = EMAmplitudeFitness(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(1)),
            samples=5,
        )
        assert fit(a72, hilo).score > fit(a72, quiet_loop).score


class TestDominantFrequencyFromChainItem:
    """The response's dominant frequency stands in for the chain's
    emission peak only when there is none, and is computed only then."""

    class Response:
        def __init__(self):
            self.bands = []

        def dominant_frequency_hz(self, band):
            self.bands.append(band)
            return 61.5e6

    def item(self, peak_frequency_hz):
        return SimpleNamespace(
            response=self.Response(),
            peak_frequency_hz=peak_frequency_hz,
            amplitude_w=2.0e-9,
            max_droop=0.03,
            peak_to_peak=0.05,
            ipc=1.5,
            loop_frequency_hz=70.0e6,
        )

    def fitness(self):
        return EMAmplitudeFitness(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(0)),
            band=(55.0e6, 90.0e6),
        )

    @pytest.mark.parametrize("no_peak", [0.0, None])
    def test_no_peak_reports_the_responses_dominant_frequency(
        self, no_peak
    ):
        item = self.item(no_peak)
        ev = self.fitness()._from_chain_item(item)
        assert ev.dominant_frequency_hz == 61.5e6
        assert item.response.bands == [(55.0e6, 90.0e6)]
        assert ev.score == 2.0e-9
        assert ev.loop_frequency_hz == 70.0e6

    def test_a_peak_is_reported_and_the_response_left_alone(self):
        item = self.item(72.25e6)
        ev = self.fitness()._from_chain_item(item)
        assert ev.dominant_frequency_hz == 72.25e6
        assert item.response.bands == []

    def test_no_peak_and_no_harmonic_in_band_reports_zero(self):
        item = self.item(0.0)

        def empty_band(band):
            raise ValueError("no harmonics inside requested band")

        item.response.dominant_frequency_hz = empty_band
        ev = self.fitness()._from_chain_item(item)
        assert ev.dominant_frequency_hz == 0.0


class TestMaxDroopFitness:
    def test_scope_droop_close_to_model(self, a72, hilo):
        scope = Oscilloscope(
            noise_rms_v=0.0,
            resolution_bits=14,
            rng=np.random.default_rng(2),
        )
        fit = MaxDroopFitness(oscilloscope=scope)
        ev = fit(a72, hilo)
        assert ev.score == pytest.approx(ev.max_droop_v, rel=0.1)

    def test_hilo_beats_flat(self, a72, hilo, quiet_loop):
        scope = Oscilloscope(rng=np.random.default_rng(3))
        fit = MaxDroopFitness(oscilloscope=scope)
        assert fit(a72, hilo).score > fit(a72, quiet_loop).score


class TestPeakToPeakFitness:
    def test_probe_chain(self, athlon):
        prog = program_from_mnemonics(
            athlon.spec.isa, ["add_rr"] * 8 + ["idiv_rr"]
        )
        fit = PeakToPeakFitness(probe=DifferentialProbe())
        ev = fit(athlon, prog)
        assert ev.score > 0.0
        assert ev.peak_to_peak_v > 0.0


class TestCacheModeFitness:
    def test_cache_model_requires_rng(self, a72):
        from repro.cpu.cache import CacheModel

        with pytest.raises(ValueError, match="memory_rng"):
            EMAmplitudeFitness(
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(0)),
                cache_model=CacheModel(),
            )

    def test_cache_model_makes_fitness_noisy(self, a72):
        from repro.cpu.cache import CacheModel
        from repro.cpu.isa import InstructionSet
        from repro.cpu.program import random_program

        wide = InstructionSet(
            name="armv8-wide",
            specs=a72.spec.isa.specs,
            registers=dict(a72.spec.isa.registers),
            memory_slots=256,
        )
        program = random_program(
            wide, 24, np.random.default_rng(1),
            pool=(wide.spec("ldr"), wide.spec("add")),
        )
        fit = EMAmplitudeFitness(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(2)),
            samples=3,
            cache_model=CacheModel(l1_slots=64),
            memory_rng=np.random.default_rng(3),
        )
        a = fit(a72, program).score
        b = fit(a72, program).score
        assert a != pytest.approx(b, rel=1e-6)
