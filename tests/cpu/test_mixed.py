"""Unit tests for heterogeneous (per-core mixed) execution."""

import numpy as np
import pytest

from repro.chain import (
    ChainItem,
    ChainRequest,
    CurrentStage,
    ExecuteStage,
    PDNStage,
    SignalPath,
)
from repro.cpu.arm import ARM_ISA
from repro.cpu.current import CurrentModel
from repro.cpu.multicore import (
    CoreModel,
    execute_mixed_on_cluster,
    execute_on_cluster,
)
from repro.cpu.pipeline import InOrderPipeline
from repro.cpu.program import program_from_mnemonics


@pytest.fixture
def core():
    return CoreModel(
        pipeline=InOrderPipeline(width=2),
        current_model=CurrentModel(),
        clock_hz=1.0e9,
    )


@pytest.fixture
def hilo():
    return program_from_mnemonics(ARM_ISA, ["add"] * 8 + ["sdiv"])


@pytest.fixture
def fp_loop():
    return program_from_mnemonics(ARM_ISA, ["fadd"] * 6 + ["fsqrt"])


class TestMixedExecution:
    def test_rejects_empty_program_list(self, core):
        with pytest.raises(ValueError):
            execute_mixed_on_cluster(core, [])

    def test_period_is_lcm_of_loops(self, core, hilo, fp_loop):
        mixed = execute_mixed_on_cluster(core, [hilo, fp_loop])
        periods = [s.cycles for s in mixed.schedules]
        lcm = np.lcm.reduce(periods)
        assert mixed.period_cycles == lcm

    def test_period_cap(self, core, hilo, fp_loop):
        mixed = execute_mixed_on_cluster(
            core, [hilo, fp_loop], period_cap_cycles=16
        )
        assert mixed.period_cycles <= 16

    def test_identical_mix_matches_homogeneous(self, core, hilo):
        """Two copies of the same loop == the aligned homogeneous path."""
        mixed = execute_mixed_on_cluster(
            core, [hilo, hilo], uncore_current_a=0.1
        )
        homo = execute_on_cluster(
            core, hilo, active_cores=2, uncore_current_a=0.1
        )
        assert mixed.period_cycles == homo.load_current.size
        assert np.allclose(mixed.load_current, homo.load_current)

    def test_mean_current_is_sum_of_cores(self, core, hilo, fp_loop):
        mixed = execute_mixed_on_cluster(
            core, [hilo, fp_loop], uncore_current_a=0.2
        )
        expected = (
            core.current_trace(mixed.schedules[0]).mean()
            + core.current_trace(mixed.schedules[1]).mean()
            + 0.2
        )
        assert mixed.load_current.mean() == pytest.approx(
            expected, rel=1e-9
        )

    def test_per_core_loop_frequencies(self, core, hilo, fp_loop):
        mixed = execute_mixed_on_cluster(core, [hilo, fp_loop])
        freqs = mixed.per_core_loop_frequencies_hz()
        assert len(freqs) == 2
        assert freqs[0] != freqs[1]


def run_mixed(cluster, programs):
    """One mixed chain item, response only: a program per active core."""
    request = ChainRequest(
        cluster=cluster,
        items=[ChainItem(programs=programs)],
        want_amplitude=False,
        want_trace=False,
    )
    path = SignalPath([ExecuteStage(), CurrentStage(), PDNStage()])
    return path.run(request).items[0]


class TestClusterRunMixed:
    def test_virus_plus_background(self, a72, hilo):
        """A virus on one core with a quiet loop on the other still
        rings the rail, but less than two aligned virus copies."""
        a72.set_clock(540e6)  # hilo at the 67.5 MHz resonance
        quiet = program_from_mnemonics(a72.spec.isa, ["add"] * 9)
        both_virus = run_mixed(a72, [hilo, hilo])
        one_virus = run_mixed(a72, [hilo, quiet])
        assert both_virus.peak_to_peak > one_virus.peak_to_peak
        assert one_virus.peak_to_peak > 0.005

    def test_program_count_bounds(self, a72, hilo):
        with pytest.raises(ValueError):
            run_mixed(a72, [])
        with pytest.raises(ValueError):
            run_mixed(a72, [hilo] * 3)  # only 2 cores

    def test_single_program_matches_single_core_run(self, a72, hilo):
        mixed = run_mixed(a72, [hilo])
        direct = a72.run(hilo, active_cores=1)
        assert mixed.max_droop == pytest.approx(
            direct.max_droop, rel=1e-9
        )
