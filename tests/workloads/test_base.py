"""Unit tests for the workload protocol implementations."""

import numpy as np
import pytest

from repro.cpu.program import program_from_mnemonics
from repro.workloads.base import IdleWorkload, ProgramWorkload


class TestIdleWorkload:
    def test_idle_noise_is_tiny(self, a72):
        run = IdleWorkload().run(a72)
        assert run.max_droop < 0.01
        assert run.peak_to_peak < 0.005

    def test_idle_scales_with_powered_cores(self, a53):
        four = IdleWorkload().run(a53)
        a53.power_gate(1)
        one = IdleWorkload().run(a53)
        # fewer powered cores -> less quiescent current -> less IR droop
        assert one.max_droop < four.max_droop

    def test_idle_deterministic(self, a72):
        a = IdleWorkload(seed=5).run(a72)
        b = IdleWorkload(seed=5).run(a72)
        assert a.max_droop == pytest.approx(b.max_droop)

    def test_repeated_runs_equal_a_fresh_instance(self, a72):
        workload = IdleWorkload(seed=5)
        runs = [workload.run(a72) for _ in range(3)]
        fresh = IdleWorkload(seed=5).run(a72)
        for run in runs:
            np.testing.assert_array_equal(
                run.response.die_voltage, fresh.response.die_voltage
            )

    @pytest.mark.parametrize("change", [{"seed": 6}, {"samples": 2048}])
    def test_changed_settings_after_a_run_change_the_trace(
        self, a72, change
    ):
        workload = IdleWorkload(seed=5)
        before = workload.run(a72).response.die_voltage
        for name, value in change.items():
            setattr(workload, name, value)
        after = workload.run(a72).response.die_voltage
        fresh = IdleWorkload(**{"seed": 5, **change}).run(a72)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, fresh.response.die_voltage)


class TestProgramWorkload:
    @pytest.fixture
    def hilo_program(self, a72):
        return program_from_mnemonics(a72.spec.isa, ["add"] * 8 + ["sdiv"])

    def test_deterministic_virus_mode(self, a72, hilo_program):
        """jitter_seed=None reproduces the raw periodic response."""
        wl = ProgramWorkload("virus", hilo_program, jitter_seed=None)
        direct = a72.run(hilo_program)
        via_wl = wl.run(a72)
        assert via_wl.max_droop == pytest.approx(direct.max_droop)
        assert via_wl.peak_to_peak == pytest.approx(direct.peak_to_peak)

    def test_jitter_reduces_resonant_buildup(self, a72, hilo_program):
        """A jittered (benchmark-like) run of the same loop rings less.

        The effect only shows when the loop is tuned to the resonance:
        at 540 MHz clock the 8-cycle loop lands on 67.5 MHz.
        """
        a72.set_clock(540e6)
        virus = ProgramWorkload("v", hilo_program, jitter_seed=None)
        bench = ProgramWorkload("b", hilo_program, jitter_seed=7)
        assert bench.run(a72).peak_to_peak < virus.run(a72).peak_to_peak

    def test_jitter_is_deterministic_per_seed(self, a72, hilo_program):
        w = ProgramWorkload("b", hilo_program, jitter_seed=7)
        assert w.run(a72).max_droop == pytest.approx(
            w.run(a72).max_droop
        )

    def test_compression_limits_swing(self, a72, hilo_program):
        tight = ProgramWorkload(
            "t", hilo_program, jitter_seed=7, activity_compression=0.2
        )
        loose = ProgramWorkload(
            "l", hilo_program, jitter_seed=7, activity_compression=1.0
        )
        assert tight.run(a72).peak_to_peak < loose.run(a72).peak_to_peak

    def test_repr_contains_name(self, hilo_program):
        assert "hi" in repr(ProgramWorkload("hi", hilo_program))
