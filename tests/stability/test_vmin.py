"""Unit tests for the V_MIN test harness."""

import math

import pytest

from repro.cpu.program import program_from_mnemonics
from repro.stability.failure import failure_model_for
from repro.stability.vmin import VminTester
from repro.workloads.base import ProgramWorkload
from repro.workloads.spec import spec_workload
from repro.workloads.stress import idle_workload


@pytest.fixture
def tester(a72):
    return VminTester(
        a72, failure_model_for("cortex-a72"), step_v=0.01, seed=0
    )


@pytest.fixture
def resonant_virus(a72):
    """A hand-built resonant loop standing in for a GA virus.

    20 adds against two serialized divides make an 18-cycle loop whose
    fundamental lands exactly on the 67 MHz resonance at 1.2 GHz.
    """
    program = program_from_mnemonics(
        a72.spec.isa, ["add"] * 20 + ["sdiv"] * 2, name="virus"
    )
    return ProgramWorkload("virus", program, jitter_seed=None)


class TestVminMechanics:
    def test_invalid_step_rejected(self, a72):
        with pytest.raises(ValueError):
            VminTester(a72, failure_model_for("cortex-a72"), step_v=0.0)

    @pytest.mark.parametrize("step_v", [math.inf, math.nan, 0.6, 5.0])
    def test_step_must_leave_a_second_rung(self, a72, step_v):
        """From 1.0 V to the 0.5 V floor, these ladders have one rung."""
        with pytest.raises(ValueError, match="^step_v must"):
            VminTester(a72, failure_model_for("cortex-a72"), step_v=step_v)

    def test_run_checks_its_own_descent(self, tester, a72):
        a72.set_voltage(0.9)
        with pytest.raises(ValueError, match="second rung"):
            tester.run(idle_workload(), start_v=0.6, floor_v=0.595)
        assert a72.voltage == 0.9  # nothing ran

    def test_negative_seed_rejected(self, a72):
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            VminTester(a72, failure_model_for("cortex-a72"), seed=-1)

    def test_invalid_repeats_rejected(self, tester):
        with pytest.raises(ValueError):
            tester.run(idle_workload(), repeats=0)

    def test_descent_stops_at_system_crash(self, tester):
        result = tester.run(idle_workload(), repeats=1)
        log = result.outcomes[0]
        # last entry is the crash, everything before is not
        assert log[-1][1].name == "SYSTEM_CRASH"
        assert all(o.name != "SYSTEM_CRASH" for _, o in log[:-1])

    def test_voltage_restored_after_test(self, tester, a72):
        a72.set_voltage(1.0)
        tester.run(idle_workload(), repeats=1)
        assert a72.voltage == pytest.approx(1.0)

    def test_vmin_is_10mv_grid(self, tester):
        result = tester.run(idle_workload(), repeats=2)
        assert math.isfinite(result.vmin)
        # the descent runs on a 10 mV grid from 1.0 V
        steps = round((1.0 - result.vmin) / 0.01, 6)
        assert steps == pytest.approx(round(steps), abs=1e-6)

    def test_margin_helper(self, tester):
        result = tester.run(idle_workload(), repeats=1)
        assert result.margin_from(1.0) == pytest.approx(1.0 - result.vmin)


class TestVminOrdering:
    """Fig. 10's structure on a slice of workloads."""

    def test_virus_has_highest_vmin(self, tester, a72, resonant_virus):
        workloads = [
            idle_workload(),
            spec_workload(a72.spec.isa, "gcc"),
            resonant_virus,
        ]
        results = tester.compare(
            workloads,
            virus_repeats=5,
            benchmark_repeats=2,
            virus_names=("virus",),
        )
        assert results["virus"].vmin > results["gcc"].vmin
        assert results["virus"].vmin > results["idle"].vmin

    def test_droop_recorded_at_nominal(self, tester, resonant_virus):
        result = tester.run(resonant_virus, repeats=1)
        assert result.max_droop_at_nominal > 0.02

    def test_virus_gets_more_repeats(self, tester, a72, resonant_virus):
        results = tester.compare(
            [idle_workload(), resonant_virus],
            virus_repeats=4,
            benchmark_repeats=2,
            virus_names=("virus",),
        )
        assert results["virus"].repeats == 4
        assert results["idle"].repeats == 2

    def test_deviation_before_crash(self, tester, resonant_virus):
        """SDC/app-crash appears at or above the crash voltage."""
        result = tester.run(resonant_virus, repeats=5)
        assert result.vmin >= result.crash_voltage
