"""Unit tests for the V_MIN test harness."""

import dataclasses
import math

import pytest

from repro.chain import SignalPath, SimulationSession
from repro.cpu.program import program_from_mnemonics
from repro.platforms import registry
from repro.stability.failure import failure_model_for
from repro.stability.vmin import VminTester, check_workload_names
from repro.workloads.base import ProgramWorkload, Workload
from repro.workloads.loops import high_low_program
from repro.workloads.spec import spec_workload
from repro.workloads.stress import idle_workload

from tests.stability.vmin_reference import reference_compare


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


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _workload_set(cluster):
    """Idle, one SPEC workload and a deterministic virus stand-in."""
    isa = cluster.spec.isa
    return [
        idle_workload(),
        spec_workload(isa, "lbm"),
        ProgramWorkload("virus", high_low_program(isa), jitter_seed=None),
    ]


class _Counter:
    """Wraps a method on a class and counts its calls."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


class _SolvedPoints:
    """Wraps ``SimulationSession.pdn_responses`` and counts the rail
    points it solves, whichever entry point or batch they came in."""

    def __init__(self, monkeypatch):
        self.points = 0
        original = SimulationSession.pdn_responses

        def counted(session, cluster, points):
            self.points += len(points)
            return original(session, cluster, points)

        monkeypatch.setattr(SimulationSession, "pdn_responses", counted)


class _FailsAtCall(Workload):
    """Delegates to ``inner`` but raises on its ``fail_at``-th run."""

    def __init__(self, inner: Workload, fail_at: int):
        super().__init__(inner.name)
        self.inner = inner
        self.fail_at = fail_at
        self.calls = 0

    def run(self, cluster, active_cores=None):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("workload crashed mid-descent")
        return self.inner.run(cluster, active_cores=active_cores)


class TestMemoizedLadder:
    """A ladder solves each rung once and still matches, bit for bit,
    the same ladder solved afresh at every step."""

    @pytest.mark.parametrize("platform", ["a72", "a53", "amd"])
    def test_equals_the_rung_by_rung_ladder(self, platform):
        cluster = registry.make_cluster(platform)
        model = failure_model_for(cluster.name)
        kwargs = dict(
            virus_repeats=5, benchmark_repeats=2, virus_names=("virus",)
        )
        got = VminTester(cluster, model, seed=11).compare(
            _workload_set(cluster), **kwargs
        )
        expected = reference_compare(
            cluster, model, 11, _workload_set(cluster), **kwargs
        )
        assert list(got) == list(expected)
        for name, result in got.items():
            want = expected[name]
            for field in dataclasses.fields(result):
                a = getattr(result, field.name)
                b = getattr(want, field.name)
                if isinstance(a, float):
                    assert _same_float(a, b), (name, field.name)
                else:
                    assert a == b, (name, field.name)
            assert result.repeats == (5 if name == "virus" else 2)

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["idle", "lbm", "virus"])
    def test_solves_each_distinct_rung_once(self, monkeypatch, index):
        cluster = registry.make_cluster("a53")
        workload = _workload_set(cluster)[index]
        solved = _SolvedPoints(monkeypatch)
        chain_runs = _Counter(monkeypatch, SignalPath, "run")
        tester = VminTester(cluster, failure_model_for(cluster.name))
        result = tester.run(workload, repeats=4)
        rungs = {cluster.spec.nominal_voltage} | {
            v for log in result.outcomes for v, _ in log
        }
        steps = 1 + sum(len(log) for log in result.outcomes)
        assert solved.points == len(rungs) < steps
        expected_chain_runs = 0 if workload.name == "idle" else len(rungs)
        assert chain_runs.calls == expected_chain_runs

    def test_memo_dropped_after_run(self, monkeypatch, tester, a72):
        program = high_low_program(a72.spec.isa)
        workload = ProgramWorkload("virus", program, jitter_seed=None)
        tester.run(workload, repeats=2)
        chain_runs = _Counter(monkeypatch, SignalPath, "run")
        first = a72.run(program)
        second = a72.run(program)
        assert chain_runs.calls == 2
        assert second.response is not first.response

    def test_memo_dropped_when_a_workload_raises(
        self, monkeypatch, tester, a72
    ):
        a72.set_voltage(0.95)
        inner = spec_workload(a72.spec.isa, "gcc")
        # The nominal run, then five rungs of the first descent.
        workload = _FailsAtCall(inner, fail_at=7)
        with pytest.raises(RuntimeError, match="mid-descent"):
            tester.run(workload, repeats=2)
        assert workload.calls == 7
        assert a72.voltage == 0.95
        chain_runs = _Counter(monkeypatch, SignalPath, "run")
        inner.run(a72)
        inner.run(a72)
        assert chain_runs.calls == 2


class TestWorkloadNames:
    def test_empty_list_rejected(self, tester):
        with pytest.raises(ValueError, match="^workloads must name"):
            tester.compare([])

    def test_repeated_name_rejected_before_any_ladder(
        self, monkeypatch, tester
    ):
        def no_ladder(*args, **kwargs):
            raise AssertionError("a ladder ran before the name check")

        monkeypatch.setattr(VminTester, "run", no_ladder)
        with pytest.raises(ValueError, match="'idle' twice"):
            tester.compare([idle_workload(), idle_workload()])

    def test_distinct_names_pass(self):
        check_workload_names(["idle", "gcc", "virus"])
