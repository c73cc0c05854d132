"""Runtime layer: shadow recompute, draw ledger, typed violations."""

import dataclasses

import numpy as np
import pytest

from repro.audit import (
    AuditViolation,
    CacheShadowMismatch,
    DeterminismTracker,
    RngLedgerViolation,
    bitwise_equal,
)
from repro.chain.path import SignalPath
from repro.chain.session import SimulationSession
from repro.chain.types import ChainItem, ChainRequest
from repro.faults.errors import FaultError
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.obs.events import EventLog, MemorySink
from repro.workloads.loops import high_low_program


def paranoid_tracker(**kwargs) -> DeterminismTracker:
    """A tracker that checks every single cache hit."""
    kwargs.setdefault("sample_rate", 1.0)
    return DeterminismTracker(**kwargs)


def audited_chain(cluster, tracker, seed=1234):
    session = SimulationSession(audit=tracker)
    analyzer = SpectrumAnalyzer(rng=np.random.default_rng(seed))
    from repro.em.radiation import DieRadiator

    path = SignalPath.em_chain(
        DieRadiator(), analyzer, session=session
    )
    return path, analyzer


# ---------------------------------------------------------------------------
# bitwise_equal
# ---------------------------------------------------------------------------
class TestBitwiseEqual:
    def test_arrays(self):
        a = np.array([1.0, 2.0, np.nan])
        assert bitwise_equal(a, a.copy())
        assert not bitwise_equal(a, a.astype(np.float32))
        assert not bitwise_equal(a, np.array([1.0, 2.0, 3.0]))

    def test_float_bits_not_value(self):
        assert bitwise_equal(float("nan"), float("nan"))
        assert not bitwise_equal(0.0, -0.0)

    def test_nested_containers(self):
        assert bitwise_equal((1, [np.arange(3)]), (1, [np.arange(3)]))
        assert not bitwise_equal((1, [np.arange(3)]), (1, [np.arange(4)]))

    def test_dataclasses(self):
        @dataclasses.dataclass
        class Box:
            data: np.ndarray
            label: str

        a = Box(np.arange(4.0), "x")
        assert bitwise_equal(a, Box(np.arange(4.0), "x"))
        assert not bitwise_equal(a, Box(np.arange(4.0), "y"))


# ---------------------------------------------------------------------------
# shadow recompute
# ---------------------------------------------------------------------------
class TestShadowRecompute:
    def test_clean_hits_pass(self, a53):
        tracker = paranoid_tracker()
        session = SimulationSession(audit=tracker)
        program = high_low_program(a53.spec.isa)
        for _ in range(3):
            session.execution(
                a53, program, active_cores=1, clock_hz=a53.clock_hz
            )
        assert tracker.stats.shadow_checks["executions"] == 2
        assert tracker.stats.violations == 0

    def test_corrupted_execution_entry_caught(self, a53):
        tracker = paranoid_tracker()
        session = SimulationSession(audit=tracker)
        program = high_low_program(a53.spec.isa)
        first = session.execution(
            a53, program, active_cores=1, clock_hz=a53.clock_hz
        )
        (key,) = session._executions
        corrupted = dataclasses.replace(
            first, load_current=first.load_current * 1.5
        )
        session._executions[key] = corrupted
        with pytest.raises(CacheShadowMismatch):
            session.execution(
                a53, program, active_cores=1, clock_hz=a53.clock_hz
            )

    def test_corrupted_tf_grid_caught(self, a53):
        tracker = paranoid_tracker()
        session = SimulationSession(audit=tracker)
        solve = dict(
            powered_cores=a53.powered_cores,
            voltage=a53.voltage,
            load_current=np.linspace(1.0, 2.0, 64),
            sample_rate_hz=a53.clock_hz,
        )
        session.pdn_solve(a53, **solve)
        ((stack, _freqs),) = session._tf_grids.values()
        # In place, so only a fresh AC analysis can tell.
        stack[0, 3] *= 2.0
        with pytest.raises(CacheShadowMismatch):
            session.pdn_solve(a53, **solve)

    def test_sampling_respects_rate_zero(self, a53):
        tracker = paranoid_tracker(sample_rate=0.0)
        session = SimulationSession(audit=tracker)
        program = high_low_program(a53.spec.isa)
        session.execution(a53, program, active_cores=1, clock_hz=a53.clock_hz)
        (key,) = session._executions
        session._executions[key] = dataclasses.replace(
            session._executions[key],
            load_current=session._executions[key].load_current + 1.0,
        )
        # rate 0 never recomputes, so the corruption goes unnoticed.
        session.execution(a53, program, active_cores=1, clock_hz=a53.clock_hz)
        assert tracker.stats.shadow_checks == {}

    def test_violation_emits_event(self, a53):
        sink = MemorySink()
        tracker = paranoid_tracker(event_log=EventLog([sink]))
        session = SimulationSession(audit=tracker)
        solve = dict(
            powered_cores=a53.powered_cores,
            voltage=a53.voltage,
            load_current=np.linspace(1.0, 2.0, 64),
            sample_rate_hz=a53.clock_hz,
        )
        session.pdn_solve(a53, **solve)
        (key,) = session._tf_grids
        stack, freqs = session._tf_grids[key]
        session._tf_grids[key] = (stack * 2.0, freqs)
        with pytest.raises(CacheShadowMismatch):
            session.pdn_solve(a53, **solve)
        events = [r for r in sink.records if r["event"] == "audit_violation"]
        assert len(events) == 1
        assert events[0]["kind"] == "cache_shadow_mismatch"
        assert events[0]["site"] == "session.tf_grids"


# ---------------------------------------------------------------------------
# RNG draw ledger
# ---------------------------------------------------------------------------
class TestDrawLedger:
    def request(self, cluster, **kwargs):
        program = high_low_program(cluster.spec.isa)
        kwargs.setdefault("samples", 3)
        return ChainRequest(
            cluster=cluster, items=[ChainItem(program=program)], **kwargs
        )

    def test_clean_chain_passes_replay(self, a53):
        tracker = paranoid_tracker()
        path, _ = audited_chain(a53, tracker)
        path.run(self.request(a53))
        assert tracker.stats.ledger_stages == 6
        assert tracker.stats.ledger_replays == 1
        assert tracker.stats.violations == 0

    def test_unentitled_stage_draining_caught(self, a53):
        tracker = paranoid_tracker()
        path, analyzer = audited_chain(a53, tracker)

        class RogueStage:
            name = "rogue"
            drains = ()

            def run(self, batch):
                analyzer.rng.standard_normal(4)

        path.stages.insert(2, RogueStage())
        with pytest.raises(RngLedgerViolation, match="rogue"):
            path.run(self.request(a53))

    def test_over_draining_receive_caught(self, a53):
        tracker = paranoid_tracker()
        path, analyzer = audited_chain(a53, tracker)
        receive = path.stages[-1]

        class GreedyReceive:
            name = "receive"
            drains = ("analyzer",)

            def run(self, batch):
                receive.run(batch)
                analyzer.rng.standard_normal(1)  # one draw too many

        path.stages[-1] = GreedyReceive()
        with pytest.raises(RngLedgerViolation, match="contract"):
            path.run(self.request(a53))

    def test_under_draining_receive_caught(self, a53):
        tracker = paranoid_tracker()
        path, analyzer = audited_chain(a53, tracker)

        class LazyReceive:
            name = "receive"
            drains = ("analyzer",)

            def run(self, batch):
                pass  # contracted draws never happen

        path.stages[-1] = LazyReceive()
        with pytest.raises(RngLedgerViolation):
            path.run(self.request(a53))

    def test_ledger_can_be_disabled(self, a53):
        tracker = paranoid_tracker(ledger=False)
        path, analyzer = audited_chain(a53, tracker)

        class RogueStage:
            name = "rogue"
            drains = ()

            def run(self, batch):
                analyzer.rng.standard_normal(4)

        path.stages.insert(2, RogueStage())
        path.run(self.request(a53))  # no ledger, no violation
        assert tracker.stats.ledger_stages == 0


# ---------------------------------------------------------------------------
# violation typing + summary
# ---------------------------------------------------------------------------
class TestViolationContract:
    def test_violations_are_not_fault_errors(self):
        # The retry/quarantine machinery keys on FaultError; an audit
        # violation is a simulator bug and must never be retried away.
        assert not issubclass(AuditViolation, FaultError)
        assert not issubclass(CacheShadowMismatch, FaultError)
        assert not issubclass(RngLedgerViolation, FaultError)

    def test_violation_carries_site(self):
        err = RngLedgerViolation("boom", site="chain.receive")
        assert err.site == "chain.receive"
        assert isinstance(err, AuditViolation)

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            DeterminismTracker(sample_rate=1.5)

    def test_summary_event(self):
        sink = MemorySink()
        tracker = paranoid_tracker()
        tracker.emit_summary(EventLog([sink]))
        (record,) = sink.records
        assert record["event"] == "audit_summary"
        assert record["violations"] == 0
        assert "shadow_checks" in record
