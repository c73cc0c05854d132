"""Session semantics of the batched execute stage.

:meth:`SimulationSession.executions` mirrors ``pdn_responses``: keys
are looked up in request order, a missed key takes its FIFO slot at
once as a cell the batch fills, so hit and miss counts, evictions and
audited hits are those of one lookup per item; a batch that raises
leaves none of its cells behind.
"""

import numpy as np
import pytest

from repro.audit import CacheShadowMismatch, DeterminismTracker
from repro.chain import session as session_module
from repro.chain.path import SignalPath
from repro.chain.session import SimulationSession
from repro.chain.stages import ExecuteStage
from repro.chain.types import ChainItem, ChainRequest
from repro.cpu.program import random_program
from repro.obs.timing import collect_kernel_timings
from repro.platforms.registry import make_cluster


def programs(cluster, n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_program(cluster.spec.isa, 12, rng) for _ in range(n)]


def request_items(cluster):
    """Three programs with repeats, several core counts and offsets."""
    a, b, c = programs(cluster, 3)
    return [
        (a, 1, 16, None),
        (b, 2, 16, None),
        (a, 1, 16, None),
        (c, 2, 16, [0, 5]),
        (b, 2, 16, None),
        (a, 2, 16, None),
        (c, 2, 16, [0, 5]),
    ]


@pytest.mark.parametrize("cap", [2, 3, 4096])
def test_counts_and_eviction_equal_one_lookup_per_item(monkeypatch, cap):
    monkeypatch.setattr(session_module, "MAX_EXECUTIONS", cap)
    cluster = make_cluster("a53")
    items = request_items(cluster)
    batched, looped = SimulationSession(), SimulationSession()
    # A warm entry first, so the request also hits an older key.
    for session in (batched, looped):
        session.execution(cluster, *items[1])
    together = batched.executions(cluster, items)
    one_by_one = [looped.execution(cluster, *item) for item in items]
    assert batched.stats.snapshot() == looped.stats.snapshot()
    assert list(batched._executions) == list(looped._executions)
    for got, expected in zip(together, one_by_one):
        assert got.load_current.tobytes() == expected.load_current.tobytes()
        assert got.loop_cycles == expected.loop_cycles
    # No cell is left in the cache: every entry is a filled execution.
    assert all(
        not isinstance(e, list) for e in batched._executions.values()
    )


def test_a_repeated_key_hits_the_same_execution():
    cluster = make_cluster("a72")
    (program,) = programs(cluster, 1)
    session = SimulationSession()
    first, again = session.executions(
        cluster, [(program, 2, 16, None)] * 2
    )
    assert first is again
    assert session.stats.execute_misses == 1
    assert session.stats.execute_hits == 1


def test_audit_catches_in_place_corrupted_load_current():
    cluster = make_cluster("a53")
    items = request_items(cluster)
    tracker = DeterminismTracker(seed=0, sample_rate=1.0)
    session = SimulationSession(audit=tracker)
    session.executions(cluster, items)
    assert tracker.stats.shadow_checks["executions"] == 3
    cached = session._executions[next(iter(session._executions))]
    # In place, so only a fresh recompute can tell.
    cached.load_current[1] *= 2.0
    with pytest.raises(CacheShadowMismatch):
        session.executions(cluster, items)


def test_a_batch_that_raises_leaves_no_entry(monkeypatch):
    cluster = make_cluster("amd")
    items = [(p, 1, 16, None) for p in programs(cluster, 4)]
    session = SimulationSession()
    session.execution(cluster, *items[0])
    before = dict(session._executions)
    scheduled = []
    steady_schedule = cluster.pipeline.steady_schedule

    def third_raises(program, iterations=16):
        scheduled.append(program)
        if len(scheduled) == 3:
            raise RuntimeError("scheduler fault")
        return steady_schedule(program, iterations)

    monkeypatch.setattr(cluster.pipeline, "steady_schedule", third_raises)
    with pytest.raises(RuntimeError, match="scheduler fault"):
        session.executions(cluster, items[1:] + [items[0]])
    assert session._executions == before
    monkeypatch.undo()
    # The next request computes them afresh.
    assert len(session.executions(cluster, items)) == 4
    assert len(session._executions) == 4


def test_invalid_phase_offsets_leave_no_entry():
    cluster = make_cluster("a53")
    a, b = programs(cluster, 2)
    session = SimulationSession()
    with pytest.raises(ValueError, match="one phase offset per active core"):
        session.executions(
            cluster, [(a, 1, 16, None), (b, 2, 16, [0, 1, 2])]
        )
    assert session._executions == {}


def test_one_trace_section_per_request():
    """The stage renders every fresh item's trace in one
    ``cpu.current.trace`` section, and schedules each miss once."""
    cluster = make_cluster("a53")
    chain = SignalPath([ExecuteStage()], session=SimulationSession())
    request = ChainRequest(
        cluster=cluster,
        items=[ChainItem(program=p) for p in programs(cluster, 5)],
        want_amplitude=False,
        want_trace=False,
    )
    with collect_kernel_timings() as timings:
        chain.run(request)
    assert timings.calls["cpu.current.trace"] == 1
    assert timings.calls["cpu.pipeline.execute"] == 5
