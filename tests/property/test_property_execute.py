"""Property: a batch of executions equals per-item references, bit for bit.

:meth:`SimulationSession.executions` looks every item up in request
order and runs the misses in one
:func:`repro.cpu.multicore.execute_batch_on_cluster` call: one
schedule per missed program, one :meth:`CurrentModel.traces` pass and
roll-free sums for aligned cores.  Whatever the batch holds --
duplicate programs, items already cached, 1 to all active cores, phase
offsets, programs of 1-60 instructions on every platform -- each
item's execution must equal the one built from the references alone:
the every-iteration scheduler in ``tests/cpu/pipeline_reference.py``,
the one-schedule deposit in ``tests/cpu/current_reference.py`` and a
zeroed rail that adds every core's ``np.roll``-ed trace, then the
uncore draw.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.session import SimulationSession
from repro.cpu.pipeline import Pipeline
from repro.cpu.program import random_program
from repro.platforms import registry

from tests.cpu.current_reference import trace_one_schedule
from tests.cpu.pipeline_reference import execute_reference

PLATFORMS = ("a72", "a53", "amd")


class ReferencePipeline(Pipeline):
    """The production steady-state extraction over the every-iteration
    reference scheduler: ``steady_schedule`` reads ``simulate``, so
    that is where the reference goes in, as a run that simulated every
    row."""

    simulations = 0

    def simulate(self, program, iterations=16, cache=None, memory_rng=None):
        self.simulations += 1
        issue = execute_reference(self, program, iterations)
        return issue.reshape(-1).tolist(), None


@lru_cache(maxsize=None)
def platform(key):
    cluster = registry.make_cluster(key)
    return cluster, ReferencePipeline(cluster.pipeline.config)


def reference_execution(cluster, reference, program, active, offsets):
    """(load_current, schedule) of one item, from the references."""
    simulations = reference.simulations
    schedule = reference.steady_schedule(program, 16)
    # The schedule came from the reference scheduler.
    assert reference.simulations == simulations + 1
    trace = trace_one_schedule(cluster.spec.current_model, schedule)
    combined = np.zeros_like(trace)
    for off in offsets if offsets is not None else [0] * active:
        combined += np.roll(trace, off % trace.size)
    combined += cluster.spec.uncore_current_a
    return combined, schedule


@st.composite
def batches(draw):
    """A platform, a pool of programs and a request over it, plus the
    items to cache before the request."""
    key = draw(st.sampled_from(PLATFORMS))
    cluster, _ = platform(key)
    isa = cluster.spec.isa
    pool = [
        random_program(
            isa,
            draw(st.integers(min_value=1, max_value=60)),
            np.random.default_rng(draw(st.integers(0, 10_000))),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    cores = cluster.spec.num_cores
    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        program = pool[draw(st.integers(0, len(pool) - 1))]
        active = draw(st.integers(min_value=1, max_value=cores))
        offsets = None
        if draw(st.booleans()):
            offsets = draw(
                st.lists(
                    st.integers(min_value=0, max_value=200),
                    min_size=active,
                    max_size=active,
                )
            )
        items.append((program, active, 16, offsets))
    cached = draw(st.lists(st.sampled_from(items), max_size=3))
    return key, items, cached


def assert_batch_matches_references(key, items, cached):
    cluster, reference = platform(key)
    session = SimulationSession()
    for item in cached:
        session.execution(cluster, *item)
    executions = session.executions(cluster, items)
    assert len(executions) == len(items)
    for (program, active, _, offsets), execution in zip(items, executions):
        load_current, schedule = reference_execution(
            cluster, reference, program, active, offsets
        )
        assert execution.load_current.dtype == load_current.dtype
        assert execution.load_current.tobytes() == load_current.tobytes()
        assert execution.loop_cycles == schedule.cycles
        assert execution.ipc == schedule.ipc
        assert execution.active_cores == active
        for got in execution.schedules:
            assert got.cycles == schedule.cycles
            assert np.array_equal(got.issue_offsets, schedule.issue_offsets)
            assert got.issue_offsets.dtype == schedule.issue_offsets.dtype


@settings(max_examples=40, deadline=None)
@given(batches())
def test_batch_equals_per_item_references(case):
    assert_batch_matches_references(*case)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(batches())
def test_batch_equals_per_item_references_deep(case):
    assert_batch_matches_references(*case)
