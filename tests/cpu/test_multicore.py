"""Unit tests for cluster-level execution."""

import numpy as np
import pytest

from repro.cpu.arm import ARM_ISA
from repro.cpu.current import CurrentModel
from repro.cpu.multicore import execute_on_cluster
from repro.cpu.pipeline import InOrderPipeline
from repro.cpu.program import program_from_mnemonics


@pytest.fixture
def core():
    """A core's pipeline and current model, as the chain passes them."""
    return InOrderPipeline(width=2), CurrentModel()


@pytest.fixture
def loop():
    return program_from_mnemonics(ARM_ISA, ["add"] * 8 + ["sdiv"])


class TestClusterExecution:
    def test_active_cores_scale_current(self, core, loop):
        one = execute_on_cluster(*core, loop, active_cores=1)
        two = execute_on_cluster(*core, loop, active_cores=2)
        # same uncore, double the per-core dynamic current
        assert two.load_current.mean() == pytest.approx(
            2 * one.load_current.mean() - one.uncore_current_a, rel=1e-9
        )

    def test_invalid_core_count_rejected(self, core, loop):
        with pytest.raises(ValueError):
            execute_on_cluster(*core, loop, active_cores=0)

    def test_phase_offsets_must_match_core_count(self, core, loop):
        with pytest.raises(ValueError):
            execute_on_cluster(
                *core, loop, active_cores=2, phase_offsets=[0]
            )

    def test_aligned_cores_maximize_swing(self, core, loop):
        """Anti-phase execution smooths the combined current."""
        aligned = execute_on_cluster(
            *core, loop, active_cores=2, phase_offsets=[0, 0]
        )
        period = aligned.loop_cycles
        staggered = execute_on_cluster(
            *core, loop, active_cores=2, phase_offsets=[0, period // 2]
        )
        assert np.ptp(aligned.load_current) >= np.ptp(
            staggered.load_current
        )

    def test_metadata_properties(self, core, loop):
        ex = execute_on_cluster(*core, loop, active_cores=2)
        # One sample per cycle of one steady iteration; no clock.
        assert ex.load_current.size == ex.loop_cycles
        assert ex.active_cores == 2
        schedule = ex.schedules[0]
        assert ex.schedules == (schedule, schedule)
        assert ex.loop_cycles == schedule.cycles
        assert ex.ipc == schedule.ipc
        assert 0.0 < ex.ipc <= 2.0
