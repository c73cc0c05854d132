"""Run metrics of every chain-item mode through ``measure_batch``.

Every item executes into one clock-free ``ClusterExecution``, so the
IPC, loop frequency and loop period an item ran at come from one
formula for every mode: ``clock_hz / loop_cycles`` and its inverse.
Single, phase-offset and cache-miss items keep the values of the
pre-chain run path in ``tests/chain/legacy_reference.py``, bit for bit.
"""

import math

import numpy as np
import pytest

from repro.chain import ChainItem
from repro.core.characterizer import EMCharacterizer
from repro.cpu.cache import CacheModel
from repro.cpu.program import program_from_mnemonics
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.workloads.loops import high_low_program

from tests.chain.legacy_reference import (
    reference_run,
    reference_run_nondeterministic,
)
from tests.chain.test_mixed_nondeterministic import memory_heavy_program

MODES = ["single", "phase-offset", "mixed", "cache-miss"]


def item_and_reference(mode, cluster):
    """One chain item of ``mode`` and the pre-chain metrics it must
    keep (``None`` for a mix, which the pre-chain path never reported).
    """
    hilo = high_low_program(cluster.spec.isa)
    if mode == "single":
        return ChainItem(program=hilo), reference_run(cluster, hilo)
    if mode == "phase-offset":
        offsets = [0, 3]
        return (
            ChainItem(program=hilo, phase_offsets=offsets),
            reference_run(cluster, hilo, phase_offsets=offsets),
        )
    if mode == "mixed":
        fp_loop = program_from_mnemonics(
            cluster.spec.isa, ["fadd"] * 6 + ["fsqrt"]
        )
        return ChainItem(programs=[hilo, fp_loop]), None
    program = memory_heavy_program(cluster)
    cache = CacheModel(l1_slots=64)
    return (
        ChainItem(
            program=program,
            cache_model=cache,
            memory_rng=np.random.default_rng(42),
        ),
        reference_run_nondeterministic(
            cluster,
            program,
            cache_model=cache,
            memory_rng=np.random.default_rng(42),
        ),
    )


@pytest.mark.parametrize("mode", MODES)
def test_every_item_mode_reports_its_run_metrics(a72, mode):
    a72.set_clock(540e6)
    item, reference = item_and_reference(mode, a72)
    characterizer = EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(3)), samples=2
    )
    (measurement,) = characterizer.measure_batch(a72, [], items=[item])
    run = measurement.run
    execution = run.execution
    metrics = (
        run.ipc,
        run.loop_frequency_hz,
        run.loop_period_s,
        measurement.loop_frequency_hz,
    )
    assert all(math.isfinite(v) and v > 0.0 for v in metrics)
    assert run.clock_hz == 540e6
    assert run.ipc == execution.ipc
    assert run.loop_frequency_hz == run.clock_hz / execution.loop_cycles
    assert run.loop_period_s == execution.loop_cycles / run.clock_hz
    assert measurement.loop_frequency_hz == run.loop_frequency_hz
    assert execution.active_cores == run.active_cores

    if mode == "mixed":
        # The composite period, and the mean of the per-core IPCs.
        assert execution.loop_cycles == execution.load_current.size
        assert execution.ipc == sum(s.ipc for s in execution.schedules) / 2
    else:
        assert run.ipc == reference.ipc
        assert run.loop_frequency_hz == reference.loop_frequency_hz
    if mode in ("single", "phase-offset"):
        assert run.loop_period_s == reference.loop_period_s
