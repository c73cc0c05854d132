"""The readout's draw-ahead thread: bits, memory bound and lifetime.

A chain request whose readout spans two or more draw blocks reads its
noise from a ``DrawAhead`` thread that draws from a clone of the
analyzer RNG while the earlier stages run.  These tests hold it to the
in-place readout under thread contention, bound how far it draws
ahead, and check that it never outlives ``SignalPath.run``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.chain import (
    ChainItem,
    ChainRequest,
    OperatingPoint,
    resolve_request,
)
from repro.chain.stages import DRAW_AHEAD_BLOCKS, DrawAhead
from repro.core.characterizer import EMCharacterizer
from repro.instruments.spectrum_analyzer import ReadoutPlan, SpectrumAnalyzer
from repro.workloads.loops import high_low_program


def _characterizer(seed=7, samples=10):
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(seed)),
        samples=samples,
    )


def _sweep_items(cluster, count):
    """``count`` sweep points, one clock each: at 10 samples plus a
    trace a draw block holds 7 of them."""
    program = high_low_program(cluster.spec.isa)
    clocks = cluster.spec.allowed_clocks_hz()[:count]
    return [
        ChainItem(
            program=program,
            operating_point=OperatingPoint(clock_hz=clock),
        )
        for clock in clocks
    ]


def _readout(characterizer, cluster, items):
    return [
        (m.amplitude_w, m.trace.power_dbm.tobytes())
        for m in characterizer.measure_batch(cluster, [], items=items)
    ]


def test_plan_blocks_are_the_one_draw_stream():
    """The plan's blocks hold the values, and leave the generator
    state, of one draw for every item."""
    analyzer = SpectrumAnalyzer()
    plan = analyzer.readout_plan(16, analyzer.bin_centers().size, samples=10)
    assert (plan.draws, plan.chunk, plan.blocks) == (16_500, 7, 3)
    rng = np.random.default_rng(3)
    blocks = list(plan.draw(rng))
    assert [b.shape for b in blocks] == [
        (7, 16_500), (7, 16_500), (2, 16_500),
    ]
    flat = np.random.default_rng(3)
    assert np.array_equal(
        np.concatenate(blocks), flat.standard_normal((16, 16_500))
    )
    assert rng.bit_generator.state == flat.bit_generator.state


def test_concurrent_drawn_ahead_runs_match_in_place_readouts(a72):
    """Four threads, each running three-block requests on a
    characterizer of its own, with their draw threads and a 10 µs
    switch interval, read what one-item calls read in place."""
    items = _sweep_items(a72, 16)
    sequential = _characterizer()
    expected = [_readout(sequential, a72, [item])[0] for item in items]
    expected_state = sequential.analyzer.rng.bit_generator.state
    baseline = threading.active_count()
    failures = []

    def worker():
        try:
            for _ in range(3):
                characterizer = _characterizer()
                got = _readout(characterizer, a72, items)
                state = characterizer.analyzer.rng.bit_generator.state
                if got != expected or state != expected_state:
                    failures.append("readout differs from in-place")
        except Exception as exc:  # reported by the assertion below
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert failures == []
    assert threading.active_count() == baseline


def test_thread_holds_a_bounded_number_of_blocks(monkeypatch):
    """An unread thread stops after filling its ready slots, and
    close() stops and joins it without drawing the rest."""
    drawn = []
    draw = ReadoutPlan.draw

    def counted(plan, rng):
        for block in draw(plan, rng):
            drawn.append(block.shape)
            yield block

    monkeypatch.setattr(ReadoutPlan, "draw", counted)
    analyzer = SpectrumAnalyzer(rng=np.random.default_rng(1))
    before = analyzer.rng.bit_generator.state
    plan = analyzer.readout_plan(
        200, analyzer.bin_centers().size, samples=10
    )
    assert plan.blocks == 29
    baseline = threading.active_count()
    draws = DrawAhead(analyzer, plan)
    # The thread fills its ready slots, then blocks handing over the
    # next block.
    deadline = time.monotonic() + 30
    while len(drawn) <= DRAW_AHEAD_BLOCKS and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.05)
    assert len(drawn) == DRAW_AHEAD_BLOCKS + 1
    draws.close()
    assert threading.active_count() == baseline
    assert len(drawn) == DRAW_AHEAD_BLOCKS + 1
    assert analyzer.rng.bit_generator.state == before
    draws.close()


def test_commit_refuses_a_replaced_generator(a72):
    analyzer = SpectrumAnalyzer(rng=np.random.default_rng(1))
    plan = analyzer.readout_plan(
        20, analyzer.bin_centers().size, samples=10
    )
    draws = DrawAhead(analyzer, plan)
    try:
        for lo in range(0, plan.items, plan.chunk):
            draws.take((min(lo + plan.chunk, plan.items) - lo, plan.draws))
        analyzer.rng = np.random.default_rng(1)
        with pytest.raises(RuntimeError, match="drawn ahead"):
            draws.commit()
    finally:
        draws.close()
    assert analyzer.rng.bit_generator.state == (
        np.random.default_rng(1).bit_generator.state
    )


def test_one_block_readout_draws_in_place(a72):
    """A request whose readout fits one block starts no thread."""
    characterizer = _characterizer()
    receive = characterizer.chain_path().stages[-1]
    one, two = _sweep_items(a72, 7), _sweep_items(a72, 8)

    def draw_ahead(items):
        request = ChainRequest(cluster=a72, items=items, samples=10)
        return receive.draw_ahead(
            resolve_request(request, characterizer.session)
        )

    assert draw_ahead(one) is None
    draws = draw_ahead(two)
    assert isinstance(draws, DrawAhead)
    draws.close()
