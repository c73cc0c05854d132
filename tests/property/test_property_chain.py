"""Property-based invariants of the batched measurement chain.

Two contracts the batch-first refactor must keep under *arbitrary*
operating points, not just the fixtures the equivalence shims pin:

- batch == sequential: pushing N items through one chain call yields
  bitwise the same signal power, rail responses, amplitudes, traces
  and peaks (and RNG stream consumption, measurement time and session
  cache counts) as N one-item calls against an identically seeded
  chain, whatever the batch holds: repeated and distinct grids, mixed
  gating states, voltages and jitter, any readout request, band and
  sample count, and readout chunk edges;
- permutation equivariance of the deterministic outputs: reordering a
  request permutes the response-derived results and nothing else.
  (The *noisy* amplitude is deliberately not equivariant -- analyzer
  noise draws are positional by design, matching serial hardware.)

A third property pins ``Cluster.run``, ``ProgramWorkload.run`` and
``IdleWorkload.run`` -- now chain calls through the cluster's own
session -- bit for bit to the pre-chain per-call path in
``tests/chain/legacy_reference.py``, on a cache miss and a cache hit.
A fourth pins the timing jitter's one-gather tiling to the
``np.roll``-per-tile block of that path.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.chain import ChainItem, ChainRequest, OperatingPoint, TimingJitter
from repro.chain.stages import _jittered
from repro.core.characterizer import EMCharacterizer
from repro.cpu.program import random_program
from repro.instruments.spectrum_analyzer import (
    DRAW_BLOCK_BYTES,
    SpectrumAnalyzer,
)
from repro.platforms import registry
from repro.platforms.juno import make_juno_board
from repro.workloads.base import IdleWorkload, ProgramWorkload

from tests.chain.legacy_reference import (
    reference_idle_response,
    reference_jitter,
    reference_run,
)

# Module-local board: the tests below set operating points through
# OperatingPoint overrides only (the cluster itself is never mutated).
_BOARD = make_juno_board()
_CLUSTER = _BOARD.a53
_CLOCKS = list(_CLUSTER.spec.allowed_clocks_hz())

seeds = st.integers(min_value=0, max_value=10_000)
# Batches that cross the readout's chunk edges (see _CHUNK_EDGES).
counts = st.integers(min_value=1, max_value=40)
# Stay inside repro.platforms.base.validate_voltage's [0.4, 1.6] V.
voltages = st.floats(min_value=0.6, max_value=1.2, allow_nan=False)


def _characterizer(seed=1234):
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(seed)),
        samples=3,
    )


def _items(seed, count, voltage):
    rng = np.random.default_rng(seed)
    return [
        ChainItem(
            program=random_program(
                _CLUSTER.spec.isa, int(rng.integers(3, 12)), rng,
                name=f"p{i}",
            ),
            operating_point=OperatingPoint(
                clock_hz=_CLOCKS[int(rng.integers(0, len(_CLOCKS)))],
                voltage=float(voltage),
            ),
        )
        for i in range(count)
    ]


def _mixed_items(seed, count):
    """``count`` items drawn from a few programs, clocks and gating
    states, so grids and executions repeat within the batch, some with
    timing jitter.  A quarter of them run at the cluster's own (nominal)
    voltage, the rest anywhere in [0.6, 1.2] V."""
    rng = np.random.default_rng(seed)
    programs = [
        random_program(_CLUSTER.spec.isa, int(rng.integers(2, 10)), rng)
        for _ in range(3)
    ]
    clocks = [_CLOCKS[int(i)] for i in rng.integers(0, len(_CLOCKS), 3)]
    items = []
    for _ in range(count):
        jitter = None
        if rng.random() < 0.3:
            jitter = TimingJitter(
                seed=int(rng.integers(0, 2**32)),
                tiles=int(rng.integers(1, 5)),
                smooth_cycles=int(rng.integers(1, 13)),
                compression=float(rng.choice([0.5, 1.0])),
            )
        voltage = None
        if rng.random() >= 0.25:
            voltage = float(rng.uniform(0.6, 1.2))
        items.append(
            ChainItem(
                program=programs[int(rng.integers(0, 3))],
                operating_point=OperatingPoint(
                    clock_hz=clocks[int(rng.integers(0, 3))],
                    voltage=voltage,
                    powered_cores=int(rng.integers(1, 5)),
                ),
                jitter=jitter,
            )
        )
    return items


_BINS = SpectrumAnalyzer().bin_centers()

# Items per readout chunk, DRAW_BLOCK_BYTES // (8 * draws per item),
# for 3 full-band sweeps plus a trace and for 12 full-band sweeps alone;
# the chunk-edge examples below are built on these.
_CHUNK_EDGES = (
    DRAW_BLOCK_BYTES // (8 * 4 * _BINS.size),
    DRAW_BLOCK_BYTES // (8 * 12 * _BINS.size),
)
assert _CHUNK_EDGES == (21, 7)

_RESPONSE_FIELDS = (
    "die_voltage",
    "die_current",
    "harmonic_frequencies_hz",
    "die_voltage_harmonics",
    "die_current_harmonics",
)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a.view(np.int64), b.view(np.int64))
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=seeds,
    count=counts,
    samples=st.integers(min_value=1, max_value=12),
    want=st.sampled_from(["amplitude", "trace", "both"]),
    band_bins=st.tuples(
        st.integers(0, _BINS.size - 1), st.integers(0, _BINS.size - 1)
    ),
)
# Chunk edges (see _CHUNK_EDGES): a batch that fills one readout chunk
# exactly, one that spills one item into a second, and three chunks.
@example(seed=1, count=21, samples=3, want="both", band_bins=(0, 1499))
@example(seed=2, count=22, samples=3, want="both", band_bins=(0, 1499))
@example(seed=3, count=15, samples=12, want="amplitude",
         band_bins=(0, 1499))
@example(seed=4, count=40, samples=1, want="trace", band_bins=(7, 7))
def test_batch_equals_sequential_itemwise(
    seed, count, samples, want, band_bins
):
    """One N-item chain call == N one-item calls, bit for bit, per
    item and in every stream, counter and accumulator they touch."""
    items = _mixed_items(seed, count)
    lo, hi = sorted(band_bins)

    def characterizer():
        return EMCharacterizer(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(seed)),
            band=(_BINS[lo], _BINS[hi]),
            samples=samples,
        )

    def measure(chain, chosen):
        # ``measure_batch`` sends amplitude-and-trace requests; the
        # other two kinds go to the characterizer's chain directly.
        if want == "both":
            return [
                m.run
                for m in chain.measure_batch(_CLUSTER, [], items=chosen)
            ]
        request = ChainRequest(
            cluster=_CLUSTER,
            items=chosen,
            band=chain.band,
            samples=samples,
            want_amplitude=want == "amplitude",
            want_trace=want == "trace",
        )
        return chain.chain_path().run(request).items

    batched_chain, sequential_chain = characterizer(), characterizer()
    batched = measure(batched_chain, items)
    sequential = [
        measure(sequential_chain, [item])[0] for item in items
    ]
    assert len(batched) == len(sequential) == count
    for b, s in zip(batched, sequential):
        assert b.amplitude_w == s.amplitude_w
        assert b.peak_frequency_hz == s.peak_frequency_hz
        assert b.loop_frequency_hz == s.loop_frequency_hz
        assert b.voltage == s.voltage
        assert _same_bits(b.signal_w, s.signal_w)
        assert b.response.sample_rate_hz == s.response.sample_rate_hz
        assert b.response.nominal_voltage == s.response.nominal_voltage
        for field in _RESPONSE_FIELDS:
            assert _same_bits(
                getattr(b.response, field), getattr(s.response, field)
            ), field
        if want == "amplitude":
            assert b.trace is None and s.trace is None
        else:
            assert _same_bits(b.trace.power_dbm, s.trace.power_dbm)
    analyzers = [c.analyzer for c in (batched_chain, sequential_chain)]
    assert (
        analyzers[0].rng.bit_generator.state
        == analyzers[1].rng.bit_generator.state
    )
    assert (
        analyzers[0].total_measurement_time_s
        == analyzers[1].total_measurement_time_s
    )
    assert (
        batched_chain.session.stats.snapshot()
        == sequential_chain.session.stats.snapshot()
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=seeds,
    count=st.integers(min_value=2, max_value=4),
    voltage=voltages,
    perm_seed=seeds,
)
def test_deterministic_outputs_are_permutation_equivariant(
    seed, count, voltage, perm_seed
):
    """Reordering a response-only request reorders the results.

    ``want_amplitude=False`` keeps the analyzer RNG out of the chain,
    so every per-item output is a pure function of the item -- a
    permuted batch must yield exactly the permuted outputs.
    """
    items = _items(seed, count, voltage)
    perm = np.random.default_rng(perm_seed).permutation(count)
    characterizer = _characterizer()

    def run(ordered_items):
        request = ChainRequest(
            cluster=_CLUSTER,
            items=list(ordered_items),
            band=characterizer.band,
            want_amplitude=False,
            want_trace=False,
        )
        return characterizer.chain_path().run(request).items

    base = run(items)
    permuted = run([items[i] for i in perm])
    for out_pos, in_pos in enumerate(perm):
        assert (
            permuted[out_pos].loop_frequency_hz
            == base[in_pos].loop_frequency_hz
        )
        assert permuted[out_pos].ipc == base[in_pos].ipc
        assert permuted[out_pos].max_droop == base[in_pos].max_droop
        assert (
            permuted[out_pos].peak_to_peak
            == base[in_pos].peak_to_peak
        )


# Module-local clusters for the reference property; every example sets
# their whole operating point before it runs.
_PLATFORMS = {
    name: registry.make_cluster(name) for name in ("a72", "a53", "amd")
}

jitters = st.one_of(
    st.none(),
    st.builds(
        TimingJitter,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        tiles=st.integers(min_value=1, max_value=16),
        smooth_cycles=st.integers(min_value=1, max_value=24),
        compression=st.floats(min_value=0.2, max_value=1.0),
    ),
)


@st.composite
def operating_points(draw):
    """A platform cluster set to a random clock, voltage and gating,
    plus a random active-core count (``None``: every powered core)."""
    cluster = _PLATFORMS[draw(st.sampled_from(sorted(_PLATFORMS)))]
    cluster.set_clock(draw(st.sampled_from(cluster.spec.allowed_clocks_hz())))
    cluster.set_voltage(draw(st.floats(min_value=0.5, max_value=1.3)))
    powered = draw(
        st.integers(min_value=1, max_value=cluster.spec.num_cores)
    )
    cluster.power_gate(powered)
    active = draw(st.none() | st.integers(min_value=1, max_value=powered))
    return cluster, active


def _assert_same_response(got, expected):
    assert got.sample_rate_hz == expected.sample_rate_hz
    assert got.nominal_voltage == expected.nominal_voltage
    for field in (
        "die_voltage",
        "die_current",
        "harmonic_frequencies_hz",
        "die_voltage_harmonics",
        "die_current_harmonics",
    ):
        np.testing.assert_array_equal(
            getattr(got, field), getattr(expected, field)
        )


@settings(max_examples=60, deadline=None)
@given(
    point=operating_points(),
    length=st.integers(min_value=1, max_value=60),
    program_seed=seeds,
    jitter=jitters,
)
def test_runs_equal_the_pre_chain_reference(
    point, length, program_seed, jitter
):
    """``Cluster.run`` and ``ProgramWorkload.run`` == the reference."""
    cluster, active = point
    program = random_program(
        cluster.spec.isa, length, np.random.default_rng(program_seed)
    )
    if jitter is None:
        expected = reference_run(cluster, program, active_cores=active)
        workload = ProgramWorkload("w", program, jitter_seed=None)
    else:
        expected = reference_run(
            cluster,
            program,
            active_cores=active,
            timing_jitter_rng=np.random.default_rng(jitter.seed),
            jitter_tiles=jitter.tiles,
            jitter_smooth_cycles=jitter.smooth_cycles,
            activity_compression=jitter.compression,
        )
        workload = ProgramWorkload(
            "w",
            program,
            jitter_seed=jitter.seed,
            jitter_tiles=jitter.tiles,
            jitter_smooth_cycles=jitter.smooth_cycles,
            activity_compression=jitter.compression,
        )
    # The second and third runs of the program are session cache hits.
    runs = [
        cluster.run(program, active_cores=active, jitter=jitter),
        workload.run(cluster, active_cores=active).cluster_run,
        cluster.run(program, active_cores=active, jitter=jitter),
    ]
    for run in runs:
        _assert_same_response(run.response, expected.response)
        np.testing.assert_array_equal(
            run.execution.load_current, expected.execution.load_current
        )
        assert run.clock_hz == expected.clock_hz
        assert run.voltage == expected.voltage
        assert run.powered_cores == expected.powered_cores
        assert run.active_cores == expected.active_cores
        assert run.ipc == expected.ipc
        assert run.loop_frequency_hz == expected.loop_frequency_hz
        assert run.loop_period_s == expected.loop_period_s


@settings(max_examples=15, deadline=None)
@given(point=operating_points(), seed=seeds)
def test_idle_run_equals_the_reference_run_trace(point, seed):
    """``IdleWorkload.run`` == the reference ``run_trace``, twice."""
    cluster, _ = point
    workload = IdleWorkload(seed=seed)
    expected = reference_idle_response(cluster, workload)
    for _ in range(2):
        _assert_same_response(workload.run(cluster).response, expected)


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=5000),
    ),
    seed=st.integers(min_value=0, max_value=2**64),
    tiles=st.integers(min_value=1, max_value=32),
    smooth_cycles=st.integers(min_value=1, max_value=24),
    compression=st.sampled_from([0.0, 0.2, 0.5, 1.0, 1.5]),
    trace_seed=seeds,
)
@example(n=1, seed=0, tiles=16, smooth_cycles=12, compression=0.5,
         trace_seed=0)
@example(n=5, seed=2**64, tiles=32, smooth_cycles=12, compression=1.0,
         trace_seed=1)
@example(n=5000, seed=77, tiles=32, smooth_cycles=6, compression=0.8,
         trace_seed=2)
def test_jitter_gather_equals_rolled_tiles(
    n, seed, tiles, smooth_cycles, compression, trace_seed
):
    """The cached gather index tiles a trace exactly like one
    ``np.roll`` per shift drawn from ``default_rng(seed)``, including
    one-sample traces and traces shorter than the smoothing window;
    the index is read-only and drawn once per length."""
    trace = np.random.default_rng(trace_seed).uniform(0.5, 3.0, n)
    jitter = TimingJitter(
        seed=seed,
        tiles=tiles,
        smooth_cycles=smooth_cycles,
        compression=compression,
    )
    expected = reference_jitter(
        trace,
        np.random.default_rng(seed),
        jitter_tiles=tiles,
        jitter_smooth_cycles=smooth_cycles,
        activity_compression=compression,
    )
    np.testing.assert_array_equal(_jittered(trace, jitter), expected)
    index = jitter.gather_index(n)
    assert index.shape == (tiles * n,)
    assert not index.flags.writeable
    assert jitter.gather_index(n) is index
    rolled = reference_jitter(
        trace, np.random.default_rng(seed), jitter_tiles=tiles,
        jitter_smooth_cycles=1,
    )
    np.testing.assert_array_equal(trace[index], rolled)
