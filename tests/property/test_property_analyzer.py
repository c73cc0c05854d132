"""Property: the windowed, blocked analyzer readout is the reference's
bits.

``received_power_w`` evaluates each line's RBW filter only on the bins
within ``RBW_REACH_SIGMAS`` and accumulates lines in blocks of
``LINE_BLOCK``; ``max_amplitude_from_power`` draws its RMS-of-N noise
as one ``(samples, bins)`` block.  Against the one-row-per-line and
one-row-per-sample reference in ``tests/instruments/analyzer_reference``
every power array, amplitude, displayed trace, final RNG state and
accumulated measurement time must be identical, on random spans
(including spans clamped to two bins), line sets at the banding edges,
on bin centers, duplicated and spread over several blocks, and full,
partial and single-bin bands.  ``max_amplitude_from_power`` converts
the noise draws to watts only in the bins where a sweep maximum can
land; fixed examples pin the cases a random draw rarely reaches (one
line far above a spread-free floor, a signal under the floor
everywhere, exact ties, NaN and infinite bins, a one-bin band, and a
runner-up bin that wins only the sweep holding the largest draw).
Over a batch, ``spread_lines`` and ``readout`` must give every item the
reference's bits one item at a time, with amplitude-only, trace-only
and combined readouts whose draw blocks span one or several chunks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.em.propagation import AmbientEnvironment
from repro.em.radiation import EmissionSpectrum
from repro.instruments.spectrum_analyzer import LINE_BLOCK, SpectrumAnalyzer
from tests.instruments.analyzer_reference import (
    max_amplitude_from_power_reference,
    received_power_w_reference,
    sweep_reference,
    trace_from_power_reference,
)

MAX_LINES = 300
assert MAX_LINES > 2 * LINE_BLOCK


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


@st.composite
def analyzer_settings(draw):
    start = draw(st.floats(min_value=1.0e6, max_value=1.0e9))
    span = draw(st.floats(min_value=1.0e3, max_value=5.0e8))
    # span / RBW: below 2.5 the grid clamps to two bins (RBW > span/2).
    if draw(st.integers(0, 3)) == 0:
        ratio = draw(st.floats(min_value=0.05, max_value=2.5))
    else:
        ratio = draw(st.floats(min_value=2.5, max_value=4000.0))
    return {
        "start_hz": start,
        "stop_hz": start + span,
        "rbw_hz": span / ratio,
        "environment": AmbientEnvironment(
            noise_floor_dbm=draw(st.floats(min_value=-120.0, max_value=-60)),
            noise_sigma_db=draw(st.floats(min_value=0.0, max_value=3.0)),
        ),
    }


@st.composite
def emissions(draw, settings):
    probe = SpectrumAnalyzer(**settings)
    centers = probe.bin_centers()
    low = probe.start_hz - 4.0 * probe.rbw_hz
    high = probe.stop_hz + 4.0 * probe.rbw_hz
    line = st.one_of(
        st.floats(min_value=low, max_value=high),
        st.sampled_from([low, high]),
        st.sampled_from(list(centers[:: max(1, centers.size // 64)])),
        # Beyond the banding edges: dropped before the filter.
        st.floats(min_value=high, max_value=2.0 * high),
    )
    count = draw(st.integers(min_value=0, max_value=MAX_LINES))
    freqs = draw(st.lists(line, min_size=count, max_size=count))
    if freqs and draw(st.booleans()):
        # Duplicate frequencies, each its own line.
        freqs += draw(
            st.lists(st.sampled_from(freqs), min_size=1, max_size=20)
        )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    amplitudes = np.random.default_rng(seed).uniform(
        0.0, 1.0e-2, len(freqs)
    )
    return EmissionSpectrum(np.array(freqs, dtype=float), amplitudes)


@st.composite
def cases(draw):
    settings = draw(analyzer_settings())
    emission = draw(emissions(settings))
    centers = SpectrumAnalyzer(**settings).bin_centers()
    kind = draw(st.sampled_from(["full", "partial", "single"]))
    if kind == "full":
        band = None
    elif kind == "single":
        center = centers[draw(st.integers(0, centers.size - 1))]
        band = (center, center)
    else:
        i = draw(st.integers(0, centers.size - 1))
        j = draw(st.integers(i, centers.size - 1))
        band = (centers[i], centers[j])
    return {
        "settings": settings,
        "emission": emission,
        "band": band,
        "samples": draw(st.integers(min_value=1, max_value=30)),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
    }


def twins(case):
    return (
        SpectrumAnalyzer(
            rng=np.random.default_rng(case["seed"]), **case["settings"]
        ),
        SpectrumAnalyzer(
            rng=np.random.default_rng(case["seed"]), **case["settings"]
        ),
    )


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_readout_matches_reference_bit_for_bit(case):
    sa, ref = twins(case)
    emission = case["emission"]
    power = sa.received_power_w(emission)
    expected = received_power_w_reference(ref, emission)
    assert same_bits(power, expected)

    band = case["band"]
    amplitude = sa.max_amplitude_from_power(
        power, band=band, samples=case["samples"]
    )
    expected_amplitude = max_amplitude_from_power_reference(
        ref, expected, band=band, samples=case["samples"]
    )
    assert same_bits(amplitude, expected_amplitude)
    assert sa.rng.bit_generator.state == ref.rng.bit_generator.state

    trace = sa.sweep(emission)
    expected_trace = sweep_reference(ref, emission)
    assert same_bits(trace.frequencies_hz, expected_trace.frequencies_hz)
    assert same_bits(trace.power_dbm, expected_trace.power_dbm)
    assert sa.rng.bit_generator.state == ref.rng.bit_generator.state
    assert sa.total_measurement_time_s == ref.total_measurement_time_s


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(case=cases())
def test_readout_matches_reference_bit_for_bit_deep(case):
    test_readout_matches_reference_bit_for_bit.hypothesis.inner_test(case)


@st.composite
def batches(draw):
    case = draw(cases())
    more = draw(
        st.lists(emissions(case["settings"]), min_size=0, max_size=4)
    )
    return {
        **case,
        "emissions": [case["emission"], *more],
        "want": draw(st.sampled_from(["amplitude", "trace", "both"])),
    }


@settings(max_examples=40, deadline=None)
@given(batch=batches())
def test_batch_readout_matches_reference_per_item(batch):
    """``spread_lines`` and ``readout`` over a batch give each item the
    bits, and leave the RNG state and measurement time, of the
    reference run one item at a time."""
    sa, ref = twins(batch)
    amplitude = batch["want"] != "trace"
    trace = batch["want"] != "amplitude"
    power = sa.spread_lines(batch["emissions"])
    amplitudes, power_dbm = sa.readout(
        power,
        band=batch["band"],
        samples=batch["samples"],
        amplitude=amplitude,
        trace=trace,
    )
    assert (amplitudes is None) != amplitude
    assert (power_dbm is None) != trace
    for row, emission in enumerate(batch["emissions"]):
        expected = received_power_w_reference(ref, emission)
        assert same_bits(power[row], expected)
        if amplitude:
            assert same_bits(
                amplitudes[row],
                max_amplitude_from_power_reference(
                    ref, expected, band=batch["band"],
                    samples=batch["samples"],
                ),
            )
        if trace:
            assert same_bits(
                power_dbm[row],
                trace_from_power_reference(ref, expected).power_dbm,
            )
    assert sa.rng.bit_generator.state == ref.rng.bit_generator.state
    assert sa.total_measurement_time_s == ref.total_measurement_time_s


def strong_line_signal(sa, dbm=-40.0):
    """Signal power of one line whose bin reads about ``dbm``."""
    centers = sa.bin_centers()
    emission = EmissionSpectrum(np.array([centers[700] + 13.0e3]), [1.0])
    signal = sa.received_power_w(emission)
    return signal * (1.0e-3 * 10.0 ** (dbm / 10.0) / signal.max())


def runner_up_signal(sa, samples):
    """A strongest bin and a runner-up that holds the maximum of only
    the sweep with the block's largest draw.

    The runner-up trails by more than that draw's noise minus the
    strongest bin's largest noise, so a bound taken from the largest
    value the strongest bin reaches, not the smallest, would drop it.
    """
    bins = sa.bin_centers().size
    noise = sa.environment.sample_noise_w(
        (samples, bins), np.random.default_rng(EDGE_SEED)
    )
    sweep, runner = np.unravel_index(np.argmax(noise), noise.shape)
    strongest = np.argmin(noise[sweep])
    ceiling = noise[sweep, runner]
    low = ceiling - noise[:, strongest].max()
    high = ceiling - noise[sweep, strongest]
    signal = np.zeros(bins)
    signal[strongest] = 1.0e-9
    signal[runner] = 1.0e-9 - (low + high) / 2.0
    return signal


def edge_signal(kind, sa, samples):
    if kind == "strong-line":
        return strong_line_signal(sa)
    if kind == "under-floor":
        return strong_line_signal(sa, dbm=-160.0)
    if kind == "runner-up":
        return runner_up_signal(sa, samples)
    signal = np.zeros(sa.bin_centers().size)
    if kind == "ties":
        signal[[3, 400, 401, 1499]] = 1.0e-8
    elif kind == "nan-bin":
        signal[[5, 900]] = [1.0e-8, np.nan]
    elif kind == "inf-bin":
        signal[[5, 900]] = [1.0e-8, np.inf]
    elif kind == "nan-and-inf":
        signal[[5, 600, 900]] = [1.0e-8, np.inf, np.nan]
    return signal


EDGE_SEED = 17

EDGE_CASES = [
    # (signal kind, noise spread in dB, band as bin indices or None)
    ("strong-line", 0.0, None),
    ("strong-line", 1.0, None),
    ("strong-line", 0.0, (700, 700)),
    ("under-floor", 1.0, None),
    ("under-floor", 0.0, None),
    ("ties", 0.0, None),
    ("ties", 1.0, (400, 401)),
    ("nan-bin", 0.0, None),
    ("nan-bin", 1.0, None),
    ("inf-bin", 1.0, None),
    ("nan-and-inf", 0.0, None),
    ("ties", 1.0, (3, 3)),
    ("runner-up", 3.0, None),
]


@pytest.mark.parametrize(
    "kind, sigma_db, band_bins",
    EDGE_CASES,
    ids=[f"{k}-{s}dB-{b}" for k, s, b in EDGE_CASES],
)
@pytest.mark.parametrize("samples", [1, 10])
def test_readout_edge_cases_match_reference(
    kind, sigma_db, band_bins, samples
):
    settings_ = {
        "environment": AmbientEnvironment(noise_sigma_db=sigma_db),
    }
    sa, ref = twins({"seed": EDGE_SEED, "settings": settings_})
    signal = edge_signal(kind, sa, samples)
    band = None
    if band_bins is not None:
        centers = sa.bin_centers()
        band = (centers[band_bins[0]], centers[band_bins[1]])
    amplitude = sa.max_amplitude_from_power(signal, band=band, samples=samples)
    expected = max_amplitude_from_power_reference(
        ref, signal, band=band, samples=samples
    )
    assert same_bits(amplitude, expected)
    assert sa.rng.bit_generator.state == ref.rng.bit_generator.state
    assert sa.total_measurement_time_s == ref.total_measurement_time_s


def test_readout_converts_only_columns_that_can_hold_a_maximum(monkeypatch):
    """At 0 dB spread one strong line decides every sweep's maximum,
    so the readout converts a few columns of its noise block to watts,
    not all ``samples x bins`` draws."""
    converted = []
    noise_w = AmbientEnvironment.noise_w

    def spy(self, normals):
        converted.append(np.size(normals))
        return noise_w(self, normals)

    monkeypatch.setattr(AmbientEnvironment, "noise_w", spy)
    samples = 10
    settings_ = {"environment": AmbientEnvironment(noise_sigma_db=0.0)}
    sa, ref = twins({"seed": 5, "settings": settings_})
    signal = strong_line_signal(sa)
    bins = signal.size
    amplitude = sa.max_amplitude_from_power(signal, samples=samples)
    assert 0 < sum(converted) <= 3 * samples + 1 < samples * bins
    expected = max_amplitude_from_power_reference(ref, signal, samples=samples)
    assert same_bits(amplitude, expected)
