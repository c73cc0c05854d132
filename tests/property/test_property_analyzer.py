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
partial and single-bin bands.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.em.propagation import AmbientEnvironment
from repro.em.radiation import EmissionSpectrum
from repro.instruments.spectrum_analyzer import LINE_BLOCK, SpectrumAnalyzer
from tests.instruments.analyzer_reference import (
    max_amplitude_from_power_reference,
    received_power_w_reference,
    sweep_reference,
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
        "pass_gains": draw(st.booleans()),
        "pass_mask": draw(st.booleans()),
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
    gains = None
    if case["pass_gains"]:
        gains = sa.line_gains(sa.banded_lines(emission).frequencies_hz)

    power = sa.received_power_w(emission, gains=gains)
    expected = received_power_w_reference(ref, emission, gains=gains)
    assert same_bits(power, expected)

    band = case["band"]
    mask = None
    if case["pass_mask"] and band is not None:
        centers = sa.bin_centers()
        mask = (centers >= band[0]) & (centers <= band[1])
    amplitude = sa.max_amplitude_from_power(
        power, band=band, samples=case["samples"], mask=mask
    )
    expected_amplitude = max_amplitude_from_power_reference(
        ref, expected, band=band, samples=case["samples"], mask=mask
    )
    assert same_bits(amplitude, expected_amplitude)
    assert sa.rng.bit_generator.state == ref.rng.bit_generator.state

    trace = sa.sweep(emission)
    expected_trace = sweep_reference(ref, emission)
    assert same_bits(trace.frequencies_hz, expected_trace.frequencies_hz)
    assert same_bits(trace.power_dbm, expected_trace.power_dbm)
    assert sa.rng.bit_generator.state == ref.rng.bit_generator.state
    assert sa.total_measurement_time_s == ref.total_measurement_time_s
