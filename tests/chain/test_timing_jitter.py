"""``TimingJitter`` field checks; its cached gather index is pinned
by a hypothesis property in ``tests/property/test_property_chain.py``."""

import math

import numpy as np
import pytest

from repro.chain import TimingJitter


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1),
        ("tiles", 0),
        ("tiles", -3),
        ("smooth_cycles", 0),
        ("smooth_cycles", -3),
        ("compression", -0.1),
        ("compression", math.nan),
        ("compression", math.inf),
    ],
)
def test_bad_field_fails_at_construction_naming_it(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        TimingJitter(**{"seed": 0, field: value})


def test_boundary_values_construct():
    jitter = TimingJitter(seed=0, tiles=1, smooth_cycles=1, compression=0.0)
    # One tile: a single rotation of the trace.
    assert sorted(jitter.gather_index(5).tolist()) == [0, 1, 2, 3, 4]


def test_cached_index_leaves_equality_and_hash_alone():
    jitter = TimingJitter(seed=9, tiles=3)
    jitter.gather_index(7)
    twin = TimingJitter(seed=9, tiles=3)
    assert jitter == twin
    assert hash(jitter) == hash(twin)
    np.testing.assert_array_equal(jitter.gather_index(7), twin.gather_index(7))
