"""Unit tests for near-field coupling and the ambient environment."""

import numpy as np
import pytest

from repro.em.propagation import AmbientEnvironment, NearFieldCoupling


class TestNearFieldCoupling:
    def test_reference_distance_is_unity_gain(self):
        c = NearFieldCoupling(distance_m=0.07, reference_distance_m=0.07)
        assert c.gain() == pytest.approx(1.0)

    def test_gain_falls_with_distance(self):
        near = NearFieldCoupling(distance_m=0.05)
        far = NearFieldCoupling(distance_m=0.10)
        assert near.gain() > far.gain()

    def test_cubic_law(self):
        a = NearFieldCoupling(distance_m=0.07)
        b = NearFieldCoupling(distance_m=0.14)
        assert a.gain() / b.gain() == pytest.approx(8.0)

    def test_board_side_gain(self):
        """The paper prefers the lower PCB side (closer to the die)."""
        lower = NearFieldCoupling(board_side_gain=1.0)
        upper = NearFieldCoupling(board_side_gain=0.6)
        assert lower.gain() > upper.gain()

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            NearFieldCoupling(distance_m=0.0).gain()


class TestAmbientEnvironment:
    def test_noise_power_matches_floor(self):
        env = AmbientEnvironment(noise_floor_dbm=-90.0)
        assert env.noise_power_w() == pytest.approx(1e-12)

    def test_sample_noise_spread(self):
        env = AmbientEnvironment(noise_floor_dbm=-95.0, noise_sigma_db=1.0)
        rng = np.random.default_rng(0)
        samples = env.sample_noise_w((10000,), rng)
        db = 10 * np.log10(samples / 1e-3)
        assert np.mean(db) == pytest.approx(-95.0, abs=0.1)
        assert np.std(db) == pytest.approx(1.0, abs=0.05)

    def test_sample_noise_deterministic_under_seed(self):
        env = AmbientEnvironment()
        a = env.sample_noise_w((5,), np.random.default_rng(7))
        b = env.sample_noise_w((5,), np.random.default_rng(7))
        assert np.allclose(a, b)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_floor_dbm", float("nan")),
            ("noise_floor_dbm", float("inf")),
            ("noise_floor_dbm", float("-inf")),
            ("noise_sigma_db", -1.0),
            ("noise_sigma_db", float("nan")),
            ("noise_sigma_db", float("inf")),
        ],
    )
    def test_bad_noise_setting_rejected(self, field, value):
        """A NaN floor would make every amplitude NaN, and the readout
        bounds each sweep's noise by that of its largest draw, which
        needs a finite, non-negative spread."""
        with pytest.raises(ValueError, match=field):
            AmbientEnvironment(**{field: value})

    def test_noise_w_is_the_sampled_map(self):
        env = AmbientEnvironment(noise_floor_dbm=-90.0, noise_sigma_db=2.0)
        normals = np.random.default_rng(3).standard_normal((4, 5))
        sampled = env.sample_noise_w((4, 5), np.random.default_rng(3))
        assert np.array_equal(env.noise_w(normals), sampled)
        assert np.array_equal(
            env.noise_w(normals[:, [1, 3]]), sampled[:, [1, 3]]
        )
