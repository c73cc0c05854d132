"""Coupling between the die radiator and the antenna, plus ambient noise.

The paper places the antenna at a stable 5-10 cm from the CPU; the
received signal strength falls with distance and the board side (the
lower side, closer to the die, is preferred).  The model uses an
inverse-distance-cubed near-field law (magnetic dipole coupling at
centimeter range against meter-scale wavelengths) normalized at a
reference distance, and an ambient environment that contributes the
spectrum analyzer's displayed noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NearFieldCoupling:
    """Distance-dependent gain between die radiator and antenna."""

    distance_m: float = 0.07
    reference_distance_m: float = 0.07
    exponent: float = 3.0
    board_side_gain: float = 1.0  # 1.0 = lower side (closer to die)

    def gain(self) -> float:
        """Scalar amplitude gain applied to the emission spectrum."""
        if self.distance_m <= 0.0:
            raise ValueError("antenna distance must be positive")
        ratio = self.reference_distance_m / self.distance_m
        return self.board_side_gain * ratio**self.exponent


@dataclass(frozen=True)
class AmbientEnvironment:
    """Measurement environment: noise floor and its sweep-to-sweep spread."""

    noise_floor_dbm: float = -95.0
    noise_sigma_db: float = 1.0

    def noise_power_w(self) -> float:
        """Mean noise power per RBW bin, in watts."""
        return 1.0e-3 * 10.0 ** (self.noise_floor_dbm / 10.0)

    def sample_noise_w(
        self, shape, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-bin noise power draws, one row per sweep.

        The normal draws fill ``shape`` in C order, so a
        ``(sweeps, bins)`` call returns the same values, and leaves
        ``rng`` in the same state, as ``sweeps`` successive
        ``(bins,)`` calls; the analyzer's RMS-of-N readout relies on
        this to draw all its sweeps at once.
        """
        db = self.noise_floor_dbm + self.noise_sigma_db * rng.standard_normal(
            shape
        )
        return 1.0e-3 * 10.0 ** (db / 10.0)
