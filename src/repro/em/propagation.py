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

import math
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
    """Measurement environment: noise floor and its sweep-to-sweep spread.

    The floor must be finite and the spread finite and non-negative:
    a NaN floor would make every amplitude NaN, and a non-negative
    spread keeps :meth:`noise_w` non-decreasing in its draws, which the
    analyzer's readout relies on to bound every sweep's noise by the
    noise of its largest draw.
    """

    noise_floor_dbm: float = -95.0
    noise_sigma_db: float = 1.0

    def __post_init__(self) -> None:
        floor = self.noise_floor_dbm
        if not math.isfinite(floor):
            raise ValueError(f"noise_floor_dbm must be finite, got {floor}")
        sigma = self.noise_sigma_db
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(
                f"noise_sigma_db must be finite and non-negative, got {sigma}"
            )

    def noise_power_w(self) -> float:
        """Mean noise power per RBW bin, in watts."""
        return 1.0e-3 * 10.0 ** (self.noise_floor_dbm / 10.0)

    def noise_w(self, normals: np.ndarray) -> np.ndarray:
        """Noise power in watts of standard-normal draws.

        Each draw is a sweep-to-sweep deviation of the floor, in units
        of ``noise_sigma_db``.  The dB value maps to watts element by
        element, so an array gathered from a block of draws converts
        to the same bits as those elements of the converted block; a
        numpy scalar can differ in the last bit.
        """
        db = self.noise_floor_dbm + self.noise_sigma_db * normals
        return 1.0e-3 * 10.0 ** (db / 10.0)

    def sample_noise_w(
        self, shape, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-bin noise power draws, one row per sweep.

        The :meth:`noise_w` of ``rng.standard_normal(shape)``.  The
        normal draws fill ``shape`` in C order, so a ``(sweeps, bins)``
        call returns the same values, and leaves ``rng`` in the same
        state, as ``sweeps`` successive ``(bins,)`` calls; the
        analyzer's RMS-of-N readout draws its sweeps as one such block
        and converts only the bins where a sweep's maximum can land.
        """
        return self.noise_w(rng.standard_normal(shape))
