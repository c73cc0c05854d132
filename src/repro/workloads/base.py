"""Workload protocol: anything that can load a cluster's rail."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.chain import ChainItemResult, TimingJitter
from repro.cpu.program import LoopProgram
from repro.pdn.steady_state import PeriodicResponse
from repro.platforms.base import Cluster


@dataclass
class WorkloadRun:
    """Outcome of running a workload on a cluster."""

    workload_name: str
    response: PeriodicResponse
    cluster_run: Optional[ChainItemResult] = None

    @property
    def max_droop(self) -> float:
        return self.response.max_droop

    @property
    def peak_to_peak(self) -> float:
        return self.response.peak_to_peak

    @property
    def min_voltage(self) -> float:
        return self.response.min_voltage


class Workload(abc.ABC):
    """A runnable workload identified by name."""

    def __init__(self, name: str):
        self.name = name

    @abc.abstractmethod
    def run(
        self, cluster: Cluster, active_cores: Optional[int] = None
    ) -> WorkloadRun:
        """Execute on ``cluster`` and return the steady rail response."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ProgramWorkload(Workload):
    """A workload backed by an instruction loop program.

    Benchmarks carry data-dependent timing variation (``jitter_seed``
    set): their loop iterations do not stay phase-coherent, so no
    resonant build-up occurs -- the property that separates them from
    deliberately deterministic dI/dt viruses.  Pass ``jitter_seed=None``
    for virus-style deterministic execution.  The four jitter settings
    become one :class:`repro.chain.TimingJitter` on every run.
    """

    def __init__(
        self,
        name: str,
        program: LoopProgram,
        jitter_seed: Optional[int] = 77,
        jitter_tiles: int = 16,
        jitter_smooth_cycles: int = 12,
        activity_compression: float = 0.5,
    ):
        super().__init__(name)
        self.program = program
        self.jitter = (
            TimingJitter(
                seed=jitter_seed,
                tiles=jitter_tiles,
                smooth_cycles=jitter_smooth_cycles,
                compression=activity_compression,
            )
            if jitter_seed is not None
            else None
        )

    def run(
        self, cluster: Cluster, active_cores: Optional[int] = None
    ) -> WorkloadRun:
        run = cluster.run(
            self.program, active_cores=active_cores, jitter=self.jitter
        )
        return WorkloadRun(
            workload_name=self.name, response=run.response, cluster_run=run
        )


class IdleWorkload(Workload):
    """CPU idle: quiescent current with small random wander.

    A flat trace has zero AC content; real idle shows millivolt-level
    activity from background OS noise, modeled as low-amplitude
    filtered noise on top of the per-core base current.  The noise is
    drawn once per ``(seed, samples)`` and reused by later runs.
    """

    def __init__(
        self,
        name: str = "idle",
        wander_fraction: float = 0.02,
        samples: int = 4096,
        seed: int = 123,
    ):
        super().__init__(name)
        self.wander_fraction = wander_fraction
        self.samples = samples
        self.seed = seed
        self._noise: Optional[Tuple[Tuple[int, int], np.ndarray]] = None

    def _wander(self) -> np.ndarray:
        """The smoothed seeded noise, drawn once per (seed, samples)."""
        key = (self.seed, self.samples)
        if self._noise is None or self._noise[0] != key:
            rng = np.random.default_rng(self.seed)
            noise = rng.standard_normal(self.samples)
            # Smooth to kill content near the resonance band.
            kernel = np.ones(33) / 33.0
            noise = np.convolve(noise, kernel, mode="same")
            noise.flags.writeable = False
            self._noise = (key, noise)
        return self._noise[1]

    def run(
        self, cluster: Cluster, active_cores: Optional[int] = None
    ) -> WorkloadRun:
        base = (
            cluster.spec.current_model.base_current_a
            * cluster.powered_cores
            + cluster.spec.uncore_current_a
        )
        trace = base * (1.0 + self.wander_fraction * self._wander())
        response = cluster.run_trace(trace, cluster.clock_hz)
        return WorkloadRun(workload_name=self.name, response=response)
