"""Batch types for the measurement chain.

A :class:`ChainRequest` describes N measurement items -- each a program
(or program mix) at a cluster operating point, optionally with the
timing jitter of a real workload -- and what outputs the caller wants.
A :class:`ChainResult` carries the per-item artifacts of every stage
that ran: execution, rail response, emission spectrum, received signal
power, amplitude metric, displayed trace.

Operating points are resolved against the live cluster state when the
request enters the :class:`repro.chain.SignalPath`; the chain itself
never mutates the cluster, so a batched sweep leaves the platform
exactly as it found it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.multicore import ClusterExecution
    from repro.cpu.program import LoopProgram
    from repro.pdn.steady_state import PeriodicResponse
    from repro.em.radiation import EmissionSpectrum
    from repro.instruments.spectrum_analyzer import SpectrumTrace
    from repro.platforms.base import Cluster


@dataclass(frozen=True)
class OperatingPoint:
    """Per-item overrides of the cluster operating state.

    ``None`` fields fall back to the cluster's live state at request
    time, so a plain measurement needs no explicit point and a
    resonance sweep only overrides ``clock_hz``.
    """

    clock_hz: Optional[float] = None
    voltage: Optional[float] = None
    powered_cores: Optional[int] = None


@dataclass(frozen=True)
class TimingJitter:
    """Data-dependent timing variation of a real (non-virus) workload.

    SPEC-like programs do not stay phase-coherent from one loop
    iteration to the next.  The current stage models this on the
    scaled trace: it is smoothed over ``smooth_cycles`` cycles, its
    fluctuation around the mean is scaled by ``compression``, and it is
    tiled ``tiles`` times with random phase shifts drawn from
    ``np.random.default_rng(seed)``, which destroys the coherent
    harmonic build-up a perfectly periodic loop enjoys at the PDN
    resonance.  dI/dt viruses are deliberately deterministic (Section
    3.3) and carry no jitter.

    The phase shifts depend only on ``seed``, ``tiles`` and the trace
    length, so :meth:`gather_index` draws them once per length and
    caches the resulting read-only index on the (immutable) instance.
    """

    seed: int
    tiles: int = 16
    smooth_cycles: int = 12
    compression: float = 1.0

    def __post_init__(self) -> None:
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not self.tiles >= 1:
            raise ValueError(f"tiles must be >= 1, got {self.tiles!r}")
        if not self.smooth_cycles >= 1:
            raise ValueError(
                f"smooth_cycles must be >= 1, got {self.smooth_cycles!r}"
            )
        if not (math.isfinite(self.compression) and self.compression >= 0):
            raise ValueError(
                "compression must be finite and >= 0, got "
                f"{self.compression!r}"
            )

    def gather_index(self, n: int) -> np.ndarray:
        """Read-only index that tiles an ``n``-sample trace with this
        jitter's random phase shifts, in one gather.

        ``trace[gather_index(n)]`` equals the concatenation of
        ``np.roll(trace, s)`` over the ``tiles`` shifts ``s`` drawn one
        at a time from ``np.random.default_rng(seed)``: element ``i``
        of a tile rolled by ``s`` is ``trace[(i - s) % n]``.
        """
        indices = self.__dict__.get("_gather_indices")
        if indices is None:
            indices = {}
            object.__setattr__(self, "_gather_indices", indices)
        index = indices.get(n)
        if index is None:
            rng = np.random.default_rng(self.seed)
            shifts = np.array(
                [int(rng.integers(n)) for _ in range(self.tiles)]
            )
            index = (np.arange(n) - shifts[:, None]) % n
            index = index.reshape(-1)
            index.flags.writeable = False
            indices[n] = index
        return index


@dataclass
class ChainItem:
    """One measurement: a program (or mix) at one operating point.

    Exactly one of ``program`` / ``programs`` must be set.  Supplying
    ``cache_model`` (with ``memory_rng``) selects the
    cache-nondeterministic execution mode, where memory accesses beyond
    the L1-resident window miss with random penalties (the environment
    the paper's virus template avoids, Section 3.3); ``programs``
    selects the heterogeneous mode, one program per active core.
    ``jitter`` applies :class:`TimingJitter` to the item's current.
    """

    program: Optional["LoopProgram"] = None
    programs: Optional[Sequence["LoopProgram"]] = None
    operating_point: OperatingPoint = field(default_factory=OperatingPoint)
    active_cores: Optional[int] = None
    iterations: int = 16
    phase_offsets: Optional[Sequence[int]] = None
    cache_model: object = None
    memory_rng: Optional[np.random.Generator] = None
    jitter: Optional[TimingJitter] = None

    @property
    def mode(self) -> str:
        if self.programs is not None:
            return "mixed"
        if self.cache_model is not None:
            return "nondeterministic"
        return "single"

    def validate(self) -> None:
        if (self.program is None) == (self.programs is None):
            raise ValueError(
                "ChainItem needs exactly one of program / programs"
            )
        if self.cache_model is not None:
            if self.programs is not None:
                raise ValueError(
                    "cache nondeterminism applies to single-program items"
                )
            if self.memory_rng is None:
                raise ValueError("cache_model requires memory_rng")


@dataclass
class ChainRequest:
    """N chain items against one cluster, plus readout settings.

    ``want_amplitude`` / ``want_trace`` gate the analyzer readout: the
    GA fitness wants the amplitude metric only, ``measure()`` wants
    both, a champion re-measurement wants neither (response only).
    Stages downstream of what is wanted are skipped entirely, which
    also keeps the analyzer RNG streams identical to the legacy
    per-call helpers they replace.
    """

    cluster: "Cluster"
    items: Sequence[ChainItem]
    band: Tuple[float, float] = (50.0e6, 200.0e6)
    samples: int = 30
    want_amplitude: bool = True
    want_trace: bool = True

    @property
    def want_emission(self) -> bool:
        return self.want_amplitude or self.want_trace


@dataclass
class ChainItemResult:
    """Everything one item produced on its way through the chain.

    The run metrics come from the item's clock-free execution record
    and its clock, by one formula for every item mode.
    """

    item: ChainItem
    clock_hz: float
    voltage: float
    powered_cores: int
    active_cores: int
    execution: Optional["ClusterExecution"] = None
    response: Optional["PeriodicResponse"] = None
    emission: Optional["EmissionSpectrum"] = None
    signal_w: Optional[np.ndarray] = None
    amplitude_w: Optional[float] = None
    trace: Optional["SpectrumTrace"] = None
    peak_frequency_hz: Optional[float] = None

    @property
    def program(self) -> Optional["LoopProgram"]:
        return self.item.program

    @property
    def ipc(self) -> float:
        return self.execution.ipc

    @property
    def loop_frequency_hz(self) -> float:
        return self.clock_hz / self.execution.loop_cycles

    @property
    def loop_period_s(self) -> float:
        return self.execution.loop_cycles / self.clock_hz

    @property
    def max_droop(self) -> float:
        return self.response.max_droop

    @property
    def peak_to_peak(self) -> float:
        return self.response.peak_to_peak


@dataclass
class ChainResult:
    """Outputs of one batched chain run."""

    items: List[ChainItemResult]
    stage_times_s: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> ChainItemResult:
        return self.items[index]

    def __iter__(self):
        return iter(self.items)
