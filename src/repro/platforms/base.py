"""Cluster abstraction: cores + voltage domain + PDN + visibility.

A :class:`Cluster` is the unit the methodology targets: a set of
identical cores sharing one voltage rail (the A72 pair, the A53 quad,
the Athlon quad).  It owns the mutable platform state the paper's
experiments manipulate -- clock frequency, supply voltage, how many
cores are powered -- and executes loop programs into steady-state rail
responses: ``run`` is one response-only call of the measurement chain
(:mod:`repro.chain`) through a session the cluster owns.

Dynamic current scales with both clock frequency (charge per cycle is
fixed, so amperes scale with cycles per second) and supply voltage
(switching current is proportional to V), which is what makes the
fast resonance sweep of Section 5.3 work: lowering the clock modulates
the loop frequency *and* shrinks the current amplitude, yet the
resonance peak dominates.

Inside a :meth:`Cluster.memoized` scope, ``run`` and ``run_trace``
solve each distinct input once per operating point: a V_MIN experiment
repeats its descents, and only the failure classification between the
steps is random.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.chain import (
    ChainItem,
    ChainItemResult,
    ChainRequest,
    CurrentStage,
    ExecuteStage,
    PDNStage,
    SignalPath,
    SimulationSession,
    TimingJitter,
)
from repro.cpu.current import CurrentModel
from repro.cpu.isa import InstructionSet
from repro.cpu.pipeline import Pipeline
from repro.cpu.program import LoopProgram
from repro.pdn.models import PDNModel, PDNParameters
from repro.pdn.steady_state import PeriodicResponse


class ClusterState(NamedTuple):
    """One cluster operating point: the mutable platform state that
    affects the measurement chain.  Part of every memo key of
    :meth:`Cluster.memoized`."""

    clock_hz: float
    voltage: float
    powered_cores: int


class NoiseVisibility(enum.Enum):
    """What direct voltage-noise measurement the platform supports."""

    NONE = "none"
    OC_DSO = "oc-dso"
    KELVIN_PADS = "on-package pads"


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a CPU cluster (one row of Table 1)."""

    name: str
    isa: InstructionSet
    num_cores: int
    microarchitecture: str
    nominal_voltage: float
    nominal_clock_hz: float
    clock_step_hz: float
    min_clock_hz: float
    technology_nm: int
    visibility: NoiseVisibility
    has_scl: bool
    pdn_params: PDNParameters
    current_model: CurrentModel
    uncore_current_a: float = 0.1

    def allowed_clocks_hz(self) -> Tuple[float, ...]:
        """Clock points the platform multiplier can reach, high to low."""
        clocks = []
        f = self.nominal_clock_hz
        while f >= self.min_clock_hz - 1.0:
            clocks.append(f)
            f -= self.clock_step_hz
        return tuple(clocks)


class Cluster:
    """Stateful cluster: the device under test.

    The constructor takes the static spec plus a pipeline factory so
    that in-order and out-of-order models plug in uniformly.
    """

    #: Process-wide monotonic source for :attr:`uid` tokens.
    _uid_counter = itertools.count()

    def __init__(self, spec: ClusterSpec, pipeline: Pipeline):
        self.spec = spec
        self._pipeline = pipeline
        self._pdn = PDNModel(spec.pdn_params)
        self._clock_hz = spec.nominal_clock_hz
        self._voltage = spec.nominal_voltage
        self._powered_cores = spec.num_cores
        # The multiplier-reachable clocks, ascending, for validate_clock.
        self._clocks_ascending = sorted(spec.allowed_clocks_hz())
        # Stable identity token for cache keys.  Unlike id(self), a uid
        # is never reused after this cluster is garbage collected, so a
        # session outliving the cluster cannot alias a newer object's
        # entries onto the dead one's (audit rule R3).
        self.uid = next(Cluster._uid_counter)
        # The response-only chain behind run and run_trace.  Its
        # session is this cluster's only cache of schedules and
        # transfer-function grids, and it is bounded.
        self._path = SignalPath(
            [ExecuteStage(), CurrentStage(), PDNStage()],
            session=SimulationSession(),
        )
        # Results of run and run_trace by input and operating point,
        # while a memoized() scope is open; None outside one.
        self._memo: Optional[Dict[tuple, object]] = None

    # ------------------------------------------------------------------
    # platform controls (SCP / Overdrive equivalents)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def clock_hz(self) -> float:
        return self._clock_hz

    @property
    def voltage(self) -> float:
        return self._voltage

    @property
    def powered_cores(self) -> int:
        return self._powered_cores

    @property
    def pdn(self) -> PDNModel:
        return self._pdn

    @property
    def pipeline(self) -> Pipeline:
        """The core pipeline model (shared by every core in the cluster)."""
        return self._pipeline

    def state(self) -> ClusterState:
        """The present operating point as a hashable cache key."""
        return ClusterState(
            clock_hz=self._clock_hz,
            voltage=self._voltage,
            powered_cores=self._powered_cores,
        )

    def validate_clock(self, clock_hz: float) -> None:
        """Raise unless ``clock_hz`` is within 1 Hz of a
        multiplier-reachable point."""
        clocks = self._clocks_ascending
        # The nearest reachable point is one of the two around clock_hz.
        i = bisect.bisect_left(clocks, clock_hz)
        nearest = clocks[max(i - 1, 0):i + 1]
        if not any(abs(clock_hz - f) < 1.0 for f in nearest):
            raise ValueError(
                f"{self.name}: clock {clock_hz / 1e6:.0f} MHz not reachable; "
                f"step is {self.spec.clock_step_hz / 1e6:.0f} MHz"
            )

    def validate_voltage(self, volts: float) -> None:
        if not 0.4 <= volts <= 1.6:
            raise ValueError(f"{self.name}: voltage {volts} V out of range")

    def validate_powered_cores(self, powered_cores: int) -> None:
        if not 1 <= powered_cores <= self.spec.num_cores:
            raise ValueError(
                f"{self.name}: powered cores must be 1..{self.spec.num_cores}"
            )

    def set_clock(self, clock_hz: float) -> None:
        """Set core clock; must be a multiplier-reachable point."""
        self.validate_clock(clock_hz)
        self._clock_hz = clock_hz

    def set_voltage(self, volts: float) -> None:
        self.validate_voltage(volts)
        self._voltage = volts

    def power_gate(self, powered_cores: int) -> None:
        """Leave ``powered_cores`` cores powered; gate the rest off."""
        self.validate_powered_cores(powered_cores)
        self._powered_cores = powered_cores

    def reset(self) -> None:
        """Back to nominal V/F with all cores powered."""
        self._clock_hz = self.spec.nominal_clock_hz
        self._voltage = self.spec.nominal_voltage
        self._powered_cores = self.spec.num_cores

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def memoized(self) -> Iterator[None]:
        """Solve each distinct ``run`` / ``run_trace`` input once while
        the block runs.

        Inside the scope a call whose inputs were already solved at the
        same :meth:`state` reuses that solution instead of running the
        chain again.  ``run`` keys on the program's genome,
        ``active_cores``, ``iterations``, ``phase_offsets`` and
        ``jitter``, and each call still gets its own
        :class:`~repro.chain.ChainItemResult` around the shared
        execution and response; ``run_trace`` keys on the trace's
        bytes and the sample rate, and returns the shared response.
        A response is a deterministic function of those inputs, so
        every result is bit for bit a fresh solve's.

        Scopes nest.  The outermost one drops the memo when it exits,
        also when the block raises, so the memo holds what one
        experiment revisits and no more:
        :meth:`repro.stability.vmin.VminTester.run` opens one per
        workload, around its nominal run and every descent.
        """
        if self._memo is not None:
            yield
            return
        self._memo = {}
        try:
            yield
        finally:
            self._memo = None

    def current_scale(self, clock_hz: float, voltage: float) -> float:
        """Dynamic-current scaling for an operating point.

        The chain layer passes explicit per-item values so a batched
        sweep never mutates the cluster.
        """
        return (clock_hz / self.spec.nominal_clock_hz) * (
            voltage / self.spec.nominal_voltage
        )

    def run(
        self,
        program: LoopProgram,
        active_cores: Optional[int] = None,
        phase_offsets: Optional[Sequence[int]] = None,
        iterations: int = 16,
        jitter: Optional[TimingJitter] = None,
    ) -> ChainItemResult:
        """Execute ``program`` on the cluster and solve the rail response.

        One response-only chain call at the present operating point.
        ``jitter`` models the data-dependent timing variation of a real
        (non-virus) workload (see :class:`repro.chain.TimingJitter`);
        dI/dt viruses are deliberately deterministic (Section 3.3) and
        must pass ``None``.  Inside a :meth:`memoized` scope, a repeat
        of already solved inputs reuses their execution and response.
        """
        item = ChainItem(
            program=program,
            active_cores=active_cores,
            iterations=iterations,
            phase_offsets=phase_offsets,
            jitter=jitter,
        )
        memo = self._memo
        if memo is not None:
            key = (
                "run",
                self.state(),
                program.genome(),
                active_cores,
                iterations,
                None if phase_offsets is None else tuple(phase_offsets),
                jitter,
            )
            solved = memo.get(key)
            if solved is not None:
                return replace(solved, item=item)
        request = ChainRequest(
            cluster=self,
            items=[item],
            want_amplitude=False,
            want_trace=False,
        )
        result = self._path.run(request).items[0]
        if memo is not None:
            memo[key] = result
        return result

    def run_trace(
        self, load_current: np.ndarray, sample_rate_hz: float
    ) -> PeriodicResponse:
        """Rail response to an explicit current trace (SCL, idle, noise).

        Inside a :meth:`memoized` scope, a repeat of an already solved
        trace returns the same response object.
        """
        trace = np.asarray(load_current, dtype=float)
        memo = self._memo
        if memo is not None:
            key = (
                "trace",
                self.state(),
                trace.shape,
                trace.tobytes(),
                sample_rate_hz,
            )
            solved = memo.get(key)
            if solved is not None:
                return solved
        response = self._path.session.pdn_solve(
            self,
            powered_cores=self._powered_cores,
            voltage=self._voltage,
            load_current=trace * (self._voltage / self.spec.nominal_voltage),
            sample_rate_hz=sample_rate_hz,
        )
        if memo is not None:
            memo[key] = response
        return response
