"""Fitness functions: what the GA maximizes.

The paper's key move is replacing direct voltage feedback with the
spectrum analyzer's EM amplitude (RMS of 30 sweeps of the band maximum,
Section 3.1b).  The voltage-feedback variants (maximum droop and
peak-to-peak as seen by the OC-DSO or a bench probe) are kept for
validation and the ``a72OC-DSO`` / ``amdOsc`` baselines of Table 2.

Every fitness callable returns a :class:`FitnessEvaluation` carrying
side measurements (dominant frequency, droop, IPC, loop frequency) that
the per-generation records of Figs. 7/12/17 plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.chain import ChainItemResult
from repro.cpu.program import LoopProgram
from repro.em.radiation import DieRadiator
from repro.instruments.oscilloscope import Oscilloscope
from repro.instruments.probes import DifferentialProbe
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.platforms.base import Cluster


@dataclass
class FitnessEvaluation:
    """Score plus the side measurements recorded per individual."""

    score: float
    dominant_frequency_hz: float
    max_droop_v: float
    peak_to_peak_v: float
    ipc: float
    loop_frequency_hz: float

    def __float__(self) -> float:
        return self.score


def _common_metrics(
    run: ChainItemResult, band: Tuple[float, float]
) -> Tuple[float, float, float, float]:
    try:
        dominant = run.response.dominant_frequency_hz(band)
    except ValueError:
        dominant = 0.0
    return (
        dominant,
        run.max_droop,
        run.peak_to_peak,
        run.ipc,
    )


@dataclass
class ClusterFitness:
    """Bind a ``(cluster, program)`` fitness to one cluster.

    The GA engine expects a single-argument ``program -> evaluation``
    callable.  Using this dataclass instead of a lambda keeps the bound
    fitness picklable, so ``GAConfig.workers > 1`` can ship it to
    worker processes.
    """

    fitness: Callable[[Cluster, LoopProgram], "FitnessEvaluation"]
    cluster: Cluster

    def __call__(self, program: LoopProgram) -> "FitnessEvaluation":
        return self.fitness(self.cluster, program)

    def evaluate_batch(
        self, programs: Sequence[LoopProgram]
    ) -> List["FitnessEvaluation"]:
        """Evaluate a batch, in order.

        Delegates to the wrapped fitness's batched path (one chain call
        for the whole shard) when it has one; falls back to a plain
        loop otherwise.
        """
        batch = getattr(self.fitness, "evaluate_batch", None)
        if batch is not None:
            return list(batch(self.cluster, programs))
        return [self.fitness(self.cluster, p) for p in programs]

    # Checkpoint protocol: delegate measurement-chain RNG state to the
    # wrapped fitness so GA checkpoints capture it (see GACheckpoint).
    def fitness_state(self) -> Optional[dict]:
        capture = getattr(self.fitness, "fitness_state", None)
        return capture() if capture is not None else None

    def restore_fitness_state(self, state: Optional[dict]) -> None:
        restore = getattr(self.fitness, "restore_fitness_state", None)
        if restore is not None:
            restore(state)

    # Warm-cache protocol: persistent GA workers (repro.ga.parallel)
    # call warm_up() once at pool start and session_stats() after each
    # shard; delegate both.
    def warm_up(self) -> Optional[dict]:
        warm = getattr(self.fitness, "warm_up", None)
        return warm() if warm is not None else None

    def session_stats(self) -> Optional[dict]:
        stats = getattr(self.fitness, "session_stats", None)
        return stats() if stats is not None else None


@dataclass
class EMAmplitudeFitness:
    """Maximize the spectrum analyzer's banded EM amplitude.

    The measurement chain is: run the individual on the cluster,
    radiate the die-current harmonics, receive through antenna +
    coupling, and score the RMS-of-30-sweeps band maximum.
    """

    analyzer: SpectrumAnalyzer
    radiator: DieRadiator = None
    band: Tuple[float, float] = (50.0e6, 200.0e6)
    samples: int = 30
    active_cores: Optional[int] = None
    # Optional cache-miss nondeterminism (the Section 3.3 ablation):
    # with a cache model attached, every evaluation of the same
    # individual produces a different noisy score.
    cache_model: object = None
    memory_rng: object = None
    # Optional shared repro.chain.SimulationSession; None builds a
    # private one lazily.  Sessions are process-local: pickling for
    # worker dispatch drops it so each worker warms its own.
    session: object = None
    # Optional repro.faults.FaultInjector armed at the chain's stage
    # boundaries.  Unlike the session it survives pickling, so worker
    # processes inherit the fault plan (with fresh visit counters).
    fault_injector: object = None

    def __post_init__(self) -> None:
        if self.radiator is None:
            self.radiator = DieRadiator()
        if self.cache_model is not None and self.memory_rng is None:
            raise ValueError("cache_model requires a memory_rng")

    def _chain_path(self):
        path = getattr(self, "_path", None)
        if path is None:
            from repro.chain import SignalPath

            path = SignalPath.em_chain(
                self.radiator,
                self.analyzer,
                session=self.session,
                injector=self.fault_injector,
            )
            self._path = path
        return path

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_path", None)
        state["session"] = None
        return state

    def warm_up(self) -> Optional[dict]:
        """Build the session and the chain, once.

        Persistent GA workers call this at pool start: the
        :class:`~repro.chain.session.SimulationSession` (created here
        if the pickling round-trip dropped it) and the stage pipeline
        exist before the first shard arrives.  Building them draws no
        random numbers; the analyzer's noise stream is untouched
        (bit-identity contract).  Returns the session's stats snapshot
        for the ``worker_warmup`` event.
        """
        if self.session is None:
            from repro.chain import SimulationSession

            self.session = SimulationSession()
        self._chain_path()
        return self.session.stats.snapshot()

    def session_stats(self) -> Optional[dict]:
        """Current session cache counters (None before any session).

        Reads through the built chain when one exists: with
        ``session=None`` the :class:`SignalPath` owns a private
        session, and that is the one doing the caching.
        """
        path = getattr(self, "_path", None)
        if path is not None:
            return path.session.stats.snapshot()
        if self.session is None:
            return None
        return self.session.stats.snapshot()

    # Checkpoint protocol: the spectrum analyzer's noise RNG advances
    # with every fresh measurement, so bit-identical resume requires
    # carrying its state across the checkpoint boundary.
    def fitness_state(self) -> dict:
        state = {"analyzer_rng": self.analyzer.rng.bit_generator.state}
        if self.memory_rng is not None:
            state["memory_rng"] = self.memory_rng.bit_generator.state
        return state

    def restore_fitness_state(self, state: Optional[dict]) -> None:
        if not state:
            return
        if "analyzer_rng" in state:
            self.analyzer.rng.bit_generator.state = state["analyzer_rng"]
        if "memory_rng" in state and self.memory_rng is not None:
            self.memory_rng.bit_generator.state = state["memory_rng"]

    def __call__(
        self, cluster: Cluster, program: LoopProgram
    ) -> FitnessEvaluation:
        return self.evaluate_batch(cluster, [program])[0]

    def evaluate_batch(
        self, cluster: Cluster, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        """Score a batch of programs with one chain call.

        Results (and RNG stream consumption, per generator) are
        bit-identical to evaluating the programs one at a time: the
        execute stage draws only from ``memory_rng`` and the receive
        stage only from the analyzer RNG, each in batch order.
        """
        from repro.chain import ChainItem, ChainRequest

        request = ChainRequest(
            cluster=cluster,
            items=[
                ChainItem(
                    program=p,
                    active_cores=self.active_cores,
                    cache_model=self.cache_model,
                    memory_rng=self.memory_rng,
                )
                for p in programs
            ],
            band=self.band,
            samples=self.samples,
            want_amplitude=True,
            want_trace=False,
        )
        result = self._chain_path().run(request)
        return [self._from_chain_item(item) for item in result.items]

    def _from_chain_item(self, item) -> FitnessEvaluation:
        # The paper reports the GA's dominant frequency from the SA peak
        # (the chain's banded emission peak when no trace was swept);
        # the response's own dominant frequency stands in only when the
        # chain reports no peak.
        dominant = item.peak_frequency_hz or 0.0
        if not dominant:
            try:
                dominant = item.response.dominant_frequency_hz(self.band)
            except ValueError:
                dominant = 0.0
        return FitnessEvaluation(
            score=item.amplitude_w,
            dominant_frequency_hz=dominant,
            max_droop_v=item.max_droop,
            peak_to_peak_v=item.peak_to_peak,
            ipc=item.ipc,
            loop_frequency_hz=item.loop_frequency_hz,
        )


@dataclass
class MaxDroopFitness:
    """Maximize the scope-measured maximum voltage droop (OC-DSO path)."""

    oscilloscope: Oscilloscope
    band: Tuple[float, float] = (50.0e6, 200.0e6)
    active_cores: Optional[int] = None
    capture_s: float = 2.0e-6

    def __call__(
        self, cluster: Cluster, program: LoopProgram
    ) -> FitnessEvaluation:
        run = cluster.run(program, active_cores=self.active_cores)
        capture = self.oscilloscope.capture(run.response, self.capture_s)
        dominant, droop, p2p, ipc = _common_metrics(run, self.band)
        return FitnessEvaluation(
            score=capture.max_droop(),
            dominant_frequency_hz=dominant,
            max_droop_v=droop,
            peak_to_peak_v=p2p,
            ipc=ipc,
            loop_frequency_hz=run.loop_frequency_hz,
        )


@dataclass
class PeakToPeakFitness:
    """Maximize probe-measured peak-to-peak amplitude (Kelvin-pad path)."""

    probe: DifferentialProbe
    band: Tuple[float, float] = (50.0e6, 200.0e6)
    active_cores: Optional[int] = None
    capture_s: float = 2.0e-6

    def __call__(
        self, cluster: Cluster, program: LoopProgram
    ) -> FitnessEvaluation:
        run = cluster.run(program, active_cores=self.active_cores)
        capture = self.probe.capture(run.response, self.capture_s)
        dominant, droop, p2p, ipc = _common_metrics(run, self.band)
        return FitnessEvaluation(
            score=capture.peak_to_peak(),
            dominant_frequency_hz=dominant,
            max_droop_v=droop,
            peak_to_peak_v=p2p,
            ipc=ipc,
            loop_frequency_hz=run.loop_frequency_hz,
        )
