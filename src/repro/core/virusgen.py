"""VirusGenerator: GA-driven dI/dt stress-test generation.

Binds the GA engine to a cluster through either the EM receive chain
(the paper's contribution) or direct voltage feedback (the validation
baseline available only on platforms with OC-DSO / Kelvin pads).  The
orchestration follows Section 3.2's workstation/target split: each
individual is compiled and launched on the target, measured from the
workstation, then killed.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.core.characterizer import EMCharacterizer, FIRST_ORDER_BAND
from repro.core.results import GARunSummary
from repro.cpu.isa import InstructionSpec
from repro.cpu.program import LoopProgram
from repro.ga.engine import (
    GACheckpoint,
    GAConfig,
    GAEngine,
    GenerationRecord,
)
from repro.ga.fitness import (
    ClusterFitness,
    EMAmplitudeFitness,
    FitnessEvaluation,
    MaxDroopFitness,
    PeakToPeakFitness,
)
from repro.instruments.oscilloscope import Oscilloscope
from repro.instruments.probes import DifferentialProbe
from repro.obs.context import RunContext
from repro.obs.events import NULL_LOG, EventLog
from repro.platforms.base import Cluster, NoiseVisibility


class VirusGenerator:
    """Generates dI/dt viruses for a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        characterizer: Optional[EMCharacterizer] = None,
        config: GAConfig = GAConfig(),
        pool: Optional[Sequence[InstructionSpec]] = None,
        active_cores: Optional[int] = None,
        event_log: Optional[EventLog] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 5,
        retry_policy=None,
        fault_injector=None,
    ):
        self.cluster = cluster
        self.characterizer = characterizer or EMCharacterizer()
        self.config = config
        self.pool = pool
        self.active_cores = active_cores
        self.event_log = event_log if event_log is not None else NULL_LOG
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        #: Optional repro.faults resilience knobs: the policy retries
        #: transient measurement faults and checkpoint writes, the
        #: injector schedules deterministic chaos faults.
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------
    def run(
        self,
        ctx: RunContext,
        band: Tuple[float, float] = FIRST_ORDER_BAND,
        samples: Optional[int] = None,
        progress: Optional[Callable[[GenerationRecord], None]] = None,
        resume: Optional[GACheckpoint] = None,
    ) -> GARunSummary:
        """Unified entry point: EM-virus generation under ``ctx``.

        The context supplies the cluster, the GA seed, the worker count
        and the event log; the generator's :class:`GAConfig` supplies
        the remaining hyperparameters.  Returns a
        JSON-round-trippable :class:`GARunSummary`.
        """
        runner = VirusGenerator(
            cluster=ctx.cluster,
            characterizer=self.characterizer,
            config=replace(
                self.config, seed=ctx.seed, workers=ctx.workers
            ),
            pool=self.pool,
            active_cores=ctx.active_cores,
            event_log=ctx.event_log,
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            retry_policy=self.retry_policy,
            fault_injector=self.fault_injector,
        )
        return runner.generate_em_virus(
            progress=progress, band=band, samples=samples, resume=resume
        )

    # ------------------------------------------------------------------
    def _run_ga(
        self,
        fitness: Callable[[LoopProgram], FitnessEvaluation],
        metric: str,
        progress: Optional[Callable[[GenerationRecord], None]],
        resume: Optional[GACheckpoint] = None,
    ) -> GARunSummary:
        self.event_log.emit(
            "virus_run_start",
            cluster=self.cluster.name,
            metric=metric,
            resumed=resume is not None,
        )
        engine = GAEngine(
            fitness,
            config=self.config,
            pool=self.pool,
            retry_policy=self.retry_policy,
            fault_injector=self.fault_injector,
        )
        result = engine.run(
            self.cluster.spec.isa,
            progress=progress,
            event_log=self.event_log,
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            resume=resume,
        )
        best = result.best
        # Re-measure the winning individual (the paper re-runs the best
        # individuals after the search to collect voltage metrics).
        # Response-only chain request: no analyzer readout, so the
        # analyzer RNG is untouched.
        from repro.chain import ChainItem, ChainRequest

        request = ChainRequest(
            cluster=self.cluster,
            items=[
                ChainItem(
                    program=best.best_program,
                    active_cores=self.active_cores,
                )
            ],
            band=self.characterizer.band,
            want_amplitude=False,
            want_trace=False,
        )
        run = self.characterizer.chain_path().run(
            request, event_log=self.event_log
        ).items[0]
        try:
            dominant = run.response.dominant_frequency_hz(
                self.characterizer.band
            )
        except ValueError:
            dominant = 0.0
        summary = GARunSummary(
            cluster_name=self.cluster.name,
            metric=metric,
            ga_result=result,
            virus=best.best_program,
            dominant_frequency_hz=dominant,
            max_droop_v=run.max_droop,
            peak_to_peak_v=run.peak_to_peak,
            ipc=run.ipc,
            loop_frequency_hz=run.loop_frequency_hz,
            loop_period_s=run.loop_period_s,
        )
        self.event_log.emit(
            "virus_run_end",
            cluster=self.cluster.name,
            metric=metric,
            best_generation=best.generation,
            best_score=best.best.score,
            dominant_frequency_hz=dominant,
            max_droop_v=run.max_droop,
            ipc=run.ipc,
        )
        return summary

    # ------------------------------------------------------------------
    def narrowed_band_from_sweep(
        self,
        half_width_hz: float = 10.0e6,
        clocks_hz: Optional[Sequence[float]] = None,
        samples_per_point: int = 5,
    ) -> Tuple[float, float]:
        """Constrain the GA's measurement band around a quick sweep.

        Section 5.3(b): the 15-minute fast sweep locates the resonance,
        and the GA then only measures a narrow band around it --
        cutting per-individual spectrum-analyzer time (and hence total
        search time) by the span ratio.
        """
        from repro.core.resonance import ResonanceSweep

        sweep = ResonanceSweep(
            self.characterizer, samples_per_point=samples_per_point
        )
        result = sweep.run(
            RunContext(
                cluster=self.cluster,
                event_log=self.event_log,
                active_cores=self.active_cores,
            ),
            clocks_hz=clocks_hz,
        )
        center = result.resonance_hz()
        low, high = FIRST_ORDER_BAND
        return (
            max(center - half_width_hz, low),
            min(center + half_width_hz, high),
        )

    def generate_em_virus(
        self,
        progress: Optional[Callable[[GenerationRecord], None]] = None,
        band: Tuple[float, float] = FIRST_ORDER_BAND,
        samples: Optional[int] = None,
        resume: Optional[GACheckpoint] = None,
    ) -> GARunSummary:
        """EM-amplitude-driven virus generation: works on ANY cluster.

        This is the paper's headline capability -- no voltage
        visibility required (the Cortex-A53 case).  ``resume`` continues
        a previously checkpointed campaign (see
        :func:`repro.io.serialization.load_checkpoint`).
        """
        fitness_fn = EMAmplitudeFitness(
            analyzer=self.characterizer.analyzer,
            radiator=self.characterizer.radiator,
            band=band,
            samples=samples or self.characterizer.samples,
            active_cores=self.active_cores,
            # Serial evaluation shares the characterizer's session, so
            # GA generations and the champion re-measurement reuse the
            # same execution and transfer-function caches.  Worker
            # dispatch drops it in pickling; each worker warms its own.
            session=self.characterizer.session,
            fault_injector=self.fault_injector,
        )
        return self._run_ga(
            ClusterFitness(fitness_fn, self.cluster),
            metric="em-amplitude",
            progress=progress,
            resume=resume,
        )

    def generate_droop_virus(
        self,
        oscilloscope: Oscilloscope,
        progress: Optional[Callable[[GenerationRecord], None]] = None,
    ) -> GARunSummary:
        """Voltage-feedback virus via the OC-DSO (a72OC-DSO baseline).

        Requires OC-DSO visibility; raises on clusters without it.
        """
        if self.cluster.spec.visibility is not NoiseVisibility.OC_DSO:
            raise ValueError(
                f"{self.cluster.name} has no OC-DSO; use generate_em_virus"
            )
        fitness_fn = MaxDroopFitness(
            oscilloscope=oscilloscope, active_cores=self.active_cores
        )
        return self._run_ga(
            ClusterFitness(fitness_fn, self.cluster),
            metric="oc-dso-droop",
            progress=progress,
        )

    def generate_oscilloscope_virus(
        self,
        probe: DifferentialProbe,
        progress: Optional[Callable[[GenerationRecord], None]] = None,
    ) -> GARunSummary:
        """Voltage-feedback virus via Kelvin pads (amdOsc baseline)."""
        if self.cluster.spec.visibility is not NoiseVisibility.KELVIN_PADS:
            raise ValueError(
                f"{self.cluster.name} has no Kelvin pads; "
                "use generate_em_virus"
            )
        fitness_fn = PeakToPeakFitness(
            probe=probe, active_cores=self.active_cores
        )
        return self._run_ga(
            ClusterFitness(fitness_fn, self.cluster),
            metric="kelvin-peak-to-peak",
            progress=progress,
        )
