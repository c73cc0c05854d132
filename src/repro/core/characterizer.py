"""EMCharacterizer: the antenna-side view of one or more clusters.

The characterizer owns the receive chain (radiator model per domain,
antenna, coupling, spectrum analyzer) and measures whatever the
clusters are currently executing.  It is deliberately *one-way*: no
electrical connection to the platform, only the radiated spectrum --
the non-intrusiveness the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.chain import (
    ChainItem,
    ChainItemResult,
    ChainRequest,
    SignalPath,
    SimulationSession,
)
from repro.cpu.program import LoopProgram
from repro.core.results import MeasurementResult, MultiDomainSpectrum
from repro.em.radiation import DieRadiator, EmissionSpectrum, combine_emissions
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer, SpectrumTrace
from repro.obs.context import RunContext
from repro.obs.events import NULL_LOG, EventLog
from repro.platforms.base import Cluster

FIRST_ORDER_BAND = (50.0e6, 200.0e6)


@dataclass
class EMMeasurement:
    """One EM measurement of a running program."""

    amplitude_w: float
    peak_frequency_hz: float
    trace: SpectrumTrace
    run: ChainItemResult

    @property
    def loop_frequency_hz(self) -> float:
        return self.run.loop_frequency_hz


class EMCharacterizer:
    """Non-intrusive PDN characterization through EM emanations."""

    def __init__(
        self,
        analyzer: Optional[SpectrumAnalyzer] = None,
        radiator: Optional[DieRadiator] = None,
        band: Tuple[float, float] = FIRST_ORDER_BAND,
        samples: int = 30,
        session: Optional[SimulationSession] = None,
        fault_injector=None,
    ):
        self.analyzer = analyzer or SpectrumAnalyzer()
        self.radiator = radiator or DieRadiator()
        self.band = band
        self.samples = samples
        #: Cross-call cache shared by every measurement this
        #: characterizer performs (and by collaborators that pass it on).
        self.session = session if session is not None else (
            SimulationSession()
        )
        #: Optional repro.faults.FaultInjector armed at every chain
        #: stage boundary of this characterizer's measurements.
        self.fault_injector = fault_injector

    def chain_path(self) -> SignalPath:
        """The measurement chain for the present receive hardware.

        Built per call (stages are tiny stateless objects) so swapping
        ``analyzer`` / ``radiator`` after construction keeps working;
        the expensive state lives in the persistent :attr:`session`.
        """
        return SignalPath.em_chain(
            self.radiator,
            self.analyzer,
            session=self.session,
            injector=self.fault_injector,
        )

    # ------------------------------------------------------------------
    def emission_of(self, run: ChainItemResult) -> EmissionSpectrum:
        """Radiated spectrum of one cluster's steady-state execution."""
        return self.radiator.emission(run.response)

    def measure(
        self,
        cluster: Cluster,
        program: LoopProgram,
        active_cores: Optional[int] = None,
        samples: Optional[int] = None,
    ) -> EMMeasurement:
        """Run ``program`` and measure the banded EM amplitude.

        Thin shim over a one-item :meth:`measure_batch`; pinned
        bit-identical to the historical per-call implementation by
        ``tests/chain/test_equivalence.py``.
        """
        return self.measure_batch(
            cluster, [program], active_cores=active_cores, samples=samples
        )[0]

    def measure_batch(
        self,
        cluster: Cluster,
        programs: Sequence[LoopProgram],
        active_cores: Optional[int] = None,
        samples: Optional[int] = None,
        items: Optional[Sequence[ChainItem]] = None,
        event_log: EventLog = NULL_LOG,
    ) -> Sequence[EMMeasurement]:
        """Measure N programs (or explicit chain ``items``) in one call.

        The whole batch moves through the signal path stage by stage,
        sharing the session caches; results come back in request order
        with the analyzer RNG advanced exactly as N sequential
        :meth:`measure` calls would have advanced it.
        """
        if items is None:
            items = [
                ChainItem(program=p, active_cores=active_cores)
                for p in programs
            ]
        request = ChainRequest(
            cluster=cluster,
            items=items,
            band=self.band,
            samples=samples if samples is not None else self.samples,
            want_amplitude=True,
            want_trace=True,
        )
        result = self.chain_path().run(request, event_log=event_log)
        return [
            EMMeasurement(
                amplitude_w=item.amplitude_w,
                peak_frequency_hz=item.peak_frequency_hz,
                trace=item.trace,
                run=item,
            )
            for item in result.items
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        ctx: RunContext,
        program: Optional[LoopProgram] = None,
        samples: Optional[int] = None,
    ) -> MeasurementResult:
        """Unified entry point: measure ``ctx.cluster`` and return a
        JSON-round-trippable :class:`MeasurementResult`.

        ``program`` defaults to the fixed high/low sweep loop of
        Section 5.3 -- the canonical "point the antenna at it" probe.
        """
        if program is None:
            from repro.workloads.loops import high_low_program

            program = high_low_program(ctx.cluster.spec.isa)
        ctx.event_log.emit(
            "em_measurement_start",
            cluster=ctx.cluster.name,
            program=program.name,
            band_hz=self.band,
        )
        measurement = self.measure(
            ctx.cluster,
            program,
            active_cores=ctx.active_cores,
            samples=samples,
        )
        result = MeasurementResult(
            cluster_name=ctx.cluster.name,
            program_name=program.name,
            amplitude_w=measurement.amplitude_w,
            peak_frequency_hz=measurement.peak_frequency_hz,
            loop_frequency_hz=measurement.loop_frequency_hz,
            band_hz=self.band,
            frequencies_hz=measurement.trace.frequencies_hz,
            power_dbm=measurement.trace.power_dbm,
        )
        ctx.event_log.emit(
            "em_measurement_end",
            cluster=ctx.cluster.name,
            amplitude_w=result.amplitude_w,
            peak_frequency_hz=result.peak_frequency_hz,
            loop_frequency_hz=result.loop_frequency_hz,
        )
        return result

    # ------------------------------------------------------------------
    def monitor_domains(
        self,
        executions: Dict[str, ChainItemResult],
    ) -> MultiDomainSpectrum:
        """Simultaneously observe several voltage domains (Fig. 15).

        ``executions`` maps cluster name -> a steady-state run on that
        cluster.  The antenna receives the superposition; each domain's
        signature is located as the combined trace's peak nearest that
        domain's strongest emission line.
        """
        emissions = {
            name: self.emission_of(run) for name, run in executions.items()
        }
        combined = combine_emissions(emissions.values())
        trace = self.analyzer.sweep(combined)
        peaks: Dict[str, Tuple[float, float]] = {}
        for name, emission in emissions.items():
            banded = emission.band(*self.band)
            f_line, _ = banded.peak()
            if f_line <= 0.0:
                continue
            peaks[name] = (f_line, trace.power_at(f_line))
        return MultiDomainSpectrum(trace=trace, domain_peaks=peaks)

    # ------------------------------------------------------------------
    def spectrum_vs_scope_fft(
        self,
        run: ChainItemResult,
        scope_capture,
        spike_count: int = 4,
    ) -> Dict[str, Sequence[Tuple[float, float]]]:
        """Fig. 9's comparison data: SA spikes vs scope-FFT spikes.

        Returns the top ``spike_count`` spectral lines from both
        instruments so agreement can be checked line-by-line.
        """
        emission = self.emission_of(run)
        trace = self.analyzer.sweep(emission)
        sa_spikes = _top_spikes(
            trace.frequencies_hz, trace.power_dbm, spike_count
        )
        freqs, amps = scope_capture.fft()
        mask = (freqs >= self.band[0]) & (freqs <= self.band[1])
        dso_spikes = _top_spikes(freqs[mask], amps[mask], spike_count)
        return {"spectrum_analyzer": sa_spikes, "oc_dso_fft": dso_spikes}


def _top_spikes(
    freqs: np.ndarray, values: np.ndarray, count: int
) -> Sequence[Tuple[float, float]]:
    """The ``count`` strongest local maxima, strongest first."""
    if freqs.size < 3:
        return [(float(f), float(v)) for f, v in zip(freqs, values)]
    interior = np.flatnonzero(
        (values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:])
    ) + 1
    ranked = interior[np.argsort(values[interior])[::-1][:count]]
    return [(float(freqs[i]), float(values[i])) for i in sorted(ranked)]
