"""The six measurement-chain stages.

Each stage transforms every item of a batch in request order:

    execute -> current -> pdn-steady-state -> radiate -> propagate -> receive

Every run of a program goes through these stages: ``Cluster.run`` is a
response-only chain call (execute -> current -> pdn).  The pdn,
propagate and receive stages each make one batch-kernel call per
request (:meth:`SimulationSession.pdn_responses`,
:meth:`SpectrumAnalyzer.spread_lines`,
:meth:`SpectrumAnalyzer.readout`), which work array-at-a-time and
give every item the bits it gets alone; the per-call helpers
(``SimulationSession.pdn_solve``, ``SpectrumAnalyzer.max_amplitude`` /
``sweep``) are one-row calls of the same kernels, so batched results
are bit-identical to a per-call loop whatever the batch holds.  RNG
discipline: the execute stage draws only from per-item ``memory_rng``
generators, the receive stage only from the analyzer RNG, and both
consume items in request order -- so per-stream draw sequences match a
sequential loop even though the stages are batched.  Timing jitter
draws its tile shifts from a generator of its own seed, so it shares
no stream at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

import numpy as np

from repro.chain.session import SimulationSession
from repro.chain.types import ChainItemResult, ChainRequest, TimingJitter
from repro.cpu.multicore import (
    execute_mixed_on_cluster,
    execute_windows_on_cluster,
)
from repro.em.radiation import strongest_lines
from repro.instruments.spectrum_analyzer import SpectrumTrace, peak_markers


@dataclass
class ItemWork:
    """One item's in-flight state while a batch moves through the path."""

    result: ChainItemResult
    load_current: Optional[np.ndarray] = None


@dataclass
class ChainBatch:
    """A resolved request: per-item operating points plus scratch state."""

    request: ChainRequest
    session: SimulationSession
    work: List[ItemWork] = field(default_factory=list)
    #: Per-bin signal power of every item, one row each (propagate).
    signal_w: Optional[np.ndarray] = None

    @property
    def cluster(self):
        return self.request.cluster


class Stage(Protocol):
    """One step of the signal path, applied to a whole batch in place.

    ``drains`` declares which RNG stream families the stage is entitled
    to advance (``"memory"`` for per-item ``memory_rng`` generators,
    ``"analyzer"`` for the analyzer RNG); the determinism audit's draw
    ledger enforces it at every stage boundary.
    """

    name: str
    drains: Tuple[str, ...]

    def run(self, batch: ChainBatch) -> None: ...


def resolve_request(
    request: ChainRequest, session: SimulationSession
) -> ChainBatch:
    """Pin every item to an explicit operating point.

    Per-item overrides are validated with the same checks (and error
    messages) as the platform setters; unset fields fall back to the
    cluster's live state, read once.  After this point the chain never
    touches the cluster's mutable state.
    """
    cluster = request.cluster
    base = cluster.state()
    batch = ChainBatch(request=request, session=session)
    for item in request.items:
        item.validate()
        op = item.operating_point
        clock = base.clock_hz
        voltage = base.voltage
        powered = base.powered_cores
        if op.clock_hz is not None:
            cluster.validate_clock(op.clock_hz)
            clock = op.clock_hz
        if op.voltage is not None:
            cluster.validate_voltage(op.voltage)
            voltage = op.voltage
        if op.powered_cores is not None:
            cluster.validate_powered_cores(op.powered_cores)
            powered = op.powered_cores
        if item.mode == "mixed":
            if not 1 <= len(item.programs) <= powered:
                raise ValueError(
                    f"{cluster.name}: need 1..{powered} programs, "
                    f"got {len(item.programs)}"
                )
            active = len(item.programs)
        else:
            active = (
                item.active_cores
                if item.active_cores is not None
                else powered
            )
            if active < 1:
                raise ValueError("active_cores must be >= 1")
            if active > powered:
                raise ValueError(
                    f"{cluster.name}: {active} active cores exceed "
                    f"{powered} powered"
                )
        batch.work.append(
            ItemWork(
                result=ChainItemResult(
                    item=item,
                    clock_hz=clock,
                    voltage=voltage,
                    powered_cores=powered,
                    active_cores=active,
                )
            )
        )
    return batch


class ExecuteStage:
    """Instruction scheduling: program -> per-cycle current trace.

    Each item executes into one clock-free
    :class:`~repro.cpu.multicore.ClusterExecution` through
    :mod:`repro.cpu.multicore`.  Single-program items, with or without
    phase offsets, come from the session cache (schedule and
    amperes-per-cycle are operating-point independent), so a V_MIN
    ladder schedules its program once, not once per voltage step.
    Mixed items are computed fresh.  Cache-miss items are computed
    fresh too: each active core draws one execution window from the
    item's ``memory_rng``, in core order.
    """

    name = "execute"
    drains = ("memory",)

    def run(self, batch: ChainBatch) -> None:
        cluster = batch.cluster
        pipeline = cluster.pipeline
        model = cluster.spec.current_model
        uncore = cluster.spec.uncore_current_a
        for w in batch.work:
            item = w.result.item
            mode = item.mode
            if mode == "mixed":
                execution = execute_mixed_on_cluster(
                    pipeline,
                    model,
                    item.programs,
                    uncore_current_a=uncore,
                    iterations=item.iterations,
                )
            elif mode == "nondeterministic":
                execution = execute_windows_on_cluster(
                    pipeline,
                    model,
                    item.program,
                    active_cores=w.result.active_cores,
                    cache=item.cache_model,
                    memory_rng=item.memory_rng,
                    uncore_current_a=uncore,
                    iterations=item.iterations,
                )
            else:
                execution = batch.session.execution(
                    cluster,
                    item.program,
                    active_cores=w.result.active_cores,
                    iterations=item.iterations,
                    phase_offsets=item.phase_offsets,
                )
            w.result.execution = execution


class CurrentStage:
    """Operating-point scaling of the raw per-cycle current trace,
    then the item's timing jitter, if it has any."""

    name = "current"
    drains = ()

    def run(self, batch: ChainBatch) -> None:
        cluster = batch.cluster
        for w in batch.work:
            item = w.result.item
            scale = cluster.current_scale(
                clock_hz=w.result.clock_hz, voltage=w.result.voltage
            )
            trace = w.result.execution.load_current * scale
            if item.mode == "single" and trace.size < 4:
                # Degenerate loops (period of 1-3 cycles) are still
                # periodic; tile them so the spectral solver has a
                # valid grid.
                trace = np.tile(trace, int(np.ceil(4 / trace.size)))
            if item.jitter is not None:
                trace = _jittered(trace, item.jitter)
            w.load_current = trace


def _jittered(trace: np.ndarray, jitter: TimingJitter) -> np.ndarray:
    """``trace`` with a real workload's timing jitter applied."""
    # Data-dependent issue jitter low-pass filters the current spectrum
    # of real workloads; deterministic virus loops keep their sharp
    # edges.
    w = jitter.smooth_cycles
    if w > 1 and trace.size > w:
        kernel = np.ones(w) / w
        trace = np.convolve(
            np.concatenate([trace[-(w - 1):], trace]), kernel, mode="valid"
        )
    if jitter.compression != 1.0:
        # Real programs mix hot and cold paths: their windowed activity
        # variance is a fraction of a worst-case synthetic loop's.
        # Compress fluctuation around the mean; the mean (IR drop) is
        # untouched.
        mean = trace.mean()
        trace = mean + jitter.compression * (trace - mean)
    # Tiles at random phase shifts, in one gather through the index the
    # jitter caches per trace length.
    return trace[jitter.gather_index(trace.size)]


class PDNStage:
    """Periodic steady-state rail response through the PDN model, for
    the whole batch in one :meth:`SimulationSession.pdn_responses`."""

    name = "pdn"
    drains = ()

    def run(self, batch: ChainBatch) -> None:
        responses = batch.session.pdn_responses(
            batch.cluster,
            [
                (
                    w.result.powered_cores,
                    w.result.voltage,
                    w.load_current,
                    w.result.clock_hz,
                )
                for w in batch.work
            ],
        )
        for w, response in zip(batch.work, responses):
            w.result.response = response


class RadiateStage:
    """Die current harmonics -> radiated emission lines."""

    name = "radiate"
    drains = ()

    def __init__(self, radiator):
        self.radiator = radiator

    def run(self, batch: ChainBatch) -> None:
        if not batch.request.want_emission:
            return
        for w in batch.work:
            w.result.emission = self.radiator.emission(w.result.response)


class PropagateStage:
    """Emission lines -> noiseless per-bin signal power at the port.

    The deterministic half of the analyzer readout, computed once per
    item and shared by the amplitude metric and the displayed trace
    (the legacy per-call path recomputed it for each).  One
    :meth:`SpectrumAnalyzer.spread_lines` call spreads the lines of
    the whole batch; each item's ``signal_w`` is its row.
    """

    name = "propagate"
    drains = ()

    def __init__(self, analyzer):
        self.analyzer = analyzer

    def run(self, batch: ChainBatch) -> None:
        if not (batch.request.want_emission and batch.work):
            return
        batch.signal_w = self.analyzer.spread_lines(
            [w.result.emission for w in batch.work]
        )
        for w, signal_w in zip(batch.work, batch.signal_w):
            w.result.signal_w = signal_w


class ReceiveStage:
    """Noisy analyzer readout: amplitude metric and/or displayed trace.

    One :meth:`SpectrumAnalyzer.readout` call reads the whole batch.
    It draws from the analyzer RNG in request order -- per item,
    amplitude samples first, then the trace sweep -- matching the draw
    order of a sequential ``max_amplitude`` + ``sweep`` loop bit for
    bit.  The peak frequency is the trace's banded peak marker, or,
    without a trace, the strongest emission line in the band.
    """

    name = "receive"
    drains = ("analyzer",)

    def __init__(self, analyzer):
        self.analyzer = analyzer

    def run(self, batch: ChainBatch) -> None:
        request = batch.request
        if not (request.want_emission and batch.work):
            return
        results = [w.result for w in batch.work]
        analyzer = self.analyzer
        amplitudes, power_dbm = analyzer.readout(
            batch.signal_w,
            band=request.band,
            samples=request.samples,
            amplitude=request.want_amplitude,
            trace=request.want_trace,
        )
        if request.want_amplitude:
            for r, amplitude_w in zip(results, amplitudes.tolist()):
                r.amplitude_w = amplitude_w
        if request.want_trace:
            centers = analyzer.bin_centers()
            peaks, _ = peak_markers(centers, power_dbm, request.band)
            for r, row in zip(results, power_dbm):
                r.trace = SpectrumTrace(centers, row)
        else:
            peaks, _ = strongest_lines(
                [r.emission for r in results], request.band
            )
        for r, peak_hz in zip(results, peaks.tolist()):
            r.peak_frequency_hz = peak_hz
