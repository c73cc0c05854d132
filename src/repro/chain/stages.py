"""The six measurement-chain stages.

Each stage transforms every item of a batch in request order:

    execute -> current -> pdn-steady-state -> radiate -> propagate -> receive

Every run of a program goes through these stages: ``Cluster.run`` is a
response-only chain call (execute -> current -> pdn).  The execute,
pdn, propagate and receive stages each make one batch-kernel call per
request (:meth:`SimulationSession.executions` for single and
phase-offset items, :meth:`SimulationSession.pdn_responses`,
:meth:`SpectrumAnalyzer.spread_lines`,
:meth:`SpectrumAnalyzer.readout`), which work array-at-a-time and
give every item the bits it gets alone; the per-call helpers
(``SimulationSession.execution``, ``SimulationSession.pdn_solve``,
``SpectrumAnalyzer.max_amplitude`` / ``sweep``) are one-row calls of
the same kernels, so batched results are bit-identical to a per-call
loop whatever the batch holds.  RNG
discipline: the execute stage draws only from per-item ``memory_rng``
generators, the receive stage only from the analyzer RNG, and both
consume items in request order -- so per-stream draw sequences match a
sequential loop even though the stages are batched.  Timing jitter
draws its tile shifts from a generator of its own seed, so it shares
no stream at all.  A readout of two or more draw blocks takes its
standard normals from a :class:`DrawAhead` thread, which draws them
from a clone of the analyzer RNG while the stages before receive run;
the receive stage then moves the analyzer RNG to the clone's end
state, so the stream is the one an in-place readout leaves.
"""

from __future__ import annotations

import queue
import threading
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
from repro.instruments.spectrum_analyzer import (
    ReadoutPlan,
    SpectrumTrace,
    peak_markers,
)
from repro.obs.timing import kernel_section

#: Drawn blocks a :class:`DrawAhead` thread holds ready at most.  With
#: the block it is drawing and the block the readout reads, at most
#: ``DRAW_AHEAD_BLOCKS + 2`` blocks of :data:`DRAW_BLOCK_BYTES
#: <repro.instruments.spectrum_analyzer.DRAW_BLOCK_BYTES>` are alive.
DRAW_AHEAD_BLOCKS = 2


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
    #: The readout's noise, drawn ahead on a thread (multi-block only).
    draws: Optional["DrawAhead"] = None

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
    amperes-per-cycle are operating-point independent) in one
    :meth:`SimulationSession.executions` call, which runs the request's
    misses together; so a V_MIN ladder schedules its program once, not
    once per voltage step.  Mixed items are computed fresh.  Cache-miss
    items are computed fresh too: each active core draws one execution
    window from the item's ``memory_rng``, in core order.
    """

    name = "execute"
    drains = ("memory",)

    def run(self, batch: ChainBatch) -> None:
        cluster = batch.cluster
        spec = cluster.spec
        cached, jobs = [], []
        for w in batch.work:
            result = w.result
            item = result.item
            mode = item.mode
            if mode == "single":
                cached.append(result)
                jobs.append(
                    (
                        item.program,
                        result.active_cores,
                        item.iterations,
                        item.phase_offsets,
                    )
                )
            elif mode == "mixed":
                result.execution = execute_mixed_on_cluster(
                    cluster.pipeline,
                    spec.current_model,
                    item.programs,
                    uncore_current_a=spec.uncore_current_a,
                    iterations=item.iterations,
                )
            else:
                result.execution = execute_windows_on_cluster(
                    cluster.pipeline,
                    spec.current_model,
                    item.program,
                    active_cores=result.active_cores,
                    cache=item.cache_model,
                    memory_rng=item.memory_rng,
                    uncore_current_a=spec.uncore_current_a,
                    iterations=item.iterations,
                )
        executions = batch.session.executions(cluster, jobs)
        for result, execution in zip(cached, executions):
            result.execution = execution


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
            if trace.size < 4:
                # Degenerate loops and mixes (period of 1-3 cycles) are
                # still periodic; tile them so the spectral solver has
                # a valid grid.
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


class DrawAhead:
    """A multi-block readout's standard normals, drawn on a thread.

    The thread starts at construction.  It draws the blocks of
    ``plan`` (:meth:`ReadoutPlan.draw`), in the readout's order, from a
    clone of ``analyzer.rng`` taken here, and holds at most
    :data:`DRAW_AHEAD_BLOCKS` of them ready.  The draws depend only on
    the generator's state and the plan, and numpy fills them without
    holding the GIL, so they run beside the chain's Python-bound
    stages.  :meth:`take` hands them to the readout, :meth:`commit`
    moves ``analyzer.rng`` to the clone's end state, and :meth:`close`
    stops and joins the thread.  A ``DrawAhead`` lives for one
    :meth:`SignalPath.run <repro.chain.SignalPath.run>`, which closes
    it on every exit path; nothing else holds it.
    """

    def __init__(self, analyzer, plan: ReadoutPlan):
        self._analyzer = analyzer
        self._rng = rng = analyzer.rng
        self._start = rng.bit_generator.state
        clone = np.random.Generator(type(rng.bit_generator)(0))
        clone.bit_generator.state = self._start
        self._clone = clone
        self._plan = plan
        self._ready: "queue.Queue" = queue.Queue(maxsize=DRAW_AHEAD_BLOCKS)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._draw, name="analyzer-draw-ahead", daemon=True
        )
        self._thread.start()

    def _draw(self) -> None:
        try:
            for normals in self._plan.draw(self._clone):
                self._ready.put(normals)
                # Checked after each hand-over: once close() is called
                # the thread puts at most the block in hand, which
                # close()'s drain makes room for, and stops.
                if self._stop.is_set():
                    return
        # Carried to the reader, which re-raises it in the run's thread.
        except BaseException as exc:  # audit: ignore[R6]
            self._ready.put(exc)

    def take(self, shape: Tuple[int, int]) -> np.ndarray:
        """The next block, of ``shape``, as the thread draws it: the
        readout's block source.  The wait is timed as the
        ``analyzer.draw_wait`` kernel section; an exception the
        thread raised is re-raised here, and a block of another shape
        raises :class:`ValueError`."""
        with kernel_section("analyzer.draw_wait"):
            block = self._ready.get()
        if isinstance(block, BaseException):
            raise block
        if block.shape != shape:
            raise ValueError(
                f"drawn-ahead block has shape {block.shape}, the "
                f"readout asked for {shape}"
            )
        return block

    def commit(self) -> None:
        """Move ``analyzer.rng`` to the clone's state after every
        block, where an in-place readout would leave it.  Call it
        after the readout took every block.  Raises :class:`RuntimeError`,
        changing nothing, if the analyzer's generator was replaced or
        moved after the clone was taken: that draw would be lost."""
        rng = self._rng
        if (
            self._analyzer.rng is not rng
            or rng.bit_generator.state != self._start
        ):
            raise RuntimeError(
                "analyzer RNG moved while its readout was drawn ahead; "
                "only the receive stage may draw from it during a "
                "chain run"
            )
        rng.bit_generator.state = self._clone.bit_generator.state

    def close(self) -> None:
        """Stop the thread and join it; idempotent."""
        self._stop.set()
        while True:
            try:
                self._ready.get_nowait()
            except queue.Empty:
                break
        self._thread.join()


class ReceiveStage:
    """Noisy analyzer readout: amplitude metric and/or displayed trace.

    One :meth:`SpectrumAnalyzer.readout` call reads the whole batch.
    It draws from the analyzer RNG in request order -- per item,
    amplitude samples first, then the trace sweep -- matching the draw
    order of a sequential ``max_amplitude`` + ``sweep`` loop bit for
    bit.  A readout of two or more blocks reads them from the batch's
    :class:`DrawAhead` (:meth:`draw_ahead`) and commits its end state;
    a one-block readout draws in place, as a thread would cost more
    than it hides.  The peak frequency is the trace's banded peak
    marker, or, without a trace, the strongest emission line in the
    band.
    """

    name = "receive"
    drains = ("analyzer",)

    def __init__(self, analyzer):
        self.analyzer = analyzer

    def draw_ahead(self, batch: ChainBatch) -> Optional[DrawAhead]:
        """A started :class:`DrawAhead` for ``batch``'s readout when it
        spans two or more blocks, else ``None``."""
        items = len(batch.work)
        request = batch.request
        if items < 2 or not request.want_emission:
            return None
        analyzer = self.analyzer
        try:
            plan = analyzer.readout_plan(
                items,
                analyzer.bin_centers().size,
                band=request.band,
                samples=request.samples,
                amplitude=request.want_amplitude,
                trace=request.want_trace,
            )
        except ValueError:
            # The readout refuses the request in its own place.
            return None
        if plan.blocks < 2:
            return None
        return DrawAhead(analyzer, plan)

    def run(self, batch: ChainBatch) -> None:
        request = batch.request
        if not (request.want_emission and batch.work):
            return
        results = [w.result for w in batch.work]
        analyzer = self.analyzer
        draws = batch.draws
        amplitudes, power_dbm = analyzer.readout(
            batch.signal_w,
            band=request.band,
            samples=request.samples,
            amplitude=request.want_amplitude,
            trace=request.want_trace,
            normals=draws.take if draws is not None else None,
        )
        if draws is not None:
            draws.commit()
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
