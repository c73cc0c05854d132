"""The composed signal path: one batched call through every stage.

``SignalPath.em_chain(radiator, analyzer)`` builds the paper's full
measurement chain; ``run(request)`` pushes N items through it and
returns a :class:`ChainResult` with per-item artifacts, per-stage wall
times and the session cache-counter deltas.  Each stage's wall time
also goes into the active kernel-timing collector as the
``chain.<stage>`` section, so an enclosing
:func:`repro.obs.timing.collect_kernel_timings` block -- e.g. the GA
engine's per-generation collector -- sees the chain-stage breakdown
without any extra plumbing.

When the path ends in a :class:`~repro.chain.stages.ReceiveStage`, a
readout that spans two or more draw blocks gets its noise from a
:class:`~repro.chain.stages.DrawAhead` thread that ``run`` starts
right after resolving the request and joins on every exit path, so no
draw thread outlives the call (forking a worker pool never copies
one).
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.chain.session import SimulationSession
from repro.chain.stages import (
    ChainBatch,
    CurrentStage,
    ExecuteStage,
    PDNStage,
    PropagateStage,
    RadiateStage,
    ReceiveStage,
    Stage,
    resolve_request,
)
from repro.chain.types import ChainRequest, ChainResult
from repro.faults.plan import NULL_INJECTOR, FaultInjector
from repro.obs.events import NULL_LOG, EventLog
from repro.obs.timing import active_kernel_timings


class SignalPath:
    """An ordered stage composition sharing one simulation session.

    An armed :class:`repro.faults.FaultInjector` is consulted at every
    stage boundary (site ``chain.<stage>``), which is how the chaos
    suite makes measurement-chain runs fail on schedule; the default
    disarmed injector costs one attribute check per stage.
    """

    def __init__(
        self,
        stages: List[Stage],
        session: Optional[SimulationSession] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.stages = list(stages)
        self.session = session if session is not None else (
            SimulationSession()
        )
        self.injector = injector if injector is not None else NULL_INJECTOR

    @classmethod
    def em_chain(
        cls,
        radiator,
        analyzer,
        session: Optional[SimulationSession] = None,
        injector: Optional[FaultInjector] = None,
    ) -> "SignalPath":
        """The paper's chain: CPU -> PDN -> EM radiation -> analyzer."""
        return cls(
            [
                ExecuteStage(),
                CurrentStage(),
                PDNStage(),
                RadiateStage(radiator),
                PropagateStage(analyzer),
                ReceiveStage(analyzer),
            ],
            session=session,
            injector=injector,
        )

    def run(
        self, request: ChainRequest, event_log: EventLog = NULL_LOG
    ) -> ChainResult:
        """Push one batch through every stage, in request order."""
        batch = resolve_request(request, self.session)
        # The readout is a chain's last stage; its draws can start now.
        last = self.stages[-1] if self.stages else None
        if isinstance(last, ReceiveStage):
            batch.draws = last.draw_ahead(batch)
        try:
            return self._run_stages(request, batch, event_log)
        finally:
            if batch.draws is not None:
                batch.draws.close()

    def _run_stages(
        self, request: ChainRequest, batch: ChainBatch, event_log: EventLog
    ) -> ChainResult:
        audit = self.session.audit
        ledger = (
            audit.chain_ledger(self, request)
            if audit is not None
            else None
        )
        before = self.session.stats.snapshot()
        stage_times = {}
        # Looked up once: a stage's time is measured once, for both
        # the run's stage times and the collector's section.
        collector = active_kernel_timings()
        for stage in self.stages:
            section = f"chain.{stage.name}"
            self.injector.visit(section)
            start = time.monotonic()
            try:
                stage.run(batch)
            finally:
                elapsed = time.monotonic() - start
                if collector is not None:
                    collector.add(section, elapsed)
            stage_times[stage.name] = round(elapsed, 6)
            if ledger is not None:
                # Outside the timing section so audit overhead never
                # pollutes the per-stage wall times.
                ledger.after_stage(
                    stage.name, getattr(stage, "drains", ())
                )
        after = self.session.stats.snapshot()
        cache_stats = {k: after[k] - before[k] for k in after}
        result = ChainResult(
            items=[w.result for w in batch.work],
            stage_times_s=stage_times,
            cache_stats=cache_stats,
        )
        event_log.emit(
            "chain_run",
            items=len(result.items),
            want_amplitude=request.want_amplitude,
            want_trace=request.want_trace,
            stage_times_s=stage_times,
            cache_stats=cache_stats,
        )
        return result
