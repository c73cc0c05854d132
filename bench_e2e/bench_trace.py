"""Span tracing for the benchmark's traced run.

Spans come from wrapping public callables of the ``repro`` package
inside the benchmark process; nothing under ``src/`` is edited.  Each
span records its name, start, end, parent span and a request id (the
GA generation, sweep, ladder step or service batch that caused it).
A per-thread stack tracks parents, because service batches execute on
the service's worker thread.  Spans stay in memory until the run ends.

With ``workers > 1`` the pool is forked after the wrappers are
installed, so worker processes record spans into their own memory and
never report them: only parent-side spans exist for ``ga-workers``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

CHAIN_STAGES = ("execute", "current", "pdn", "radiate", "propagate", "receive")


def _count_ac_freqs(tracer, args, kwargs, result):
    freqs = kwargs.get("frequencies_hz", args[2] if len(args) > 2 else ())
    tracer.counters["pdn.ac_freqs"] += len(freqs)


def _count_chain_run(tracer, args, kwargs, result):
    tracer.counters["chain.items"] += len(result.items)
    for key, value in result.cache_stats.items():
        tracer.counters[f"session.{key}"] += value


def _count_fresh_evals(tracer, args, kwargs, result):
    tracer.counters["ga.fresh_evals"] += len(result)


# (span name, module, owner attribute or None for a module function,
#  callable name, observer run on the return value)
TARGETS: Tuple[Tuple[str, str, Optional[str], str, Optional[Callable]], ...] = (
    ("Pipeline.execute", "repro.cpu.pipeline", "Pipeline", "execute", None),
    ("CurrentModel.trace", "repro.cpu.current", "CurrentModel", "trace", None),
    ("SteadyStateSolver.solve", "repro.pdn.steady_state",
     "SteadyStateSolver", "solve", None),
    # The name the steady-state solver looks up, not the defining module.
    ("analyze_ac", "repro.pdn.steady_state", None, "analyze_ac",
     _count_ac_freqs),
    ("SignalPath.run", "repro.chain.path", "SignalPath", "run",
     _count_chain_run),
    *(
        (f"chain.{stage}", "repro.chain.stages", cls, "run", None)
        for stage, cls in zip(
            CHAIN_STAGES,
            ("ExecuteStage", "CurrentStage", "PDNStage", "RadiateStage",
             "PropagateStage", "ReceiveStage"),
        )
    ),
    ("SpectrumAnalyzer.max_amplitude_from_power",
     "repro.instruments.spectrum_analyzer", "SpectrumAnalyzer",
     "max_amplitude_from_power", None),
    ("SpectrumAnalyzer.trace_from_power",
     "repro.instruments.spectrum_analyzer", "SpectrumAnalyzer",
     "trace_from_power", None),
    ("SpectrumAnalyzer.received_power_w",
     "repro.instruments.spectrum_analyzer", "SpectrumAnalyzer",
     "received_power_w", None),
    ("DieRadiator.emission", "repro.em.radiation", "DieRadiator",
     "emission", None),
    ("GAEngine.run", "repro.ga.engine", "GAEngine", "run", None),
    ("ParallelEvaluator.evaluate", "repro.ga.parallel", "ParallelEvaluator",
     "evaluate", _count_fresh_evals),
    ("ParallelEvaluator.warm_up", "repro.ga.parallel", "ParallelEvaluator",
     "warm_up", None),
    ("ResonanceSweep.run", "repro.core.resonance", "ResonanceSweep", "run",
     None),
    ("Cluster.run", "repro.platforms.base", "Cluster", "run", None),
    ("Workload.run", "repro.workloads.base", "ProgramWorkload", "run", None),
    ("Workload.run", "repro.workloads.base", "IdleWorkload", "run", None),
    ("CriticalVoltageModel.classify", "repro.stability.failure",
     "CriticalVoltageModel", "classify", None),
    ("MeasurementService.submit", "repro.service.core",
     "MeasurementService", "submit", None),
    # The benchmark's own host-speed probe runs inside GA progress
    # callbacks and ladder steps; its span keeps it out of their
    # callers' self time.
    ("bench.host_probe", "bench_workloads", "HostSpeed", "sample", None),
)


class Tracer:
    """Installs span wrappers and keeps the spans they record.

    ``request`` is the request id stamped on spans of threads that set
    none of their own (:meth:`set_thread_request`); the service driver
    sets it per batch, so spans on the worker thread carry the batch.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def set_thread_request(self, request: Optional[str]) -> None:
        self._local.request = request

    def _wrap(self, owner, attr: str, name: str, observe) -> None:
        original = getattr(owner, attr)
        spans, lock, local = self.spans, self._lock, self._local
        perf = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                request = getattr(local, "request", None) or self.request
                spans[index] = (name, start, end, parent, request)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        for name, module_name, owner_name, attr, observe in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self._wrap(owner, attr, name, observe)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def closed_spans(self) -> List[tuple]:
        return [s for s in self.spans if s is not None]

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}``; self time is a
        span's duration minus the time its child spans cover."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue
            entry = out.setdefault(
                span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out

    def stage_totals(self, request_filter=None) -> Dict[str, float]:
        """Inclusive seconds per chain stage, optionally only for spans
        whose request id passes ``request_filter``."""
        totals = {stage: 0.0 for stage in CHAIN_STAGES}
        for span in self.spans:
            if span is None or not span[0].startswith("chain."):
                continue
            if request_filter is not None and not request_filter(span[4]):
                continue
            totals[span[0][len("chain."):]] += span[2] - span[1]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            [name, round(start, 9), round(end, 9), parent,
             None if request is None else str(request)]
            for name, start, end, parent, request in self.closed_spans()
        ]
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent",
                                   "request"], "spans": spans}),
            encoding="utf-8",
        )


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0
