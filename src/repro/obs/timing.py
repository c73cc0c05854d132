"""Per-kernel wall-time accumulation for the evaluation hot path.

The three compute kernels behind every fitness evaluation -- the issue
scheduler (:meth:`repro.cpu.pipeline.Pipeline.execute`), the current
model (:meth:`repro.cpu.current.CurrentModel.traces`, section
``cpu.current.trace``, once per batch of schedules) and the transient
PDN solver (:meth:`repro.pdn.transient.TransientSolver.run`) -- wrap
their bodies in :func:`kernel_section`, as does the AC analysis behind
each transfer-function grid (``pdn.ac``).  When no collector is active
(the default) the wrapper is a single module-global check; inside
:func:`collect_kernel_timings` each section accumulates call counts and
total seconds, which the GA engine folds into its per-generation
``kernel_timings`` events.

Collection is process-local *and thread-local*.  With
``GAConfig.workers > 1`` the kernels run in worker processes: each
worker times every shard in a collector of its own and ships its
:meth:`KernelTimings.snapshot` back with the shard's results, and the
parent folds it into its active collector (:meth:`KernelTimings.merge`),
so a generation's ``kernel_timings`` cover the worker-side sections
too.  The measurement service (:mod:`repro.service`) runs its jobs on
a worker thread of its own, beside whatever other thread of the
process is collecting -- a module global would cross-attribute their
timings.  Timings are
observability, not a determinism input -- they never feed back into
the computation.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional


class KernelTimings:
    """Accumulated wall time per named kernel section."""

    def __init__(self) -> None:
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        self.total_s[name] = self.total_s.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{kernel: {"calls": n, "total_s": seconds}}`` for events."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": round(self.total_s[name], 6),
            }
            for name in sorted(self.total_s)
        }

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Fold another collector's :meth:`snapshot` into this one."""
        for name, section in snapshot.items():
            self.total_s[name] = (
                self.total_s.get(name, 0.0) + section["total_s"]
            )
            self.calls[name] = self.calls.get(name, 0) + section["calls"]

    def clear(self) -> None:
        self.total_s.clear()
        self.calls.clear()

    def __bool__(self) -> bool:
        return bool(self.total_s)


# The active collector, one slot per thread; kernels check this one
# thread-local per call, so the disabled path costs a lookup and a
# comparison, and the service's worker thread never shares a collector
# with another thread.
_STATE = threading.local()


def active_kernel_timings() -> Optional[KernelTimings]:
    """This thread's active collector, or None outside a collection."""
    return getattr(_STATE, "active", None)


@contextmanager
def collect_kernel_timings(
    collector: Optional[KernelTimings] = None,
) -> Iterator[KernelTimings]:
    """Activate (or reuse) a collector for the duration of the block."""
    previous = active_kernel_timings()
    _STATE.active = collector if collector is not None else KernelTimings()
    try:
        yield _STATE.active
    finally:
        _STATE.active = previous


@contextmanager
def kernel_section(name: str) -> Iterator[None]:
    """Time one kernel invocation into the active collector, if any."""
    collector = active_kernel_timings()
    if collector is None:
        yield
        return
    start = time.monotonic()
    try:
        yield
    finally:
        collector.add(name, time.monotonic() - start)


def timed_kernel(name: str):
    """Decorator form of :func:`kernel_section` for whole kernels.

    With no active collector the overhead is one global load per call,
    so it is safe on production hot paths.
    """
    import functools

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            collector = active_kernel_timings()
            if collector is None:
                return fn(*args, **kwargs)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                collector.add(name, time.monotonic() - start)

        return wrapper

    return decorate
