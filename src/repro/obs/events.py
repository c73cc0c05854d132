"""Structured event telemetry for long-running experiments.

An :class:`EventLog` turns the run harness's milestones (generation
boundaries, sweep points, checkpoints, kernel timings) into
timestamped, schema-versioned records and fans them out to pluggable
sinks.  The JSONL file sink is the archival format -- one JSON object
per line, written next to the run's artifacts so any figure can be
regenerated from the log alone; the in-memory sink backs tests and the
stderr sink gives interactive runs a live ticker.

Every record carries::

    {"v": 1, "seq": <monotonic int>, "t": <seconds since log start>,
     "wall": <unix timestamp>, "event": "<name>", ...payload}

Payload values are sanitized to plain JSON types (numpy scalars and
arrays included), so emitters can pass measurement results directly.

The fault/resilience layer (:mod:`repro.faults`) adds its own event
vocabulary on top of the harness milestones: ``fault_injected`` (a
:class:`~repro.faults.FaultError` surfaced at a site),
``retry_attempt`` (a retryable fault is about to be retried),
``worker_crash`` (a pool worker died and its shard was re-dispatched),
``degraded_to_serial`` (the parallel evaluator gave up on its pool),
``genome_quarantined`` (an individual kept failing and was pinned to
the penalty fitness) and ``checkpoint_recovered`` (a corrupt
checkpoint was skipped in favor of an older rotation).  See
``docs/testing.md`` for the full recovery-path map.

The persistent GA worker pool (:mod:`repro.ga.parallel`) emits one
``worker_warmup`` event per worker (re)spawn -- worker id, pid,
warm-up wall time, whether it replaced a crashed worker
(``respawned``), and its session cache counters after warm-up --
and the GA engine folds each worker's latest cache counters into
``generation_end`` as ``worker_cache_stats`` (worker id keyed), so
per-worker cache-hit rates are readable straight off the run log.

The determinism audit (:mod:`repro.audit`) contributes two more:
``audit_violation`` (a runtime invariant broke -- payload carries the
violation ``kind``, ``site`` and message; the matching typed
:class:`~repro.audit.AuditViolation` is raised at the same moment) and
``audit_summary`` (end-of-run counters: shadow checks per cache,
ledger stages verified, replays, violations).

The measurement service (:mod:`repro.service`) speaks the job
vocabulary: ``service_start``/``service_stop`` bracket the process
(configuration, then final counters), ``service_listening`` reports
the bound HTTP endpoint, ``job_submitted`` (job id, kind, tenant,
queue depth) admits a job, ``job_rejected`` records load shedding
(``reason`` is ``rate_limited`` or ``queue_full``), ``job_batched``
marks a batch dispatch (batch id, member job ids, whether requests
were actually coalesced), ``job_done`` closes a job with its
terminal status, and ``service_error`` records an unexpected exception
in an HTTP route (the ``route``, the ``error`` and the formatted
``traceback``) that was answered with a 500.  While a batch executes, every chain/GA event it
produces is stamped with the ``batch`` id and the ``jobs`` list, so a
shared-session run log still attributes each record to the client
requests that caused it.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Union

EVENT_SCHEMA_VERSION = 1


def jsonable(value: Any) -> Any:
    """Best-effort conversion of ``value`` to plain JSON types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # numpy scalars expose .item(); arrays expose .tolist().
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "ndim", 1) == 0:
        return item()
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return str(value)


class MemorySink:
    """Keeps every record in a list -- the test sink."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Recorded events, optionally filtered by event name."""
        if name is None:
            return list(self.records)
        return [r for r in self.records if r["event"] == name]


class JsonlFileSink:
    """Appends one compact JSON object per line to ``path``.

    Records are flushed per emit: an interrupted campaign (the whole
    point of checkpoint/resume) must leave a readable log up to the
    kill point.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = self.path.open(
            "a", encoding="utf-8"
        )

    def emit(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class StderrSink:
    """Human-oriented live ticker (still one JSON object per line)."""

    def __init__(self, stream: Optional[IO[str]] = None):
        self._stream = stream

    def emit(self, record: Dict[str, Any]) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        print(json.dumps(record, separators=(",", ":")), file=stream)

    def close(self) -> None:
        pass


class EventLog:
    """Fans structured events out to zero or more sinks.

    A log with no sinks is disabled and near-free to call, so library
    code can emit unconditionally; :data:`NULL_LOG` is the shared
    disabled instance used as a default.
    """

    def __init__(self, sinks: Iterable = ()):
        self._sinks = list(sinks)
        self._seq = 0
        self._t0 = time.monotonic()
        # The service's worker thread emits beside its event loop; the
        # lock keeps sequence numbers unique and sink writes
        # whole-record atomic.
        self._lock = threading.Lock()

    @classmethod
    def to_file(cls, path: Union[str, Path]) -> "EventLog":
        """An event log writing JSONL to ``path``."""
        return cls([JsonlFileSink(path)])

    @property
    def enabled(self) -> bool:
        return bool(self._sinks)

    def add_sink(self, sink) -> None:
        self._sinks.append(sink)

    def emit(self, event: str, **payload: Any) -> None:
        """Emit one event; payload values may be numpy types."""
        if not self._sinks:
            return
        clean = {key: jsonable(value) for key, value in payload.items()}
        with self._lock:
            record: Dict[str, Any] = {
                "v": EVENT_SCHEMA_VERSION,
                "seq": self._seq,
                "t": round(time.monotonic() - self._t0, 6),
                "wall": time.time(),
                "event": event,
            }
            record.update(clean)
            self._seq += 1
            for sink in self._sinks:
                sink.emit(record)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared disabled log: the default for every ``event_log`` parameter.
NULL_LOG = EventLog(())


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load every event record from a JSONL file."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
