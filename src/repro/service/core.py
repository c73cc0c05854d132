"""The measurement service: an asyncio job front end over the chain.

:class:`MeasurementService` accepts ``measure`` / ``sweep`` / ``virus``
jobs from many concurrent clients, coalesces compatible pending
requests into single batched :class:`~repro.chain.ChainRequest` runs
(see :mod:`repro.service.coalescer`) and executes them on a
single-thread worker executor against one shared, long-lived
:class:`~repro.chain.SimulationSession` per platform -- so the event
loop stays responsive while the numeric chain runs, and both caches
(transfer-function grids, schedules) stay warm across requests from
*different* clients.

Determinism contract: jobs execute in strict submission order on one
worker, per-item RNG streams advance in item order inside a batch (the
chain's own guarantee), and coalescing only ever merges a contiguous
prefix of the queue -- so a coalesced batch is **bit-identical** to
the same jobs submitted sequentially, and any arrival interleaving of
compatible submissions yields identical per-job results.

Submission validates everything before a job takes a queue slot: the
spec's fields (type and range, virus fields against
:class:`~repro.ga.engine.GAConfig`'s bounds), the tenant, the timeout,
a dry run of the operating points and a band with analyzer bins in
it, so one bad job is refused with
a :class:`~repro.service.jobs.BadRequest` instead of failing the jobs
coalesced with it.  A job's result is built once on the worker thread
as plain data (``to_payload()``); JSON text is made only where it
leaves the process (HTTP body, persisted ``result.json``).

Degradation under load is graceful and explicit: per-tenant token
buckets reject over-rate tenants (:class:`~repro.service.jobs.RateLimited`),
a bounded pending queue sheds excess jobs
(:class:`~repro.service.jobs.QueueFull`) instead of buffering without
limit, and queued jobs whose deadline lapses are timed out and
cancelled rather than silently served late.

Observability: ``service_start`` / ``service_stop`` bracket the
process, ``job_submitted`` / ``job_batched`` / ``job_done`` /
``job_rejected`` trace each job, and every chain/GA event emitted
while a batch runs is tagged with its ``batch`` id and ``jobs`` list.
Finished jobs persist a :class:`~repro.obs.manifest.RunManifest` plus
their result JSON under ``state_dir/<job_id>/``, so results remain
retrievable after the in-memory record is evicted -- through the same
``provenance`` path every CLI artifact uses.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chain import (
    ChainItem,
    ChainRequest,
    OperatingPoint,
    SimulationSession,
)
from repro.chain.stages import resolve_request
from repro.core.characterizer import EMCharacterizer
from repro.core.resonance import SweepPoint, SweepResult
from repro.core.results import MeasurementResult
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.obs.events import NULL_LOG, EventLog
from repro.obs.manifest import RunManifest
from repro.platforms import registry
from repro.service.coalescer import Coalescer, CompatKey
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    BadRequest,
    Job,
    JobCancelled,
    JobTimeout,
    QueueFull,
    RateLimited,
    ServiceClosed,
    ServiceError,
    UnknownJob,
    check_samples,
    parse_tenant,
    parse_timeout,
    spec_from_params,
)
from repro.service.ratelimit import TenantRateLimiter

RESULT_FILENAME = "result.json"


class _JobLog:
    """EventLog facade stamping chain/GA events with their job ids.

    The wrapped log's ``emit`` is lock-protected, so stamping is safe
    from the worker thread a batch executes on.
    """

    def __init__(self, base: EventLog, batch_id: str, job_ids: List[str]):
        self.base = base
        self.batch_id = batch_id
        self.job_ids = list(job_ids)

    @property
    def enabled(self) -> bool:
        return self.base.enabled

    def emit(self, event: str, **payload: Any) -> None:
        self.base.emit(
            event, batch=self.batch_id, jobs=self.job_ids, **payload
        )


@dataclass
class _PlatformState:
    """Long-lived per-platform state: cluster + receive chain + caches."""

    cluster: Any
    characterizer: EMCharacterizer

    @property
    def session(self) -> SimulationSession:
        return self.characterizer.session


class MeasurementService:
    """Measurement-as-a-service: async batching front end to the chain.

    One instance per process; drive it from a single asyncio event
    loop.  ``seed`` seeds each platform's analyzer RNG, so two
    services built with the same seed and fed the same submission
    sequence produce bit-identical results -- the property the
    determinism suite and the ``service-smoke`` CI lane pin.
    """

    def __init__(
        self,
        seed: int = 0,
        samples: int = 10,
        platforms: Optional[Tuple[str, ...]] = None,
        max_pending_jobs: int = 64,
        max_batch_items: int = 256,
        rate_per_s: Optional[float] = None,
        burst: float = 5.0,
        default_timeout_s: Optional[float] = None,
        max_finished_jobs: int = 4096,
        state_dir: Optional[Path] = None,
        event_log: EventLog = NULL_LOG,
        clock: Callable[[], float] = time.monotonic,
    ):
        # Bad settings raise here, before the service starts (the
        # coalescer and the rate limiter check their own): a bad default
        # would otherwise fail every job that uses it.
        check_samples(samples)
        if default_timeout_s is not None and not default_timeout_s > 0.0:
            raise ValueError("default_timeout_s must be positive")
        self.seed = seed
        self.samples = samples
        self.platforms = tuple(
            platforms if platforms is not None else registry.platform_keys()
        )
        self.default_timeout_s = default_timeout_s
        self.max_finished_jobs = max_finished_jobs
        self.state_dir = Path(state_dir) if state_dir else None
        self.event_log = event_log
        self._clock = clock
        self._coalescer = Coalescer(max_pending_jobs, max_batch_items)
        self._limiter = TenantRateLimiter(
            rate_per_s, burst=burst, clock=clock
        )
        self._states: Dict[str, _PlatformState] = {}
        self._jobs: Dict[str, Job] = {}
        self._finished_order: List[str] = []
        self._seq = 0
        self._batch_seq = 0
        self._closed = False
        self._started = False
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._dispatch_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "coalesced_jobs": 0,
            "batches": 0,
            "done": 0,
            "failed": 0,
            "timeout": 0,
            "cancelled": 0,
            "rejected_rate_limit": 0,
            "rejected_queue_full": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MeasurementService":
        """Spin up the worker executor and the dispatcher task."""
        if self._started:
            return self
        self._started = True
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )
        self._dispatch_task = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-service-dispatch"
        )
        self.event_log.emit(
            "service_start",
            platforms=list(self.platforms),
            seed=self.seed,
            samples=self.samples,
            max_pending_jobs=self._coalescer.max_pending_jobs,
            max_batch_items=self._coalescer.max_batch_items,
            rate_per_s=self._limiter.rate_per_s,
        )
        return self

    async def close(self, drain: bool = False) -> None:
        """Stop the service.

        With ``drain`` every already-queued job finishes first; without
        it queued jobs are cancelled.  The in-flight batch (if any)
        always runs to completion -- the worker thread cannot be
        interrupted mid-chain -- and the executor is shut down cleanly,
        so no thread or task outlives this call.
        """
        if self._closed:
            return
        self._closed = True
        if drain:
            await self.join()
        else:
            for job in [e[0] for e in list(self._coalescer._pending)]:
                self._coalescer.remove(job.id)
                self._finish(job, CANCELLED, error="service shutdown")
            await self.join()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
            self._dispatch_task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.event_log.emit("service_stop", counters=dict(self.counters))

    async def join(self) -> None:
        """Wait until the queue is empty and no batch is executing."""
        if self._dispatch_task is None:
            return
        while len(self._coalescer) or not self._idle.is_set():
            await self._idle.wait()
            if len(self._coalescer):
                # More work arrived while the last batch ran.
                await asyncio.sleep(0)

    async def __aenter__(self) -> "MeasurementService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # platform state
    # ------------------------------------------------------------------
    def _platform_state(self, key: str) -> _PlatformState:
        state = self._states.get(key)
        if state is None:
            if key not in self.platforms:
                raise BadRequest(
                    f"unknown platform {key!r} (serving: "
                    f"{', '.join(self.platforms)})"
                )
            cluster = registry.make_cluster(key)
            characterizer = EMCharacterizer(
                analyzer=SpectrumAnalyzer(
                    rng=np.random.default_rng(self.seed)
                ),
                samples=self.samples,
                session=SimulationSession(),
            )
            state = _PlatformState(
                cluster=cluster, characterizer=characterizer
            )
            self._states[key] = state
        return state

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        params: Dict[str, Any],
        tenant: str = "default",
        timeout_s: Optional[float] = None,
    ) -> Job:
        """Validate, admit and enqueue one job; returns its record.

        Raises :class:`BadRequest` (malformed spec, tenant or
        timeout),
        :class:`RateLimited` (tenant over budget), :class:`QueueFull`
        (pending queue at capacity) or :class:`ServiceClosed`; on
        success the job is queued, a ``job_submitted`` event is
        emitted, and the dispatcher is woken.
        """
        if self._closed:
            raise ServiceClosed("service is shutting down")
        tenant = parse_tenant(tenant)
        timeout_s = parse_timeout(timeout_s)
        spec = spec_from_params(kind, params)
        state = self._platform_state(spec.platform)
        items, key = self._prepare(spec, state)
        retry_after = self._limiter.try_acquire(tenant)
        if retry_after > 0.0:
            self.counters["rejected_rate_limit"] += 1
            self.event_log.emit(
                "job_rejected",
                reason="rate_limited",
                tenant=tenant,
                kind=kind,
                retry_after_s=retry_after,
            )
            raise RateLimited(tenant, retry_after)
        if self._coalescer.full:
            self.counters["rejected_queue_full"] += 1
            self.event_log.emit(
                "job_rejected",
                reason="queue_full",
                tenant=tenant,
                kind=kind,
                depth=len(self._coalescer),
            )
            raise QueueFull(len(self._coalescer))
        self._seq += 1
        job = Job(
            id=f"job-{self._seq:06d}",
            tenant=tenant,
            spec=spec,
            seq=self._seq,
        )
        timeout = (
            timeout_s if timeout_s is not None else self.default_timeout_s
        )
        if timeout is not None:
            job.deadline = self._clock() + timeout
        loop = asyncio.get_running_loop()
        job.future = loop.create_future()
        # HTTP-submitted jobs are polled, never awaited; retrieve the
        # terminal exception so the loop doesn't log it as unconsumed.
        job.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        job._items = items  # resolved ChainItems (measure/sweep)
        self._jobs[job.id] = job
        self._coalescer.push(
            job, key, len(items) if items is not None else 1
        )
        self.counters["submitted"] += 1
        job.note("submitted", tenant=tenant)
        self.event_log.emit(
            "job_submitted",
            job_id=job.id,
            kind=job.kind,
            tenant=tenant,
            platform=spec.platform,
            items=len(items) if items is not None else 1,
            queue_depth=len(self._coalescer),
        )
        if timeout is not None:
            loop.call_later(timeout, self._wake.set)
        self._wake.set()
        return job

    def _prepare(
        self, spec, state: _PlatformState
    ) -> Tuple[Optional[List[ChainItem]], Optional[CompatKey]]:
        """Resolve a spec into chain items + compat key (validated).

        Virus jobs return ``(None, None)``: they are exclusive and
        build their generator at execution time (their GA settings
        were checked when the spec was parsed; their ``resume_dir`` is
        checked here, by :meth:`_resume_path`).  Measure/sweep items
        are dry-run through :func:`repro.chain.stages.resolve_request`,
        and the band must hold at least one analyzer bin, so an invalid
        operating point or band rejects the *submission* instead of
        failing the whole coalesced batch later.
        """
        if spec.kind == "virus":
            self._resume_path(spec)
            return None, None
        band = spec.band or state.characterizer.band
        samples = (
            spec.samples if spec.samples is not None else self.samples
        )
        items = self._chain_items(spec, state)
        try:
            resolve_request(
                ChainRequest(
                    cluster=state.cluster,
                    items=items,
                    band=band,
                    samples=samples,
                ),
                state.session,
            )
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        if not state.characterizer.analyzer.band_mask(band).any():
            raise BadRequest(f"no analyzer bins inside band {tuple(band)}")
        key = CompatKey(
            platform=spec.platform,
            analyzer_key=state.characterizer.analyzer._settings_key(),
            band=tuple(band),
            samples=samples,
        )
        return items, key

    def _resume_path(self, spec) -> Optional[Path]:
        """The checkpoint file a virus job resumes from, or ``None``.

        ``resume_dir`` names a checkpoint file relative to
        ``state_dir``.  An absolute path, one that resolves outside
        ``state_dir`` (through ``..`` or a symlink) or cannot be
        resolved, or any path on a service without a ``state_dir``
        raises one :class:`BadRequest` naming the field, so a client
        can neither make the service open other files nor learn from
        the error whether they exist.
        """
        if not spec.resume_dir:
            return None
        if self.state_dir is None:
            raise BadRequest(
                "resume_dir needs a service state directory, and this "
                "service has none"
            )
        if Path(spec.resume_dir).is_absolute():
            raise BadRequest(
                "resume_dir must be relative to the service state "
                "directory"
            )
        root = self.state_dir.resolve()
        try:
            path = (root / spec.resume_dir).resolve()
        except (OSError, RuntimeError, ValueError):
            # A NUL byte, a symlink loop or an unreadable component.
            raise BadRequest("resume_dir is not a usable path") from None
        if not path.is_relative_to(root):
            raise BadRequest(
                "resume_dir must stay inside the service state directory"
            )
        return path

    def _chain_items(
        self, spec, state: _PlatformState
    ) -> List[ChainItem]:
        from repro.workloads.loops import high_low_program

        isa = state.cluster.spec.isa
        if spec.kind == "measure":
            if spec.program_seed is None:
                program = high_low_program(isa)
            else:
                from repro.cpu.program import random_program

                program = random_program(
                    isa,
                    spec.program_length,
                    np.random.default_rng(spec.program_seed),
                )
            return [
                ChainItem(
                    program=program,
                    operating_point=OperatingPoint(
                        clock_hz=spec.clock_hz,
                        voltage=spec.voltage,
                        powered_cores=spec.powered_cores,
                    ),
                    active_cores=spec.active_cores,
                )
            ]
        # sweep
        clocks = (
            list(spec.clocks_hz)
            if spec.clocks_hz
            else list(state.cluster.spec.allowed_clocks_hz())
        )
        program = high_low_program(isa)
        return [
            ChainItem(
                program=program,
                operating_point=OperatingPoint(
                    clock_hz=clock, powered_cores=spec.powered_cores
                ),
                active_cores=spec.active_cores,
            )
            for clock in clocks
        ]

    # ------------------------------------------------------------------
    # retrieval / cancellation
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The live in-memory record; raises :class:`UnknownJob`."""
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(self._unknown_message(job_id))
        return job

    def job_view(self, job_id: str) -> Dict[str, Any]:
        """Status/result view, falling back to the persisted manifest.

        A job evicted from memory is rehydrated from
        ``state_dir/<job_id>/`` (manifest + result JSON) -- the
        after-the-fact retrieval path.  Unknown ids fail with a clear
        one-line error naming the id and, when persistence is on, the
        path that was checked.
        """
        job = self._jobs.get(job_id)
        if job is not None:
            return job.view()
        if self.state_dir is not None:
            job_dir = self.state_dir / job_id
            manifest_path = job_dir / "run_manifest.json"
            if manifest_path.exists():
                manifest = RunManifest.load(job_dir)
                view = {
                    "job_id": job_id,
                    "tenant": manifest.extra.get("tenant", "default"),
                    "kind": manifest.command.removeprefix("service-"),
                    "status": manifest.extra.get("status", DONE),
                    "spec": manifest.config,
                    "batch_id": manifest.extra.get("batch_id"),
                    "from_manifest": True,
                }
                result_path = job_dir / RESULT_FILENAME
                if result_path.exists():
                    view["result"] = json.loads(
                        result_path.read_text(encoding="utf-8")
                    )
                return view
        raise UnknownJob(self._unknown_message(job_id))

    def _unknown_message(self, job_id: str) -> str:
        if self.state_dir is not None:
            return (
                f"unknown job {job_id!r}: not in memory and no "
                f"manifest at {self.state_dir / job_id}"
            )
        return f"unknown job {job_id!r}"

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued jobs leave the queue immediately; a
        running job finishes its batch but its result is discarded."""
        job = self.get(job_id)
        if job.finished:
            return job
        if self._coalescer.remove(job_id) is not None:
            self._finish(job, CANCELLED, error="cancelled by client")
        else:
            job.cancel_requested = True
            job.note("cancel_requested")
        return job

    def stats(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "queue_depth": len(self._coalescer),
            "jobs_in_memory": len(self._jobs),
            "platforms_active": sorted(self._states),
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while True:
                self._expire_queued()
                batch = self._coalescer.take_batch()
                if not batch:
                    break
                self._idle.clear()
                try:
                    await self._execute_batch(batch)
                finally:
                    self._idle.set()

    def _expire_queued(self) -> None:
        now = self._clock()
        expired = [
            entry[0]
            for entry in list(self._coalescer._pending)
            if entry[0].deadline is not None
            and entry[0].deadline <= now
        ]
        for job in expired:
            self._coalescer.remove(job.id)
            self._finish(job, TIMEOUT, error="deadline expired in queue")

    async def _execute_batch(self, batch: List[Job]) -> None:
        self._batch_seq += 1
        batch_id = f"batch-{self._batch_seq:06d}"
        start = self._clock()
        for job in batch:
            job.status = RUNNING
            job.batch_id = batch_id
            job.note("batched", batch_id=batch_id, size=len(batch))
        if len(batch) > 1:
            self.counters["coalesced_jobs"] += len(batch)
        self.counters["batches"] += 1
        self.event_log.emit(
            "job_batched",
            batch_id=batch_id,
            job_ids=[j.id for j in batch],
            kinds=[j.kind for j in batch],
            platform=batch[0].spec.platform,
            coalesced=len(batch) > 1,
        )
        job_log = _JobLog(
            self.event_log, batch_id, [j.id for j in batch]
        )
        loop = asyncio.get_running_loop()
        try:
            if batch[0].kind == "virus":
                payloads = [
                    await loop.run_in_executor(
                        self._executor,
                        self._run_virus,
                        batch[0],
                        job_log,
                    )
                ]
            else:
                payloads = await loop.run_in_executor(
                    self._executor,
                    self._run_chain_batch,
                    batch,
                    job_log,
                )
        except Exception as exc:  # audit: ignore[R6]
            # Transport, not swallow: the failure becomes each job's
            # terminal error record and a job_done(status=failed)
            # event; the service itself must survive any batch.
            for job in batch:
                self._finish(
                    job,
                    FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                    elapsed_s=self._clock() - start,
                )
            return
        for job, payload in zip(batch, payloads):
            self._finish(
                job,
                DONE,
                result=payload,
                elapsed_s=self._clock() - start,
            )

    # ------------------------------------------------------------------
    # worker-thread bodies (numeric; no event-loop interaction)
    # ------------------------------------------------------------------
    def _run_chain_batch(
        self, batch: List[Job], job_log: _JobLog
    ) -> List[Dict[str, Any]]:
        first = batch[0].spec
        state = self._platform_state(first.platform)
        band = first.band or state.characterizer.band
        samples = (
            first.samples if first.samples is not None else self.samples
        )
        items: List[ChainItem] = []
        slices: List[Tuple[int, int]] = []
        for job in batch:
            start = len(items)
            items.extend(job._items)
            slices.append((start, len(items)))
        request = ChainRequest(
            cluster=state.cluster,
            items=items,
            band=tuple(band),
            samples=samples,
            want_amplitude=True,
            want_trace=True,
        )
        result = state.characterizer.chain_path().run(
            request, event_log=job_log
        )
        payloads = []
        for job, (lo, hi) in zip(batch, slices):
            payloads.append(
                self._payload(job.spec, state, result.items[lo:hi])
            )
        return payloads

    def _payload(
        self, spec, state: _PlatformState, item_results
    ) -> Dict[str, Any]:
        band = spec.band or state.characterizer.band
        if spec.kind == "measure":
            r = item_results[0]
            measurement = MeasurementResult(
                cluster_name=state.cluster.name,
                program_name=r.item.program.name,
                amplitude_w=r.amplitude_w,
                peak_frequency_hz=r.peak_frequency_hz,
                loop_frequency_hz=r.loop_frequency_hz,
                band_hz=tuple(band),
                frequencies_hz=r.trace.frequencies_hz,
                power_dbm=r.trace.power_dbm,
            )
            return measurement.to_payload()
        # sweep
        points = [
            SweepPoint(
                clock_hz=r.clock_hz,
                loop_frequency_hz=r.loop_frequency_hz,
                amplitude_w=r.amplitude_w,
            )
            for r in item_results
        ]
        sweep = SweepResult(
            cluster_name=state.cluster.name,
            powered_cores=item_results[0].powered_cores,
            points=points,
        )
        return sweep.to_payload()

    def _run_virus(self, job: Job, job_log: _JobLog) -> Dict[str, Any]:
        from repro.core.virusgen import VirusGenerator

        spec = job.spec
        state = self._platform_state(spec.platform)
        resume = None
        resume_path = self._resume_path(spec)
        if resume_path is not None:
            from repro.faults.errors import CorruptArtifact
            from repro.io.serialization import load_checkpoint

            try:
                resume = load_checkpoint(resume_path, event_log=job_log)
            except (OSError, CorruptArtifact) as exc:
                # Name the file as the client did: the loader's message
                # carries the server's absolute path.
                reason = (
                    "no checkpoint found"
                    if isinstance(exc, FileNotFoundError)
                    else "no valid checkpoint"
                )
                raise BadRequest(
                    f"cannot resume from resume_dir {spec.resume_dir!r}: "
                    f"{reason}"
                ) from None
        generator = VirusGenerator(
            state.cluster,
            state.characterizer,
            config=spec.ga_config(),
            event_log=job_log,
        )
        return generator.generate_em_virus(resume=resume).to_payload()

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _finish(
        self,
        job: Job,
        status: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        elapsed_s: Optional[float] = None,
    ) -> None:
        if job.finished:
            return
        if status == DONE and job.cancel_requested:
            status, result, error = (
                CANCELLED,
                None,
                "cancelled while running (result discarded)",
            )
        elif status == DONE and (
            job.deadline is not None and job.deadline <= self._clock()
        ):
            status, result, error = (
                TIMEOUT,
                None,
                "deadline expired during execution (result discarded)",
            )
        job.status = status
        job.result = result
        job.error = error
        job.note("finished", status=status)
        self.counters[status] = self.counters.get(status, 0) + 1
        if job.future is not None and not job.future.done():
            if status == DONE:
                job.future.set_result(result)
            elif status == TIMEOUT:
                job.future.set_exception(JobTimeout(error))
            elif status == CANCELLED:
                job.future.set_exception(JobCancelled(error))
            else:
                job.future.set_exception(ServiceError(error))
        if status == DONE and self.state_dir is not None:
            self._persist(job)
        self.event_log.emit(
            "job_done",
            job_id=job.id,
            status=status,
            batch_id=job.batch_id,
            error=error,
            elapsed_s=(
                round(elapsed_s, 6) if elapsed_s is not None else None
            ),
        )
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.max_finished_jobs:
            evicted = self._finished_order.pop(0)
            self._jobs.pop(evicted, None)

    def _persist(self, job: Job) -> None:
        job_dir = self.state_dir / job.id
        job_dir.mkdir(parents=True, exist_ok=True)
        (job_dir / RESULT_FILENAME).write_text(
            json.dumps(job.result, indent=2, sort_keys=True),
            encoding="utf-8",
        )
        manifest = RunManifest.create(
            command=f"service-{job.kind}",
            platform=job.spec.platform,
            seed=self.seed,
            config=job.spec.to_dict(),
        )
        manifest.extra.update(
            {
                "job_id": job.id,
                "tenant": job.tenant,
                "status": job.status,
                "batch_id": job.batch_id,
            }
        )
        manifest.add_artifact(RESULT_FILENAME)
        manifest.write(job_dir)
