"""Parallel fitness evaluation for the GA engine, with resilience.

A generation's unseen genomes are independent measurements, so they can
be fanned out across worker processes.  The dispatch model is:

1. the engine dedupes the generation by genome against its memo cache,
2. unseen programs are split into one contiguous shard per worker and
   submitted as a single whole-population request to a
   :class:`PersistentWorkerPool` -- long-lived workers that received
   the fitness spec once at pool start, warmed their
   :class:`~repro.chain.session.SimulationSession` once, and keep
   those caches hot across generations, and
3. per-shard results are reassembled strictly in submission order.

Shards and results travel as plain pickle over per-worker task queues
and one shared result queue.  Every message is pickled by its sender
before ``Queue.put`` (:func:`_send`): the queue's feeder thread drops a
message it cannot pickle, which would leave the receiver waiting
forever.  Pickling in the sender raises there instead -- in the parent
as an ordinary error, and in a worker as a process exit that the pool
reports as a crash.

Ordering is deterministic: results are keyed by shard index and each
shard preserves item order, so a *pure* fitness function produces
bit-identical ``GAResult`` histories at any worker count (the
``workers=4 == workers=1`` determinism test).  A fitness that mutates
hidden state per call (e.g. a spectrum analyzer advancing its RNG)
keeps that state per-process under parallel dispatch, so its scores
are only reproducible serially -- leave ``workers=1`` for those.

Fitness callables must be picklable to cross the process boundary
(plain functions, dataclass instances such as
:class:`repro.ga.fitness.ClusterFitness` -- not closures).  An
unpicklable fitness degrades gracefully to serial evaluation.

Resilience (see :mod:`repro.faults`): with a
:class:`~repro.faults.RetryPolicy` attached, transient faults raised
inside batch evaluation are retried with the fitness's RNG state
rewound (``fitness_state`` protocol), so a retried-to-success run is
bit-identical to a fault-free one.  Crashed workers
(:class:`~repro.faults.WorkerCrash`, dead worker processes, dispatch
timeouts) get their shards re-dispatched -- the pool respawns dead or
hung workers with a full warm-up replay, while a worker that merely
*raised* an injected ``WorkerCrash`` stays alive (its fault counters
keep advancing, exactly like the historical executor semantics).
After ``max_pool_restarts`` crash events the evaluator emits
``degraded_to_serial`` and finishes the campaign in-process.  A genome
that keeps failing after per-item retries is *quarantined*: it scores
:data:`PENALTY_SCORE` (emitting ``genome_quarantined``) so the GA
keeps advancing instead of dying with the instrument.

Observability: the pool emits one ``worker_warmup`` event per (re)spawn
-- worker id, pid, warm-up wall time, whether it replaced a crashed
worker, and its session cache counters after warm-up -- and records each
worker's latest session cache counters (``worker_stats``) so the GA
engine can fold per-worker cache-hit rates into ``generation_end``.
Each worker times its shards' kernel sections
(:mod:`repro.obs.timing`) and returns the snapshot with the results;
the parent merges it into the collector active where it dispatched,
so ``generation_end.kernel_timings`` include the worker-side time.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cpu.program import LoopProgram
from repro.faults.errors import RETRYABLE_FAULTS, StageTimeout, WorkerCrash
from repro.faults.plan import NULL_INJECTOR, FaultInjector
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.ga.fitness import FitnessEvaluation
from repro.obs.events import NULL_LOG, EventLog
from repro.obs.timing import active_kernel_timings, collect_kernel_timings

#: Score assigned to quarantined genomes.  Real fitness metrics
#: (EM amplitude in watts, droop in volts) are strictly positive, so
#: zero ranks a quarantined individual below every healthy one while
#: keeping generation means finite.
PENALTY_SCORE = 0.0

#: Crash events (WorkerCrash / dead worker / dispatch timeout) after
#: which the evaluator stops re-dispatching and finishes serially.
DEFAULT_MAX_POOL_RESTARTS = 3

#: Receive-loop poll granularity; also bounds crash-detection latency.
_POLL_S = 0.05

#: Wall-clock budget for a worker to finish warm-up and report ready.
_START_TIMEOUT_S = 120.0


def penalty_evaluation() -> FitnessEvaluation:
    """The placeholder evaluation a quarantined genome receives."""
    return FitnessEvaluation(
        score=PENALTY_SCORE,
        dominant_frequency_hz=0.0,
        max_droop_v=0.0,
        peak_to_peak_v=0.0,
        ipc=0.0,
        loop_frequency_hz=0.0,
    )


def shard(
    programs: Sequence[LoopProgram], workers: int
) -> List[List[LoopProgram]]:
    """Split ``programs`` into at most ``workers`` contiguous shards.

    Shard sizes differ by at most one, with the larger shards first;
    concatenating the shards reproduces the input order exactly.
    """
    count = min(workers, len(programs))
    base, extra = divmod(len(programs), count)
    shards = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        shards.append(list(programs[start:start + size]))
        start += size
    return shards


def _evaluate_with(fitness: Callable, programs: Sequence) -> List:
    """Evaluate in order, batched when the fitness supports it."""
    batch = getattr(fitness, "evaluate_batch", None)
    if batch is not None:
        return list(batch(programs))
    return [fitness(p) for p in programs]


def _state_hooks(
    fitness: Callable,
) -> Tuple[Optional[Callable], Optional[Callable]]:
    """(capture, restore) fitness-state hooks, if the fitness has them."""
    return (
        getattr(fitness, "fitness_state", None),
        getattr(fitness, "restore_fitness_state", None),
    )


def _send(q, *message) -> None:
    """Pickle ``message`` here and put the bytes on ``q``.

    ``Queue.put`` of the bare tuple would pickle it later in the
    queue's feeder thread, which drops a message it cannot pickle and
    leaves the receiver waiting forever; pickling here raises instead.
    """
    q.put(pickle.dumps(message))


def _transportable(exc: BaseException) -> BaseException:
    """``exc`` if it pickles, else a ``RuntimeError`` with its text."""
    try:
        pickle.dumps(exc)
    except (pickle.PicklingError, TypeError, AttributeError):
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------
def _run_shard(
    fitness: Callable,
    injector: FaultInjector,
    policy: Optional[RetryPolicy],
    programs: Sequence,
) -> List:
    """One shard, inside a worker: fault site + local transient retry.

    Transient chain faults are retried here with the worker-local
    fitness state rewound; anything that survives the worker's budget
    (including :class:`~repro.faults.WorkerCrash`) is transported to
    the parent, which re-dispatches or salvages the shard.
    Worker-side retries cannot reach the parent's event log, so they
    are silent; the parent-side serial path is the one the chaos suite
    asserts events from.
    """
    injector.visit("worker.shard")
    if policy is None:
        return _evaluate_with(fitness, programs)
    capture, restore = _state_hooks(fitness)
    return call_with_retry(
        lambda: _evaluate_with(fitness, programs),
        policy,
        scope="worker-shard",
        capture_state=capture,
        restore_state=restore,
    )


def _worker_main(worker_id: int, task_q, result_q, payload: bytes) -> None:
    """Long-lived worker loop: warm up once, then serve shards.

    Results are pickled outside the handler that transports failures,
    so a worker whose results cannot be pickled exits and the parent
    handles the death as a crash.
    """
    fitness, injector, policy = pickle.loads(payload)
    t0 = time.perf_counter()
    warm = getattr(fitness, "warm_up", None)
    try:
        warm_stats = warm() if warm is not None else None
    # Warm-up failures (whatever they are) must surface in the
    # parent with their original type, not hang the pool start.
    except BaseException as exc:  # audit: ignore[R6]
        _send(result_q, "raised", worker_id, None, _transportable(exc))
        return
    warmup_s = round(time.perf_counter() - t0, 6)
    _send(result_q, "ready", worker_id, warmup_s, warm_stats)
    while True:
        message = pickle.loads(task_q.get())
        if message[0] == "stop":
            return
        _, task_key, programs = message
        try:
            with collect_kernel_timings() as timings:
                evaluations = _run_shard(
                    fitness, injector, policy, programs
                )
        # Transport every failure (fault, crash, bug) to the
        # parent, which re-raises or handles it by type.
        except BaseException as exc:  # audit: ignore[R6]
            _send(
                result_q, "raised", worker_id, task_key, _transportable(exc)
            )
            continue
        stats_hook = getattr(fitness, "session_stats", None)
        stats = stats_hook() if stats_hook is not None else None
        _send(
            result_q,
            "ok",
            worker_id,
            task_key,
            evaluations,
            stats,
            timings.snapshot(),
        )


# ---------------------------------------------------------------------------
# the parent-side pool
# ---------------------------------------------------------------------------
@dataclass
class ShardOutcome:
    """What one dispatched shard came back as.

    ``kind`` is ``"ok"`` (``results`` holds the evaluations),
    ``"raised"`` (the worker transported ``error`` -- an injected
    fault, a :class:`WorkerCrash`, or a genuine bug) or ``"crash"``
    (the worker process died or timed out; ``error`` carries the
    :class:`BrokenProcessPool` / :class:`StageTimeout`).
    """

    kind: str
    results: Optional[List] = None
    error: Optional[BaseException] = None


@dataclass
class _WorkerHandle:
    worker_id: int
    process: object
    task_q: object
    state: str = "spawning"  # spawning -> idle -> busy (-> dead)
    respawned: bool = False
    task_key: Optional[int] = None
    shard_index: Optional[int] = None
    deadline: Optional[float] = None
    timeout_s: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.state != "dead" and self.process.is_alive()


class PersistentWorkerPool:
    """A fixed set of long-lived, warm-cache evaluation workers.

    The protocol is deliberately explicit (per-worker task queues, one
    shared result queue) rather than executor-shaped: the parent always
    knows which worker holds which shard, which is what makes crash
    attribution and deterministic re-dispatch simple to reason about.

    Parameters
    ----------
    payload:
        ``pickle.dumps((fitness, injector, retry_policy))`` -- shipped
        to each worker exactly once per (re)spawn.
    workers:
        Pool size (>= 1).
    event_log:
        Destination for ``worker_warmup`` events.
    """

    def __init__(
        self,
        payload: bytes,
        workers: int,
        event_log: EventLog = NULL_LOG,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._payload = payload
        self.workers = workers
        self._log = event_log
        self._result_q = None
        self._handles: List[_WorkerHandle] = []
        self._task_seq = 0
        self._closed = False
        #: Workers respawned after a crash/timeout (warm-up replays).
        self.respawns = 0
        #: worker_id -> latest session cache-stats snapshot.
        self.worker_stats: Dict[int, dict] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn all workers and block until each finished warm-up."""
        if self._closed:
            raise ValueError("pool is closed")
        if self._handles:
            return
        self._result_q = multiprocessing.Queue()
        self._handles = [
            self._spawn(i, respawned=False) for i in range(self.workers)
        ]
        self._await_warmups(strict=True)

    def _spawn(self, worker_id: int, respawned: bool) -> _WorkerHandle:
        task_q = multiprocessing.Queue()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(worker_id, task_q, self._result_q, self._payload),
            name=f"repro-ga-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        if respawned:
            self.respawns += 1
        return _WorkerHandle(
            worker_id=worker_id,
            process=process,
            task_q=task_q,
            respawned=respawned,
        )

    def _await_warmups(self, strict: bool) -> None:
        """Block until no worker is still warming up.

        At pool start (``strict``) a worker that dies or overruns the
        warm-up budget fails the start with :class:`BrokenProcessPool`.
        After a dispatch this waits for respawned replacements:
        otherwise the last shard can complete on a surviving worker
        while a replacement's ``worker_warmup`` event races pool close,
        and the next dispatch starts against a half-warm pool.  A
        replacement that dies there is retired, not raised: the
        caller's degrade policy owns that decision.
        """
        deadline = time.monotonic() + _START_TIMEOUT_S
        while any(h.state == "spawning" for h in self._handles):
            self._drain_one(_POLL_S, {}, {})
            died = self._retire_failed_warmups()
            if strict and died:
                raise BrokenProcessPool(
                    f"worker {died[0].worker_id} died during warm-up"
                )
            if time.monotonic() > deadline:
                if strict:
                    raise BrokenProcessPool(
                        f"worker warm-up exceeded {_START_TIMEOUT_S}s"
                    )
                break  # pragma: no cover

    def _retire_failed_warmups(self) -> List[_WorkerHandle]:
        """Mark workers that died while warming up dead; return them."""
        died = [
            h
            for h in self._handles
            if h.state == "spawning" and not h.process.is_alive()
        ]
        for handle in died:
            self._mark_dead(handle)
        return died

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        handle.state = "dead"
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover
                handle.process.kill()
                handle.process.join(timeout=1.0)
        handle.task_q.close()
        handle.task_q.cancel_join_thread()

    def _respawn(self, handle: _WorkerHandle) -> _WorkerHandle:
        self._mark_dead(handle)
        replacement = self._spawn(handle.worker_id, respawned=True)
        index = self._handles.index(handle)
        self._handles[index] = replacement
        return replacement

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        self._closed = True
        for handle in self._handles:
            if handle.state in ("spawning", "idle", "busy"):
                if handle.alive:
                    try:
                        _send(handle.task_q, "stop")
                    except (OSError, ValueError):  # pragma: no cover
                        pass
        for handle in self._handles:
            if handle.state != "dead":
                handle.process.join(timeout=2.0)
                self._mark_dead(handle)
        self._handles = []
        if self._result_q is not None:
            self._result_q.close()
            self._result_q.cancel_join_thread()
            self._result_q = None

    # -- dispatch ------------------------------------------------------
    def dispatch(
        self,
        shards: Dict[int, Sequence],
        timeout_s: Optional[float] = None,
    ) -> Dict[int, ShardOutcome]:
        """Evaluate ``shards`` (index -> programs) across the pool.

        Returns one :class:`ShardOutcome` per input index.  Crashed or
        timed-out workers are respawned (with warm-up replay) before
        this call returns, but their shards are *not* silently
        retried -- the caller owns the re-dispatch/degrade policy.
        """
        self.start()
        todo = sorted(shards)
        outcomes: Dict[int, ShardOutcome] = {}
        assigned: Dict[int, _WorkerHandle] = {}  # task_key -> handle
        while len(outcomes) < len(shards):
            todo = self._assign(todo, shards, assigned, timeout_s)
            if todo and not assigned and not any(
                h.state in ("spawning", "idle") and h.alive
                for h in self._handles
            ):
                # Every worker is gone and nothing is in flight: fail
                # the rest as crashes so the caller can degrade.
                for index in todo:
                    outcomes[index] = ShardOutcome(
                        kind="crash",
                        error=BrokenProcessPool(
                            "no live workers left in the pool"
                        ),
                    )
                break
            self._drain_one(
                self._poll_timeout(assigned), assigned, outcomes
            )
            self._reap(assigned, outcomes)
        self._await_warmups(strict=False)
        return outcomes

    def _assign(
        self,
        todo: List[int],
        shards: Dict[int, Sequence],
        assigned: Dict[int, _WorkerHandle],
        timeout_s: Optional[float],
    ) -> List[int]:
        remaining = list(todo)
        for handle in self._handles:
            if not remaining:
                break
            if handle.state != "idle" or not handle.alive:
                continue
            index = remaining.pop(0)
            self._task_seq += 1
            task_key = self._task_seq
            _send(handle.task_q, "shard", task_key, shards[index])
            handle.state = "busy"
            handle.task_key = task_key
            handle.shard_index = index
            handle.deadline = (
                time.monotonic() + timeout_s
                if timeout_s is not None
                else None
            )
            handle.timeout_s = timeout_s
            assigned[task_key] = handle
        return remaining

    def _poll_timeout(
        self, assigned: Dict[int, _WorkerHandle]
    ) -> float:
        timeout = _POLL_S
        now = time.monotonic()
        for handle in assigned.values():
            if handle.deadline is not None:
                timeout = min(timeout, handle.deadline - now)
        return max(timeout, 0.001)

    def _drain_one(
        self,
        timeout: float,
        assigned: Dict[int, _WorkerHandle],
        outcomes: Dict[int, ShardOutcome],
    ) -> None:
        """Receive and apply at most one worker message."""
        try:
            message = pickle.loads(self._result_q.get(timeout=timeout))
        except queue_module.Empty:
            return
        kind, worker_id = message[:2]
        if kind == "ready":
            _, _, warmup_s, warm_stats = message
            for handle in self._handles:
                if (
                    handle.worker_id == worker_id
                    and handle.state == "spawning"
                ):
                    handle.state = "idle"
                    if warm_stats is not None:
                        self.worker_stats[worker_id] = warm_stats
                    self._log.emit(
                        "worker_warmup",
                        worker=worker_id,
                        pid=handle.process.pid,
                        warmup_s=warmup_s,
                        respawned=handle.respawned,
                        cache_stats=warm_stats,
                    )
                    break
            return
        task_key = message[2]
        if kind == "raised" and task_key is None:
            # A worker failed inside warm-up: surface the original
            # exception to whoever is waiting on the pool.
            raise message[3]
        handle = assigned.pop(task_key, None)
        if handle is None:
            return  # stale message from a worker we already recycled
        index = handle.shard_index
        handle.state = "idle"
        handle.task_key = None
        handle.shard_index = None
        handle.deadline = None
        if kind == "ok":
            _, _, _, results, stats, timings = message
            if stats is not None:
                self.worker_stats[worker_id] = stats
            collector = active_kernel_timings()
            if collector is not None:
                collector.merge(timings)
            outcomes[index] = ShardOutcome(kind="ok", results=results)
        else:  # "raised"
            outcomes[index] = ShardOutcome(kind="raised", error=message[3])

    def _reap(
        self,
        assigned: Dict[int, _WorkerHandle],
        outcomes: Dict[int, ShardOutcome],
    ) -> None:
        """Convert dead / overdue workers into crash outcomes."""
        # A worker that died during a warm-up replay never gets an
        # assignment; retire its handle so liveness checks see it.
        self._retire_failed_warmups()
        now = time.monotonic()
        for task_key, handle in list(assigned.items()):
            error: Optional[BaseException] = None
            if not handle.process.is_alive():
                error = BrokenProcessPool(
                    f"worker {handle.worker_id} died mid-shard "
                    f"(exitcode {handle.process.exitcode})"
                )
            elif (
                handle.deadline is not None and now > handle.deadline
            ):
                error = StageTimeout(
                    f"shard {handle.shard_index} exceeded "
                    f"{handle.timeout_s}s dispatch budget",
                    site="worker.shard",
                )
            if error is None:
                continue
            del assigned[task_key]
            outcomes[handle.shard_index] = ShardOutcome(
                kind="crash", error=error
            )
            if not self._closed:
                self._respawn(handle)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the evaluator the GA engine drives
# ---------------------------------------------------------------------------
class ParallelEvaluator:
    """Evaluates batches of programs across a persistent worker pool.

    Parameters
    ----------
    fitness:
        The fitness callable.  If it cannot be pickled the evaluator
        silently evaluates serially in-process (``parallel`` is False).
    workers:
        Pool size; 1 means serial.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy`.  Without one,
        transient faults propagate to the caller unchanged (the
        historical behavior); with one, batches are retried, failing
        shards re-dispatched and persistent failures quarantined.
    fault_injector:
        Optional armed :class:`~repro.faults.FaultInjector`, shipped to
        workers alongside the fitness (site ``worker.shard``).
    event_log:
        Destination for ``fault_injected`` / ``retry_attempt`` /
        ``worker_warmup`` / ``degraded_to_serial`` /
        ``genome_quarantined`` events.
    max_pool_restarts:
        Crash events tolerated before degrading to serial execution.
    """

    def __init__(
        self,
        fitness: Callable,
        workers: int,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        event_log: EventLog = NULL_LOG,
        max_pool_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        self._fitness = fitness
        self.workers = workers
        self._policy = retry_policy
        self._injector = (
            fault_injector if fault_injector is not None else NULL_INJECTOR
        )
        self._log = event_log
        self._max_pool_restarts = max_pool_restarts
        self._pool: Optional[PersistentWorkerPool] = None
        #: The pickled worker spec every (re)spawn receives; ``None``
        #: when serial or when the fitness cannot be pickled.
        self._payload: Optional[bytes] = None
        #: Crash events seen so far (worker deaths, injected crashes,
        #: dispatch timeouts).
        self.pool_crashes = 0
        #: Whether the evaluator has permanently fallen back to serial.
        self.degraded = False
        #: Genomes quarantined with a penalty score this run.
        self.quarantined: Set[Tuple] = set()
        if workers > 1:
            self._payload = self._pickle_payload()

    def _pickle_payload(self) -> Optional[bytes]:
        """The worker spec, or ``None`` if it cannot be pickled.

        Only pickling failures mean "fall back to serial"; anything
        else (KeyboardInterrupt, injected FaultErrors, AuditViolations)
        must propagate with its traceback.
        """
        try:
            return pickle.dumps(
                (self._fitness, self._injector, self._policy)
            )
        except (pickle.PicklingError, TypeError, AttributeError):
            return None

    @property
    def parallel(self) -> bool:
        """Whether batches actually fan out to worker processes."""
        return self._payload is not None and not self.degraded

    def evaluate(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        """Evaluate ``programs``, returning results in input order."""
        if not self.parallel or len(programs) <= 1:
            return self._evaluate_serial(programs)
        return self._evaluate_parallel(programs)

    def warm_up(self) -> None:
        """Start the worker pool eagerly (no-op when serial).

        Spawns the workers and blocks until every worker finished its
        fitness ``warm_up()`` hook, so the first ``evaluate`` call --
        and anything the caller times around it -- runs against a
        started pool.  Emits one ``worker_warmup`` event per worker.
        """
        if self.parallel:
            self._ensure_pool()

    def worker_stats(self) -> Dict[int, dict]:
        """Latest per-worker session cache stats (worker id keyed)."""
        if self._pool is None:
            return {}
        return dict(self._pool.worker_stats)

    # ------------------------------------------------------------------
    # serial path (workers=1, unpicklable fitness, or degraded)
    # ------------------------------------------------------------------
    def _evaluate_serial(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        if self._policy is None:
            return _evaluate_with(self._fitness, programs)
        capture, restore = _state_hooks(self._fitness)
        try:
            return call_with_retry(
                lambda: _evaluate_with(self._fitness, programs),
                self._policy,
                event_log=self._log,
                scope="batch",
                capture_state=capture,
                restore_state=restore,
            )
        except RETRYABLE_FAULTS:
            # The whole batch kept failing; salvage item by item so one
            # poisoned genome cannot take the generation down with it.
            return self._salvage_items(programs)

    def _salvage_items(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        capture, restore = _state_hooks(self._fitness)
        results: List[FitnessEvaluation] = []
        for program in programs:
            try:
                results.append(
                    call_with_retry(
                        lambda p=program: _evaluate_with(
                            self._fitness, [p]
                        )[0],
                        self._policy,
                        event_log=self._log,
                        scope="item",
                        capture_state=capture,
                        restore_state=restore,
                    )
                )
            except RETRYABLE_FAULTS as exc:
                genome = program.genome()
                self.quarantined.add(genome)
                self._log.emit(
                    "genome_quarantined",
                    program=program.name,
                    site=getattr(exc, "site", None),
                    kind=getattr(exc, "kind", type(exc).__name__),
                    retries=self._policy.max_retries,
                    penalty_score=PENALTY_SCORE,
                )
                results.append(penalty_evaluation())
        return results

    # ------------------------------------------------------------------
    # parallel path: persistent pool dispatch with crash recovery
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> PersistentWorkerPool:
        if self._pool is None:
            self._pool = PersistentWorkerPool(
                self._payload, self.workers, event_log=self._log
            )
            self._pool.start()
        return self._pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _record_crash(self, shard_index: int, exc: BaseException) -> None:
        self.pool_crashes += 1
        if isinstance(exc, WorkerCrash):
            self._log.emit(
                "fault_injected",
                site=exc.site,
                kind=exc.kind,
                scope="worker-shard",
                error=str(exc),
            )
        self._log.emit(
            "worker_crash",
            shard=shard_index,
            crashes=self.pool_crashes,
            max_pool_restarts=self._max_pool_restarts,
            error=str(exc) or type(exc).__name__,
        )

    def _evaluate_parallel(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        shards = shard(programs, self.workers)
        results: List[Optional[List[FitnessEvaluation]]] = (
            [None] * len(shards)
        )
        remaining = list(range(len(shards)))
        retry_counts = [0] * len(shards)
        timeout = self._policy.timeout_s if self._policy else None
        while remaining:
            if self.degraded:
                for i in remaining:
                    results[i] = self._evaluate_serial(shards[i])
                remaining = []
                break
            pool = self._ensure_pool()
            outcomes = pool.dispatch(
                {i: shards[i] for i in remaining}, timeout_s=timeout
            )
            next_remaining: List[int] = []
            for i in remaining:
                outcome = outcomes[i]
                if outcome.kind == "ok":
                    results[i] = outcome.results
                    continue
                exc = outcome.error
                if outcome.kind == "crash" or isinstance(
                    exc, WorkerCrash
                ):
                    # Dead/hung worker (already respawned warm by the
                    # pool) or an injected crash from a still-healthy
                    # worker: either way, re-dispatch the shard.
                    self._record_crash(i, exc)
                    next_remaining.append(i)
                elif isinstance(exc, RETRYABLE_FAULTS):
                    # A transient fault survived the worker's local
                    # retries (or no policy is attached).
                    if self._policy is None:
                        raise exc
                    retry_counts[i] += 1
                    if retry_counts[i] <= self._policy.max_retries:
                        self._log.emit(
                            "retry_attempt",
                            scope="shard",
                            attempt=retry_counts[i],
                            max_retries=self._policy.max_retries,
                            site=getattr(exc, "site", None),
                            kind=getattr(exc, "kind", None),
                            delay_s=0.0,
                        )
                        next_remaining.append(i)
                    else:
                        results[i] = self._salvage_items(shards[i])
                else:
                    raise exc
            if (
                next_remaining
                and self.pool_crashes > self._max_pool_restarts
            ):
                self.degraded = True
                self._teardown_pool()
                self._log.emit(
                    "degraded_to_serial",
                    crashes=self.pool_crashes,
                    max_pool_restarts=self._max_pool_restarts,
                    pending_shards=len(next_remaining),
                )
            remaining = next_remaining
        flattened: List[FitnessEvaluation] = []
        for shard_results in results:
            flattened.extend(shard_results)
        return flattened

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._teardown_pool()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
