"""Job vocabulary of the measurement service.

A job is one client request -- ``measure``, ``sweep`` or ``virus`` --
described by a typed, JSON-round-trippable spec.  Parsing a spec
checks the type and range of every field (counts are integers of at
least one, seeds non-negative integers, clocks and voltages finite
positive numbers, virus fields within :class:`~repro.ga.engine.GAConfig`'s
own bounds, and program lengths, sample counts, clock lists, virus
populations and generation counts at most :data:`MAX_PROGRAM_LENGTH`,
:data:`MAX_SAMPLES`, :data:`MAX_CLOCKS`, :data:`MAX_POPULATION` and
:data:`MAX_GENERATIONS`), so a malformed request is rejected with one
:class:`BadRequest` naming the field before it can occupy queue
capacity; jobs that pass validation move through the lifecycle
``queued -> running -> done`` (or ``failed`` / ``timeout`` /
``cancelled``).

Every service-level error carries an HTTP status so the stdlib front
end (:mod:`repro.service.http`) can map exceptions to responses
without a translation table of its own; the in-proc client surfaces
the same exceptions directly.
"""

from __future__ import annotations

import asyncio
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ga.engine import GAConfig

JOB_KINDS = ("measure", "sweep", "virus")

#: Upper bounds on a submission's sizes, far above the paper's values
#: (50-instruction loops, 30 analyzer samples, 55 clock points, a GA
#: population of 50 over 60 generations).  The service builds a measure
#: job's program on its event loop at submit time, a coalesced batch
#: draws ``samples`` noise sweeps of every item in one block, and a
#: virus job holds the single worker thread for its whole campaign, so
#: an unbounded size would stall every client.
MAX_PROGRAM_LENGTH = 1000
MAX_SAMPLES = 1000
MAX_CLOCKS = 1000
MAX_POPULATION = 1000
MAX_GENERATIONS = 1000

#: Lifecycle states (terminal: done, failed, timeout, cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"
CANCELLED = "cancelled"
TERMINAL_STATES = (DONE, FAILED, TIMEOUT, CANCELLED)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------
class ServiceError(Exception):
    """Base service error; ``http_status`` maps it onto the wire."""

    http_status = 500


class BadRequest(ServiceError):
    """Malformed or unsatisfiable job spec."""

    http_status = 400


class UnknownJob(ServiceError):
    """Retrieval of a job id the service has no record of."""

    http_status = 404


class RateLimited(ServiceError):
    """The tenant's token bucket is empty: back off and retry."""

    http_status = 429

    def __init__(self, tenant: str, retry_after_s: float):
        self.tenant = tenant
        self.retry_after_s = retry_after_s
        super().__init__(
            f"tenant {tenant!r} rate-limited; retry in "
            f"{retry_after_s:.3f} s"
        )


class QueueFull(ServiceError):
    """The pending queue is at capacity: shed load, don't buffer."""

    http_status = 429

    def __init__(self, depth: int):
        self.depth = depth
        super().__init__(
            f"pending queue full ({depth} jobs); retry later"
        )


class JobTimeout(ServiceError):
    """The job's deadline expired before a result was delivered."""

    http_status = 408


class JobCancelled(ServiceError):
    """The job was cancelled before delivering a result."""

    http_status = 409


class ServiceClosed(ServiceError):
    """Submission after shutdown began."""

    http_status = 503


# ---------------------------------------------------------------------------
# field parsing
# ---------------------------------------------------------------------------
def _integer(
    name: str,
    value: Any,
    minimum: Optional[int] = None,
    default: Optional[int] = None,
    maximum: Optional[int] = None,
) -> Optional[int]:
    """``value`` as an int in ``minimum..maximum``; ``None`` (an absent
    or null field) gives ``default``."""
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadRequest(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise BadRequest(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise BadRequest(f"{name} must be <= {maximum}, got {value}")
    return int(value)


def _real(
    name: str,
    value: Any,
    positive: bool = True,
    default: Optional[float] = None,
) -> Optional[float]:
    """``value`` as a finite float, positive unless ``positive`` is
    false; ``None`` (an absent or null field) gives ``default``."""
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadRequest(f"{name} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise BadRequest(f"{name} must be finite, got {value!r}")
    if positive and number <= 0.0:
        raise BadRequest(f"{name} must be positive, got {value!r}")
    return number


def _text(name: str, value: Any) -> Optional[str]:
    """``value`` as a string; ``None`` passes through."""
    if value is not None and not isinstance(value, str):
        raise BadRequest(f"{name} must be a string, got {value!r}")
    return value


def _platform(kind: str, data: Dict[str, Any]) -> str:
    platform = _text("platform", data.get("platform"))
    if platform is None:
        raise BadRequest(f"{kind} spec needs a platform")
    return platform


def parse_timeout(value: Any) -> Optional[float]:
    """A job's ``timeout_s``: ``None`` (the service default) or a
    finite, positive number of seconds."""
    return _real("timeout_s", value)


def parse_tenant(value: Any) -> str:
    """A job's tenant, which keys its rate-limit bucket."""
    if not isinstance(value, str):
        raise BadRequest(f"tenant must be a string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------
def _band_tuple(value: Any) -> Optional[Tuple[float, float]]:
    if value is None:
        return None
    try:
        lo, hi = float(value[0]), float(value[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise BadRequest(f"band must be a (lo, hi) pair: {exc}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise BadRequest(f"band endpoints must be finite, got {value!r}")
    if lo > hi:
        raise BadRequest(
            f"inverted band: {lo} > {hi} (need band[0] <= band[1])"
        )
    return (lo, hi)



def check_samples(samples: int) -> None:
    """Raise :class:`BadRequest` unless a measurement takes 1 to
    :data:`MAX_SAMPLES` analyzer samples."""
    if samples < 1:
        raise BadRequest(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise BadRequest(f"samples must be <= {MAX_SAMPLES}, got {samples}")


def _samples(value: Any) -> Optional[int]:
    """A spec's ``samples``: ``None`` (the service default) or an
    integer :func:`check_samples` accepts."""
    samples = _integer("samples", value)
    if samples is not None:
        check_samples(samples)
    return samples


@dataclass(frozen=True)
class MeasureSpec:
    """One EM measurement of a program on a platform.

    ``program_seed`` selects a deterministic random loop program
    (``None`` = the paper's canonical high/low probe); operating-point
    fields override the cluster's nominal state per item, exactly like
    :class:`repro.chain.OperatingPoint` -- the service never mutates
    its clusters.
    """

    platform: str
    program_seed: Optional[int] = None
    program_length: int = 8
    active_cores: Optional[int] = None
    clock_hz: Optional[float] = None
    voltage: Optional[float] = None
    powered_cores: Optional[int] = None
    band: Optional[Tuple[float, float]] = None
    samples: Optional[int] = None

    kind = "measure"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "platform": self.platform,
            "program_seed": self.program_seed,
            "program_length": self.program_length,
            "active_cores": self.active_cores,
            "clock_hz": self.clock_hz,
            "voltage": self.voltage,
            "powered_cores": self.powered_cores,
            "band": list(self.band) if self.band else None,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MeasureSpec":
        return cls(
            platform=_platform("measure", data),
            program_seed=_integer(
                "program_seed", data.get("program_seed"), minimum=0
            ),
            program_length=_integer(
                "program_length",
                data.get("program_length"),
                minimum=1,
                default=8,
                maximum=MAX_PROGRAM_LENGTH,
            ),
            active_cores=_integer(
                "active_cores", data.get("active_cores"), minimum=1
            ),
            clock_hz=_real("clock_hz", data.get("clock_hz")),
            voltage=_real("voltage", data.get("voltage")),
            powered_cores=_integer(
                "powered_cores", data.get("powered_cores"), minimum=1
            ),
            band=_band_tuple(data.get("band")),
            samples=_samples(data.get("samples")),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A clock-modulated resonance sweep (Section 5.3's fast probe).

    ``clocks_hz`` defaults to every multiplier-reachable point of the
    platform; ``powered_cores`` models the power-gating studies as a
    per-item override (the live cluster is never gated).
    """

    platform: str
    clocks_hz: Optional[Tuple[float, ...]] = None
    active_cores: Optional[int] = None
    powered_cores: Optional[int] = None
    band: Optional[Tuple[float, float]] = None
    samples: Optional[int] = None

    kind = "sweep"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "platform": self.platform,
            "clocks_hz": (
                list(self.clocks_hz) if self.clocks_hz else None
            ),
            "active_cores": self.active_cores,
            "powered_cores": self.powered_cores,
            "band": list(self.band) if self.band else None,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        platform = _platform("sweep", data)
        clocks = data.get("clocks_hz")
        if clocks is not None and not isinstance(clocks, (list, tuple)):
            raise BadRequest(
                f"clocks_hz must be a list of numbers, got {clocks!r}"
            )
        if clocks is not None and len(clocks) > MAX_CLOCKS:
            raise BadRequest(
                f"clocks_hz must hold at most {MAX_CLOCKS} clocks, "
                f"got {len(clocks)}"
            )
        return cls(
            platform=platform,
            clocks_hz=(
                tuple(
                    _real(f"clocks_hz[{i}]", clock)
                    for i, clock in enumerate(clocks)
                )
                if clocks
                else None
            ),
            active_cores=_integer(
                "active_cores", data.get("active_cores"), minimum=1
            ),
            powered_cores=_integer(
                "powered_cores", data.get("powered_cores"), minimum=1
            ),
            band=_band_tuple(data.get("band")),
            samples=_samples(data.get("samples")),
        )


@dataclass(frozen=True)
class VirusSpec:
    """A GA virus-generation campaign (never coalesced: exclusive).

    ``resume_dir`` names a checkpoint *file*, not a directory, relative
    to the service's ``state_dir``; the service refuses it at
    submission unless it resolves inside that directory (see
    ``MeasurementService._resume_path``).
    """

    platform: str
    generations: int = 3
    population: int = 8
    loop_length: int = 8
    mutation_rate: float = 0.03
    seed: int = 0
    resume_dir: Optional[str] = None

    kind = "virus"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "platform": self.platform,
            "generations": self.generations,
            "population": self.population,
            "loop_length": self.loop_length,
            "mutation_rate": self.mutation_rate,
            "seed": self.seed,
            "resume_dir": self.resume_dir,
        }

    def ga_config(self) -> GAConfig:
        """The campaign's GA settings (one worker: the service's own)."""
        return GAConfig(
            population_size=self.population,
            generations=self.generations,
            loop_length=self.loop_length,
            mutation_rate=self.mutation_rate,
            seed=self.seed,
            workers=1,
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VirusSpec":
        spec = cls(
            platform=_platform("virus", data),
            generations=_integer(
                "generations",
                data.get("generations"),
                default=3,
                maximum=MAX_GENERATIONS,
            ),
            population=_integer(
                "population",
                data.get("population"),
                default=8,
                maximum=MAX_POPULATION,
            ),
            loop_length=_integer(
                "loop_length",
                data.get("loop_length"),
                default=8,
                maximum=MAX_PROGRAM_LENGTH,
            ),
            mutation_rate=_real(
                "mutation_rate",
                data.get("mutation_rate"),
                positive=False,
                default=0.03,
            ),
            seed=_integer("seed", data.get("seed"), minimum=0, default=0),
            resume_dir=_text("resume_dir", data.get("resume_dir")),
        )
        try:
            spec.ga_config()
        except ValueError as exc:
            raise BadRequest(f"virus spec: {exc}") from None
        return spec


SPEC_TYPES = {
    "measure": MeasureSpec,
    "sweep": SweepSpec,
    "virus": VirusSpec,
}


def spec_from_params(kind: str, params: Dict[str, Any]):
    """Parse a wire-format ``(kind, params)`` pair into a typed spec.

    Raises one :class:`BadRequest` naming the first field whose type or
    range is wrong; platform-dependent limits (reachable clocks, core
    counts) are checked when the service dry-runs the spec.
    """
    if not isinstance(kind, str) or kind not in SPEC_TYPES:
        raise BadRequest(
            f"unknown job kind {kind!r} (expected one of "
            f"{', '.join(JOB_KINDS)})"
        )
    spec_cls = SPEC_TYPES[kind]
    if not isinstance(params, dict):
        raise BadRequest("params must be a JSON object")
    return spec_cls.from_dict(params)


# ---------------------------------------------------------------------------
# the job record
# ---------------------------------------------------------------------------
@dataclass
class Job:
    """One submitted request moving through the service lifecycle."""

    id: str
    tenant: str
    spec: Any
    seq: int
    deadline: Optional[float] = None  # service-clock absolute time
    status: str = QUEUED
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    batch_id: Optional[str] = None
    cancel_requested: bool = False
    future: Optional["asyncio.Future"] = None
    #: Chronological per-job progress notes (event name + payload).
    progress: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATES

    def note(self, event: str, **payload: Any) -> None:
        self.progress.append({"event": event, **payload})

    def view(self) -> Dict[str, Any]:
        """JSON-safe status view (the GET /v1/jobs/<id> body)."""
        view: Dict[str, Any] = {
            "job_id": self.id,
            "tenant": self.tenant,
            "kind": self.kind,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "batch_id": self.batch_id,
        }
        if self.result is not None:
            view["result"] = self.result
        if self.error is not None:
            view["error"] = self.error
        return view

    async def wait(self, timeout_s: Optional[float] = None):
        """Await the job's result payload (in-proc clients).

        Raises the job's terminal exception (:class:`JobTimeout`,
        :class:`JobCancelled`, or the wrapped failure) instead of
        returning, mirroring what an HTTP poller would read off the
        terminal status.
        """
        if self.future is None:
            raise ServiceError(f"job {self.id} has no attached future")
        return await asyncio.wait_for(
            asyncio.shield(self.future), timeout_s
        )
