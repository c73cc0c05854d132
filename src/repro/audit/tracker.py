"""Runtime determinism checks: shadow recompute + RNG draw ledger.

A :class:`DeterminismTracker` is attached to a
:class:`repro.chain.SimulationSession` (``SimulationSession(audit=...)``
or CLI ``--audit``) and enforces, while a campaign runs, the two
invariants everything else assumes:

**Shadow recompute.**  Every session cache entry is claimed to be a
pure function of its key.  The tracker samples cache *hits* with a
seeded PRNG (independent of every measurement stream), recomputes the
value from scratch and asserts bitwise equality with the cached copy.
A mismatch means key aliasing (the pre-fix ``id(cluster)`` bug) or
in-place mutation of a cached array -- raised as
:class:`~repro.audit.errors.CacheShadowMismatch`.

**RNG draw ledger.**  The batch-equivalence contract pins which chain
stage may drain which RNG stream: ``execute`` the per-item
``memory_rng`` generators, ``receive`` the analyzer RNG, every other
stage nothing (each stage declares this as its ``drains`` attribute).
The ledger snapshots each stream's ``bit_generator.state`` around
every stage; a stream advancing in a stage not entitled to it is a
violation, and for the receive stage the ledger *replays* the expected
draw sequence on a clone of the generator and asserts the post-stage
state matches exactly -- so an over- or under-draining receive path is
caught even though it is allowed to draw.

Violations raise typed :class:`~repro.audit.errors.AuditViolation`
errors and are mirrored as ``audit_violation`` events through
:mod:`repro.obs.events`; the tracker is opt-in and adds nothing to an
un-audited run.
"""

from __future__ import annotations

import dataclasses
import random
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.audit.errors import (
    AuditViolation,
    CacheShadowMismatch,
    RngLedgerViolation,
)
from repro.obs.events import NULL_LOG, EventLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.path import SignalPath
    from repro.chain.types import ChainRequest

__all__ = ["DeterminismTracker", "AuditStats", "bitwise_equal"]


def bitwise_equal(a: Any, b: Any) -> bool:
    """Exact (bit-level) equality for the value shapes session caches
    hold: ndarrays, dataclasses, (named)tuples, lists, floats, ints.

    Floats compare by their IEEE-754 bits (so ``-0.0 != 0.0`` and
    ``nan == nan``): the audit asks "is this the same computation?",
    not "are these numerically close?".
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return all(
            bitwise_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(
            bitwise_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return set(a) == set(b) and all(
            bitwise_equal(a[k], b[k]) for k in a
        )
    return bool(a == b)


@dataclass
class AuditStats:
    """Counters for everything the tracker verified (observability)."""

    shadow_checks: Dict[str, int] = field(default_factory=dict)
    ledger_stages: int = 0
    ledger_replays: int = 0
    violations: int = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "shadow_checks": dict(self.shadow_checks),
            "ledger_stages": self.ledger_stages,
            "ledger_replays": self.ledger_replays,
            "violations": self.violations,
        }


class DeterminismTracker:
    """Opt-in runtime determinism auditor for one simulation session.

    Parameters
    ----------
    sample_rate:
        Fraction of cache hits shadow-recomputed, in [0, 1].  Sampling
        is driven by a private seeded PRNG, so which hits are checked
        is itself deterministic and never perturbs measurement RNG
        streams.
    seed:
        Seed for the sampling PRNG.
    event_log:
        Destination for ``audit_violation`` / ``audit_summary`` events.
    shadow / ledger:
        Independently disable either layer.
    """

    def __init__(
        self,
        sample_rate: float = 0.25,
        seed: int = 0,
        event_log: EventLog = NULL_LOG,
        shadow: bool = True,
        ledger: bool = True,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        self.event_log = event_log
        self.shadow = shadow
        self.ledger = ledger
        self.stats = AuditStats()
        self._sampler = random.Random(seed)

    # ------------------------------------------------------------------
    # shadow-recompute layer
    # ------------------------------------------------------------------
    def check_hit(
        self,
        cache: str,
        key: Any,
        cached: Any,
        recompute: Callable[[], Any],
    ) -> None:
        """Shadow-verify one cache hit (sampled).

        ``recompute`` must rebuild the value from scratch through the
        same pure code path that populated the cache; it runs only when
        this hit is sampled, so the steady-state overhead is
        ``sample_rate`` x the original miss cost.
        """
        if not self.shadow or self.sample_rate <= 0.0:
            return
        if self._sampler.random() >= self.sample_rate:
            return
        fresh = recompute()
        count = self.stats.shadow_checks.get(cache, 0)
        self.stats.shadow_checks[cache] = count + 1
        if not bitwise_equal(cached, fresh):
            self._violate(
                CacheShadowMismatch,
                f"session cache {cache!r} hit for key {key!r} is not "
                "bitwise equal to a from-scratch recompute: the entry "
                "was aliased, mutated, or its key omits an input",
                site=f"session.{cache}",
            )

    # ------------------------------------------------------------------
    # RNG draw ledger
    # ------------------------------------------------------------------
    def chain_ledger(
        self, path: "SignalPath", request: "ChainRequest"
    ) -> Optional["ChainLedger"]:
        """A per-run ledger for one batched chain call (or None)."""
        if not self.ledger:
            return None
        return ChainLedger(self, path, request)

    # ------------------------------------------------------------------
    def _violate(
        self,
        cls: type,
        message: str,
        site: Optional[str] = None,
        **payload: Any,
    ) -> None:
        self.stats.violations += 1
        self.event_log.emit(
            "audit_violation",
            kind=cls.kind,
            site=site,
            message=message,
            **payload,
        )
        raise cls(message, site=site)

    def summary(self) -> Dict[str, Any]:
        return self.stats.snapshot()

    def emit_summary(self, event_log: Optional[EventLog] = None) -> None:
        """Emit an ``audit_summary`` event with the check counters."""
        log = event_log if event_log is not None else self.event_log
        log.emit("audit_summary", **self.summary())


class ChainLedger:
    """Per-stream RNG accounting across one chain run's stages.

    Streams are collected from the signal path (the analyzer RNG of
    any stage exposing ``.analyzer``) and the request (each distinct
    per-item ``memory_rng``).  ``after_stage`` is called by
    :meth:`repro.chain.SignalPath.run` with the stage's declared
    ``drains`` tuple.
    """

    def __init__(
        self,
        tracker: DeterminismTracker,
        path: "SignalPath",
        request: "ChainRequest",
    ):
        self._tracker = tracker
        self._request = request
        self._analyzer = next(
            (
                stage.analyzer
                for stage in path.stages
                if getattr(stage, "analyzer", None) is not None
            ),
            None,
        )
        streams: List[Tuple[str, Any]] = []
        analyzer_rng = getattr(self._analyzer, "rng", None)
        if analyzer_rng is not None:
            streams.append(("analyzer", analyzer_rng))
        for item in request.items:
            rng = getattr(item, "memory_rng", None)
            if rng is not None and not any(
                existing is rng for _, existing in streams
            ):
                streams.append(("memory", rng))
        self._streams = streams
        self._before = [self._state(rng) for _, rng in streams]

    @staticmethod
    def _state(rng: np.random.Generator) -> Dict[str, Any]:
        return rng.bit_generator.state

    def after_stage(
        self, stage: str, drains: Tuple[str, ...] = ()
    ) -> None:
        """Verify every stream against ``stage``'s drain entitlement."""
        tracker = self._tracker
        tracker.stats.ledger_stages += 1
        for i, (name, rng) in enumerate(self._streams):
            before = self._before[i]
            after = self._state(rng)
            advanced = after != before
            if advanced and name not in drains:
                tracker._violate(
                    RngLedgerViolation,
                    f"stage {stage!r} advanced the {name!r} RNG stream "
                    "it is not entitled to drain; per-stream draw "
                    "order no longer matches the sequential path",
                    site=f"chain.{stage}",
                    stream=name,
                )
            if name == "analyzer" and "analyzer" in drains:
                expected = self._expected_analyzer_state(before)
                if expected is not None:
                    tracker.stats.ledger_replays += 1
                    if expected != after:
                        tracker._violate(
                            RngLedgerViolation,
                            f"stage {stage!r} drained the analyzer "
                            "stream differently from the "
                            "batch-equivalence contract (expected "
                            f"{self._expected_draw_plan()} in request "
                            "order)",
                            site=f"chain.{stage}",
                            stream=name,
                        )
            self._before[i] = after

    # ------------------------------------------------------------------
    def _expected_draw_plan(self) -> str:
        request = self._request
        per_item = []
        if request.want_amplitude:
            per_item.append(f"{request.samples} banded amplitude draws")
        if request.want_trace:
            per_item.append("1 full-span trace draw")
        plan = " + ".join(per_item) if per_item else "no draws"
        return f"{len(request.items)} item(s) x ({plan})"

    def _expected_analyzer_state(
        self, before: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Post-receive analyzer state per the contract, by replaying
        the expected draw sequence on a clone; None when the expected
        pattern cannot be derived (degenerate empty band).

        The replay draws one row per sweep, so it also checks that the
        analyzer's one-block RMS-of-N draw drains the generator exactly
        like per-sweep draws."""
        request = self._request
        analyzer = self._analyzer
        clone = np.random.Generator(type(analyzer.rng.bit_generator)())
        clone.bit_generator.state = before
        if not request.want_emission:
            return clone.bit_generator.state
        environment = analyzer.environment
        centers = analyzer.bin_centers()
        band = request.band
        banded_bins = int(
            ((centers >= band[0]) & (centers <= band[1])).sum()
        )
        if request.want_amplitude and banded_bins == 0:
            # The receive stage raises before drawing; no expectation.
            return None
        for _ in request.items:
            if request.want_amplitude:
                for _ in range(request.samples):
                    environment.sample_noise_w((banded_bins,), clone)
            if request.want_trace:
                environment.sample_noise_w(centers.shape, clone)
        return clone.bit_generator.state
