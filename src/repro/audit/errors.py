"""Typed runtime audit violations.

Every invariant the :class:`repro.audit.DeterminismTracker` enforces
raises a subclass of :class:`AuditViolation` when broken.  Violations
are *not* :class:`repro.faults.FaultError` subclasses on purpose: a
determinism violation is a bug in the simulator, never a transient
instrument condition, so the retry/quarantine machinery must not
swallow it -- it propagates straight to the caller (and is mirrored as
an ``audit_violation`` event through :mod:`repro.obs`).
"""

from __future__ import annotations

from typing import Optional


class AuditViolation(Exception):
    """A determinism invariant the tracker enforces was broken."""

    #: Short machine-readable violation kind; mirrored in the
    #: ``audit_violation`` event payload.
    kind = "audit_violation"

    def __init__(self, message: str, site: Optional[str] = None):
        super().__init__(message)
        self.site = site


class CacheShadowMismatch(AuditViolation):
    """A session cache hit differed bitwise from a fresh recompute.

    The :class:`repro.chain.SimulationSession` contract is that every
    cached value is a pure function of its key; a mismatch means either
    the key omits an input the value depends on (aliasing) or the entry
    was mutated in place.
    """

    kind = "cache_shadow_mismatch"


class RngLedgerViolation(AuditViolation):
    """A chain stage drained an RNG stream it was not entitled to.

    The batch-equivalence contract pins which stage may advance which
    stream (execute: per-item ``memory_rng``; receive: the analyzer
    RNG) and, for the receive stage, exactly how many draws one request
    performs.  Any other advancement reorders draws relative to the
    sequential legacy path and silently changes results.
    """

    kind = "rng_ledger_violation"
